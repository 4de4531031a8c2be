"""Motion-track smoothness residual, the one definition shared by the bundle
adjustment and `track_residual`.

Each epoch's six pose parameters are compared against the unique cubic
polynomial through four neighboring epochs (t-2, t-1, t+1, t+2; one-sided
windows at the track boundaries), which takes the nodes' rotation vectors on
the 2 pi branch nearest the epoch's canonical vector. The comparison is the
world displacement H g - S g of each point g of `body_grid`, the 3x3x3 grid
of model-frame points spanning the body model, where H is the epoch's pose
and S the recombined interpolated pose. It is the body-frame difference
S^-1 H g - g turned by R_S, so its norm does not depend on where the world
frame sits.
Poses are (..., 6) rows: Rodrigues vector, then translation in mm. The RMS
of the grid displacements is the scalar smoothness metric. The bundle
adjustment uses an exact equivalent with four weighted points
(`grid_factor`) as its least-squares residuals; it has the same sum of
squares and the same normal equations.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import geometry, mouse_model


def body_grid():
    """(27, 3) read-only grid over the bounding box of `mouse_model.COORDS`
    as it is at the call, x slowest and z fastest."""
    lo, hi = mouse_model.COORDS.min(axis=0), mouse_model.COORDS.max(axis=0)
    grid = np.array(list(itertools.product(*np.linspace(lo, hi, 3).T)))
    grid.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# Cubic interpolation of pose parameters
# ---------------------------------------------------------------------------

def lagrange_weights(nodes, at):
    """Coefficients of the unique cubic through samples at `nodes`
    evaluated at `at`."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.ones(len(nodes))
    for j in range(len(nodes)):
        for m in range(len(nodes)):
            if m != j:
                w[j] *= (at - nodes[m]) / (nodes[j] - nodes[m])
    return w


# Epoch t's window lies in five consecutive epochs, its slots (see
# `window_slots`): t sits in slot 2 of them in the track's interior, in
# slots 0, 1, 3 or 4 near its ends. Row i holds the other four slots and the
# weights of the cubic through them evaluated at slot i; SLOT_WEIGHTS row i
# holds the same weights on all five slots, 0 on slot i.
WINDOW_NODES = np.array([[j for j in range(5) if j != i] for i in range(5)])
WINDOW_WEIGHTS = np.array([lagrange_weights(nodes, float(i))
                           for i, nodes in enumerate(WINDOW_NODES)])
SLOT_WEIGHTS = np.zeros((5, 5))
np.put_along_axis(SLOT_WEIGHTS, WINDOW_NODES, WINDOW_WEIGHTS, axis=1)


def window_slots(n_epochs):
    """First epochs (T,) of every epoch's window and the cubic weights (T, 5)
    of its five slots, the consecutive epochs from the first, 0 on the
    epoch's own slot.

    Interior epochs use the symmetric window t-2, t-1, t+1, t+2; the first
    and last two epochs use the four nearest other epochs (one-sided
    window). ValueError for a track shorter than one five-epoch window.
    """
    if n_epochs < 5:
        raise ValueError(f"a track of {n_epochs} epochs is shorter than one "
                         f"five-epoch smoothness window")
    t = np.arange(n_epochs)
    first = np.maximum(np.minimum(t - 2, n_epochs - 5), 0)
    return first, SLOT_WEIGHTS[t - first]


def interpolate(x, nodes, weights, ref):
    """Cubic recombinations (n, 6) of the poses x[nodes] (x (T, 6), nodes
    (n, m)) with weights (n, m), and the nodes' branch factors s (n, m).

    Each node's rotation vector v enters as v' = s v, its rotation's vector
    on the 2 pi branch nearest ref (n, 3) (`geometry.branch_scale`); s is
    exactly 1 wherever a node keeps its branch.
    """
    v = x[nodes]                                                  # (n, m, 6)
    s = geometry.branch_scale(v[..., :3], ref[:, None])
    v[..., :3] *= s[..., None]
    return np.einsum("ta,tap->tp", weights, v), s


def branch_maps(v, s):
    """Derivatives dv'/dv = s I + (1 - s) v v^T / |v|^2 (..., 3, 3) of the
    re-expressed node vectors v' = s v of `interpolate`, for node rotation
    vectors v (..., 3) and their branch factors s (...,) held fixed."""
    s = s[..., None, None]
    theta2 = np.maximum(np.sum(v * v, axis=-1), 1e-300)[..., None, None]
    return s * np.eye(3) + (1.0 - s) * (v[..., :, None] * v[..., None, :]) / theta2


def spline_interpolate(neighbors):
    """Pose row (6,) at t from the (4, 6) neighbor rows at t-2, t-1, t+1,
    t+2.

    Each of the six parameters is interpolated independently by the unique
    cubic through the four samples, with the rotation vectors on the 2 pi
    branch nearest the first neighbor's.
    """
    params = np.asarray(neighbors, dtype=float)
    if params.shape != (4, 6):
        raise ValueError(f"expected (4, 6) neighbor poses, got {params.shape}")
    interp, _ = interpolate(params, np.arange(4)[None], WINDOW_WEIGHTS[2:3],
                            params[:1, :3])
    return interp[0]


# ---------------------------------------------------------------------------
# Grid comparison
# ---------------------------------------------------------------------------

def grid_factor(points):
    """The 4x4 R factor of the homogeneous points h = (g, 1) of an (n, 3)
    grid. Grid displacements are affine in h, so their sums of squares depend
    on the grid only through sum h h^T = R^T R: the rows (p_j, s_j) of R act
    as four weighted points with the grid's sums of squares, even for a flat
    grid."""
    h = np.column_stack([points, np.ones(len(points))])
    return np.linalg.qr(h, mode="r")


def grid_displacements(H, S):
    """(..., 27, 3) world displacement H g - S g = (R_H - R_S) g + t_H - t_S
    of each body point g of `body_grid`, for broadcasting (..., 6) pose rows
    H and S. Its norm is that of the body-frame displacement S^-1 H g - g, so
    the norm does not depend on the world frame."""
    grid = body_grid()
    return (mouse_model.world_part_positions(H, grid)
            - mouse_model.world_part_positions(S, grid))


def grid_rmse(H, S):
    """RMS grid-point displacement (mm) between broadcasting (..., 6) pose
    rows H and S: shape (...)."""
    d = grid_displacements(H, S)
    return np.sqrt((d ** 2).sum(axis=-1).mean(axis=-1))


def track_residual(track, t):
    """Smoothness residual for epoch t of a pose track, a (T, 6) array
    (Rodrigues vector, then translation in mm).

    Returns the (27, 3) `body_grid` displacements between the epoch's pose
    and the cubic interpolation of its four window neighbors, as in the
    bundle adjustment; the RMS of the flattened vector equals `grid_rmse` of
    the two poses. ValueError for a track of fewer than 5 epochs
    (`window_slots`), IndexError unless 0 <= t < T.
    """
    params = np.asarray(track, dtype=float)
    first, weights = window_slots(len(params))
    if not 0 <= t < len(params):
        raise IndexError(f"epoch {t} outside a track of {len(params)} epochs")
    interp, _ = interpolate(params, first[t] + np.arange(5)[None],
                            weights[t:t + 1],
                            geometry.canonical_rodrigues(params[t:t + 1, :3]))
    return grid_displacements(params[t], interp[0])
