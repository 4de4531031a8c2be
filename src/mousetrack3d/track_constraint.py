"""Motion-track smoothness residual, the one definition shared by the bundle
adjustment and `track_residual`.

Each epoch's six pose parameters are compared against the unique cubic
polynomial through four neighboring epochs (t-2, t-1, t+1, t+2; one-sided
windows at the track boundaries), which takes the nodes' rotation vectors on
the 2 pi branch nearest the epoch's canonical vector. The comparison is
expressed as the displacement of a 3x3x3 grid of points covering the body
under the transform H * S^-1, where H is the epoch's pose and S the
recombined interpolated pose. The RMS of the grid displacements is the
scalar smoothness metric. The bundle adjustment uses an exact equivalent
with four weighted points (`grid_factor`) as its least-squares residuals; it
has the same sum of squares and the same normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, mouse_model
from .geometry import PoseVector, RigidTransform


@dataclass(frozen=True)
class ComparisonGrid:
    """Lattice of model-frame points spanning the mouse bounding box."""

    points: np.ndarray

    def __post_init__(self):
        p = np.array(self.points, dtype=float).reshape(-1, 3)
        if len(p) < 27:
            raise ValueError(f"grid needs >= 27 points, got {len(p)}")
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def n_points(self):
        return len(self.points)


def default_grid(nx=3, ny=3, nz=3, extent_mm=None) -> ComparisonGrid:
    """3x3x3 grid over the rigid model bounding box (default
    [-13.5, 13.5] x [-30, 36] x [-8, 19] mm)."""
    if extent_mm is None:
        lo, hi = mouse_model.RigidMouseModel().bounding_box()
    else:
        lo = -np.asarray(extent_mm, dtype=float) / 2.0
        hi = np.asarray(extent_mm, dtype=float) / 2.0
    xs = np.linspace(lo[0], hi[0], nx)
    ys = np.linspace(lo[1], hi[1], ny)
    zs = np.linspace(lo[2], hi[2], nz)
    pts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    return ComparisonGrid(pts)


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


# Epoch t's window lies in the five consecutive epochs from `_window_start`:
# t sits in slot 2 of them in the track's interior, in slots 0, 1, 3 or 4
# near its ends. Row i holds the other four slots and the weights of the
# cubic through them evaluated at slot i.
WINDOW_NODES = np.array([[j for j in range(5) if j != i] for i in range(5)])
WINDOW_WEIGHTS = np.array([lagrange_weights(nodes, float(i))
                           for i, nodes in enumerate(WINDOW_NODES)])


def _window_start(t, n_epochs):
    return np.maximum(np.minimum(t - 2, n_epochs - 5), 0)


def windows(n_epochs):
    """Neighbor epochs (T, 4) and cubic weights (T, 4) of every epoch.

    Interior epochs use the symmetric window t-2, t-1, t+1, t+2; the first
    and last two epochs use the four nearest other epochs (one-sided
    window).
    """
    t = np.arange(n_epochs)
    first = _window_start(t, n_epochs)
    return first[:, None] + WINDOW_NODES[t - first], WINDOW_WEIGHTS[t - first]


def interpolation_window(t, n_epochs):
    """Neighbor epochs (a list of four) and cubic weights of epoch t, as
    in `windows`. IndexError unless 0 <= t < n_epochs."""
    if not 0 <= t < n_epochs:
        raise IndexError(f"epoch {t} outside a track of {n_epochs} epochs")
    first = _window_start(t, n_epochs)
    return ((first + WINDOW_NODES[t - first]).tolist(),
            WINDOW_WEIGHTS[t - first].copy())


def interpolate(x, nodes, weights, ref):
    """Cubic recombinations (n, 6) of the poses x[nodes] (x (T, 6), nodes
    (n, 4)) with weights (n, 4), and the nodes' branch factors s (n, 4).

    Each node's rotation vector v enters as v' = s v, its rotation's vector
    on the 2 pi branch nearest ref (n, 3) (`geometry.branch_scale`); s is
    exactly 1 wherever a node keeps its branch.
    """
    v = x[nodes]                                                  # (n, 4, 6)
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


def spline_interpolate(neighbors) -> PoseVector:
    """Pose at t from the four neighbors at t-2, t-1, t+1, t+2.

    Each of the six parameters is interpolated independently by the unique
    cubic through the four samples, with the rotation vectors on the 2 pi
    branch nearest the first neighbor's.
    """
    if len(neighbors) != 4:
        raise ValueError(f"expected 4 neighbor poses, got {len(neighbors)}")
    params = np.array([np.concatenate([p.rodrigues, p.translation])
                       for p in neighbors])
    interp, _ = interpolate(params, np.arange(4)[None], WINDOW_WEIGHTS[2:3],
                            params[:1, :3])
    return PoseVector(interp[0, :3], interp[0, 3:])


# ---------------------------------------------------------------------------
# Grid comparison
# ---------------------------------------------------------------------------

def grid_factor(grid: ComparisonGrid):
    """The 4x4 R factor of the grid's homogeneous points h = (g, 1). Grid
    displacements are affine in h, so their sums of squares depend on the
    grid only through sum h h^T = R^T R: the rows (p_j, s_j) of R act as four
    weighted points with the grid's sums of squares, even for a flat grid."""
    h = np.column_stack([grid.points, np.ones(grid.n_points)])
    return np.linalg.qr(h, mode="r")


def grid_displacements(H: RigidTransform, S: RigidTransform,
                       grid: ComparisonGrid):
    """(n, 3) displacement of each grid point under H * S^-1."""
    moved = geometry.apply(geometry.compose(H, geometry.invert(S)), grid.points)
    return moved - grid.points


def grid_rmse(H: RigidTransform, S: RigidTransform, grid: ComparisonGrid):
    """RMS grid-point displacement (mm) between two transforms."""
    d = grid_displacements(H, S, grid)
    return float(np.sqrt((d ** 2).sum(axis=1).mean()))


def track_residual(track, t, grid: ComparisonGrid | None = None):
    """Smoothness residual for epoch t of a pose track, a (T, 6) array
    (Rodrigues vector, then translation in mm).

    Returns the (n_grid, 3) grid displacements between the epoch's pose and
    the cubic interpolation of its four window neighbors, as in the bundle
    adjustment; the RMS of the flattened vector equals `grid_rmse` of the
    two transforms.
    """
    grid = grid or default_grid()
    params = np.asarray(track, dtype=float)
    if len(params) < 5:
        raise ValueError("track must have at least 5 epochs")
    nodes, weights = interpolation_window(t, len(params))
    own = params[t]
    interp, _ = interpolate(params, np.array([nodes]), weights[None],
                            geometry.canonical_rodrigues(own[None, :3]))
    S = RigidTransform(geometry.rodrigues_to_matrix(interp[0, :3]), interp[0, 3:])
    H = RigidTransform(geometry.rodrigues_to_matrix(own[:3]), own[3:])
    return grid_displacements(H, S, grid)
