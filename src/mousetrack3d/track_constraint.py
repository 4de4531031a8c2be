"""Motion-track smoothness residual.

Each epoch's six pose parameters are compared against the unique cubic
polynomial through four neighboring epochs (t-2, t-1, t+1, t+2; one-sided
windows at the track boundaries). The comparison is expressed as the
displacement of a 3x3x3 grid of points covering the body under the transform
H * S^-1, where H is the epoch's pose and S the recombined interpolated pose.
The RMS of the grid displacements is the scalar smoothness metric. The
displacements are affine in the homogeneous grid point, so the bundle
adjustment uses an exact equivalent with four weighted points (the R factor
of the grid's homogeneous coordinates) as its least-squares residuals; it
has the same sum of squares and the same normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, mouse_model
from .errors import BranchDiscontinuity
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

# interior window: neighbors at t-2, t-1, t+1, t+2, evaluated at t
INTERIOR_OFFSETS = (-2, -1, 1, 2)
INTERIOR_WEIGHTS = lagrange_weights(INTERIOR_OFFSETS, 0.0)


def interpolation_window(t, n_epochs):
    """Neighbor epochs and cubic weights for epoch t.

    Interior epochs use the symmetric window; the first/last two epochs fall
    back to the four nearest available epochs (one-sided window).
    """
    if 2 <= t <= n_epochs - 3:
        nodes = [t + o for o in INTERIOR_OFFSETS]
        return nodes, INTERIOR_WEIGHTS.copy()
    nodes = sorted(range(max(0, min(t - 2, n_epochs - 5)),
                         max(0, min(t - 2, n_epochs - 5)) + 5))
    nodes = [u for u in nodes if u != t][:4]
    return nodes, lagrange_weights(nodes, float(t))


MAX_ROTATION_JUMP = np.pi / 2   # rad between consecutive unwrapped vectors


def unwrap_rodrigues(rvecs):
    """Re-express each rotation vector on the branch nearest its predecessor.

    Equivalent representations differ by (|r| - 2 pi k) along the same axis.
    Raises BranchDiscontinuity when consecutive vectors still differ by more
    than MAX_ROTATION_JUMP.
    """
    rvecs = np.array(rvecs, dtype=float)
    out = rvecs.copy()
    for t in range(1, len(out)):
        r = out[t]
        theta = np.linalg.norm(r)
        candidates = [r]
        if theta > 1e-12:
            axis = r / theta
            candidates.append((theta - 2 * np.pi) * axis)
            candidates.append((theta + 2 * np.pi) * axis)
        dists = [np.linalg.norm(c - out[t - 1]) for c in candidates]
        out[t] = candidates[int(np.argmin(dists))]
        if min(dists) > MAX_ROTATION_JUMP:
            raise BranchDiscontinuity(
                f"rotation jump {min(dists):.3f} rad > {MAX_ROTATION_JUMP:.3f} rad "
                f"between epochs {t - 1} and {t}")
    return out


def spline_interpolate(neighbors) -> PoseVector:
    """Pose at t from the four neighbors at t-2, t-1, t+1, t+2.

    Each of the six parameters is interpolated independently by the unique
    cubic through the four samples. Rotation vectors are unwrapped onto a
    locally consistent branch first.
    """
    if len(neighbors) != 4:
        raise ValueError(f"expected 4 neighbor poses, got {len(neighbors)}")
    rv = unwrap_rodrigues([p.rodrigues for p in neighbors])
    params = np.array([np.concatenate([r, p.translation])
                       for r, p in zip(rv, neighbors)])
    interp = INTERIOR_WEIGHTS @ params
    return PoseVector(interp[:3], interp[3:])


# ---------------------------------------------------------------------------
# Grid comparison
# ---------------------------------------------------------------------------

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
    the cubic interpolation of its four window neighbors; the RMS of the
    flattened vector equals `grid_rmse` of the two transforms.
    """
    grid = grid or default_grid()
    params = np.asarray(track, dtype=float)
    n = len(params)
    if n < 5:
        raise ValueError("track must have at least 5 epochs")
    nodes, weights = interpolation_window(t, n)
    # the window and t span five consecutive epochs; only they are unwrapped
    first = min(nodes[0], t)
    window = params[first:first + 5].copy()
    window[:, :3] = unwrap_rodrigues(window[:, :3])
    interp = weights @ window[np.subtract(nodes, first)]
    own = window[t - first]
    S = RigidTransform(geometry.rodrigues_to_matrix(interp[:3]), interp[3:])
    H = RigidTransform(geometry.rodrigues_to_matrix(own[:3]), own[3:])
    return grid_displacements(H, S, grid)
