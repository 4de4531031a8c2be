"""Homogeneous projective geometry: Rodrigues rotations and their derivatives,
projection, decomposition, spatial resection, and triangulation.

Conventions
-----------
* World/model coordinates are millimeters, image coordinates pixels.
* A camera maps global points through ``x ~ K [I|0] H`` where ``H`` is the
  rigid transform from global to camera coordinates.
* Pixels are q[:2] / q_z of the homogeneous image point q = K p_c, by the
  one rule of `dehomogenize`; every projection in the package uses it.
* Rotations are exchanged with 3-vector axis-angle (Rodrigues) encodings;
  the canonical branch keeps the angle in ``[0, pi]`` and, at exactly pi,
  picks the axis whose first nonzero component is positive.
* Body poses are (..., 6) rows: Rodrigues vector, then translation in mm.
  `RigidTransform` is only the camera pose record.

All values are immutable after construction and every function is pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NonPositiveDepth,
    SchemaError,
    SingularCamera,
    check_object,
    is_int,
    numbers,
    read_json,
)

EPS_DEPTH = 1e-9  # mm; `project` rejects depths at or below this and
                  # `dehomogenize` divides by it where |q_z| is no larger
_EPS_ANGLE = 1e-12


# ---------------------------------------------------------------------------
# Rodrigues encoding
# ---------------------------------------------------------------------------

def rodrigues_to_matrix(r):
    """Rotation matrices for axis-angle 3-vectors: (..., 3) -> (..., 3, 3).

    Below an angle of 1e-12 the first-order form I + [r]x is used; it is
    accurate to O(theta^2).
    """
    r = np.asarray(r, dtype=float)
    theta = np.linalg.norm(r, axis=-1)[..., None, None]
    small = theta < _EPS_ANGLE
    # small angles take the coefficients (1, 0) on the unnormalized r
    K = _skew_many(r / np.where(small, 1.0, theta)[..., 0])
    s = np.where(small, 1.0, np.sin(theta))
    c = np.where(small, 0.0, 1.0 - np.cos(theta))
    return np.eye(3) + s * K + c * (K @ K)


def matrix_to_rodrigues(R):
    """Axis-angle 3-vectors for rotation matrices, on the canonical branch:
    (..., 3, 3) -> (..., 3).

    With v = (R32 - R23, R13 - R31, R21 - R12) = 2 sin(theta) a for the unit
    axis a, the angle is theta = atan2(|v| / 2, (tr R - 1) / 2) in [0, pi].
    Up to pi / 2 the vector is theta v / (2 sin theta) (v / 2 below an angle
    of 1e-7). Beyond pi / 2, where v loses relative precision, the axis is
    the largest-diagonal column of the symmetric part
    (R + R^T) / 2 - cos(theta) I = (1 - cos theta) a a^T, normalized and
    signed along v. Where theta rounds to pi, v carries no sign, and the
    axis's first nonzero component is made positive (deterministic
    serialization).
    """
    R = np.asarray(R, dtype=float)
    v = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    sin = np.sqrt(np.vecdot(v, v))[..., None] / 2.0
    cos = (np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0
    theta = np.arctan2(sin, cos[..., None])
    out = np.where(theta < 1e-7, 0.5 * v,
                   theta / (2.0 * np.where(sin > 0.0, sin, 1.0)) * v)

    S = (R + np.swapaxes(R, -1, -2)) / 2.0 - cos[..., None, None] * np.eye(3)
    k = np.argmax(np.diagonal(S, axis1=-2, axis2=-1), axis=-1)
    axis = np.take_along_axis(S, k[..., None, None], axis=-1)[..., 0]
    norm = np.sqrt(np.vecdot(axis, axis))[..., None]
    axis = axis / np.where(norm > 0.0, norm, 1.0)
    first = np.argmax(np.abs(axis) > 1e-12, axis=-1)[..., None]
    sign = np.where(theta < np.pi, np.vecdot(axis, v)[..., None],
                    np.take_along_axis(axis, first, axis=-1))
    axis = np.where(sign < 0.0, -axis, axis)
    return np.where(theta > np.pi / 2, theta * axis, out)


def branch_scale(r, ref):
    """Factors s (...,) such that s r is the axis-angle vector of r's
    rotation nearest ref: broadcasting (..., 3) vectors r and ref.

    The vectors of one rotation are (theta + 2 pi k) r / |r| for integer k,
    with theta = |r|; the nearest to ref takes k = round((r / |r| . ref -
    theta) / 2 pi), so s = (theta + 2 pi k) / theta. Below an angle of 1e-12,
    and wherever k = 0, s is exactly 1.
    """
    r = np.asarray(r, dtype=float)
    theta = np.sqrt(np.einsum("...i,...i->...", r, r))
    small = theta < _EPS_ANGLE
    theta = np.where(small, 1.0, theta)
    along = np.einsum("...i,...i->...", r, ref) / theta
    k = np.where(small, 0.0, np.round((along - theta) / (2.0 * np.pi)))
    return 1.0 + 2.0 * np.pi * k / theta


def canonical_rodrigues(r):
    """Axis-angle vectors re-expressed with angle at most pi, the vectors of
    the same rotations nearest zero: (..., 3) -> (..., 3)."""
    r = np.asarray(r, dtype=float)
    return branch_scale(r, np.zeros(3))[..., None] * r


# row i: the cross-product matrix [e_i]x, flattened
_SKEW_BASIS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                        [0, 0, 1, 0, 0, 0, -1, 0, 0],
                        [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)


def _skew_many(a):
    """Cross-product matrices [a]x for (..., 3) vectors: (..., 3, 3)."""
    return (a @ _SKEW_BASIS).reshape(a.shape[:-1] + (3, 3))


def rotation_derivatives(rv, R):
    """Derivatives of the rotation matrices R (N, 3, 3) of stacked
    axis-angle vectors rv (N, 3), which the caller has already formed
    (`rodrigues_to_matrix`): dR (N, 3, 3, 3) with dR[n, i] = dR(r_n)/dr_i.

    By the closed form dR/dr_i = (r_i [r]x + [u_i]x) R / |r|^2 (Gallego &
    Yezzi, "A compact formula for the derivative of a 3-D rotation in
    exponential coordinates", J. Math. Imaging Vis. 2015), where
    u_i = r x (I - R) e_i is column i of the one product [r]x (I - R).
    Below |r|^2 = 1e-16 the exact r -> 0 limit [e_i]x R is used.
    """
    rv = np.asarray(rv, dtype=float).reshape(-1, 3)
    R = np.asarray(R, dtype=float).reshape(-1, 3, 3)
    theta2 = np.einsum("ni,ni->n", rv, rv)
    small = theta2 < 1e-16
    skew = _skew_many(rv)
    # rows: u_i = r x (I - R) e_i for each i
    u = (skew @ (np.eye(3) - R)).transpose(0, 2, 1)
    M = rv[:, :, None, None] * skew[:, None] + _skew_many(u)
    M = np.where(small[:, None, None, None], _skew_many(np.eye(3)),
                 M / np.where(small, 1.0, theta2)[:, None, None, None])
    return M @ R[:, None]


def rotation_point_jacobians(rv, pts):
    """Vectorized d(R(r_j) x_j)/dr for stacked rotations and points.

    Parameters
    ----------
    rv : (N, 3) axis-angle vectors
    pts : (N, 3) points rotated by the matching vector

    Returns
    -------
    (N, 3, 3) array; [j, :, i] is d(R(r_j) x_j)/dr_i.
    """
    rv = np.asarray(rv, dtype=float).reshape(-1, 3)
    dR = rotation_derivatives(rv, rodrigues_to_matrix(rv))
    return np.einsum("nijk,nk->nji", dR, np.asarray(pts, dtype=float))


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidTransform:
    """6-DoF rigid transform x -> R x + t (t in mm): a camera's fixed
    global->camera pose."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.array(self.rotation, dtype=float))
        object.__setattr__(self, "translation",
                           np.array(self.translation, dtype=float).reshape(3))
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)


def apply(t: RigidTransform, x):
    """Map one point (3,) or many points (N, 3) through the transform."""
    x = np.asarray(x, dtype=float)
    return x @ t.rotation.T + t.translation


# ---------------------------------------------------------------------------
# Cameras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraModel:
    """Calibrated camera: intrinsics K plus the fixed global->camera pose."""

    calibration: np.ndarray
    pose_global: RigidTransform
    id: int = 0
    image_size: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "calibration",
                           np.array(self.calibration, dtype=float))
        self.calibration.setflags(write=False)

    def projection_matrix(self):
        """3x4 matrix P = K [R | t]."""
        H = self.pose_global
        return self.calibration @ np.hstack([H.rotation,
                                             H.translation[:, None]])

    def center(self):
        """Camera center in global coordinates."""
        H = self.pose_global
        return -H.rotation.T @ H.translation


def dehomogenize(q):
    """Pixels (..., 2) and divisors z (...,) of homogeneous image points
    q = K p_c (..., 3), with p_c in camera coordinates: q[:2] / z, where
    z = q_z, or EPS_DEPTH wherever |q_z| <= EPS_DEPTH.

    The one pinhole division of the package (Hartley & Zisserman, Multiple
    View Geometry, 2nd ed., sec. 6.1). A point behind the camera keeps its
    negative z, so it projects mirrored through the principal point.
    """
    z = np.where(np.abs(q[..., 2]) > EPS_DEPTH, q[..., 2], EPS_DEPTH)
    return q[..., :2] / z[..., None], z


def project(camera: CameraModel, point):
    """Project one global 3D point (mm) to pixels.

    Raises NonPositiveDepth when the point sits on or behind the camera's
    principal plane (depth <= EPS_DEPTH).
    """
    pc = apply(camera.pose_global, np.asarray(point, dtype=float))
    if pc[2] <= EPS_DEPTH:
        raise NonPositiveDepth(f"depth {pc[2]:.3g} mm <= {EPS_DEPTH} mm")
    return dehomogenize(camera.calibration @ pc)[0]


def project_many(camera: CameraModel, points):
    """Project (N, 3) points; returns ((N, 2) pixels, (N,) camera-frame
    depths in mm).

    Does not raise on bad depth; callers filter on the returned depths.
    """
    pc = apply(camera.pose_global, np.asarray(points, dtype=float))
    return dehomogenize(pc @ camera.calibration.T)[0], pc[:, 2]


def decompose_projection(P) -> CameraModel:
    """Factor a 3x4 projection matrix into K (positive diagonal, K22 = 1)
    and a proper rigid transform, resolving homogeneous sign so the
    reassembled matrix matches the input up to positive scale.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (3, 4):
        raise ValueError(f"projection matrix must be 3x4, got {P.shape}")
    M = P[:, :3]
    if abs(np.linalg.det(M)) < 1e-12 * max(np.linalg.norm(M), 1.0) ** 3:
        raise SingularCamera("left 3x3 block is rank-deficient")

    import scipy.linalg   # slow to import; only the RQ step uses it
    K, R = scipy.linalg.rq(M)
    # force positive K diagonal
    D = np.diag(np.sign(np.diag(K)))
    K = K @ D
    R = D @ R
    if np.linalg.det(R) < 0:
        # input scale was negative; flip the whole homogeneous matrix
        R = -R
        t = np.linalg.solve(K, -P[:, 3])
    else:
        t = np.linalg.solve(K, P[:, 3])
    K = K / K[2, 2]
    return CameraModel(K, RigidTransform(R, t))


# ---------------------------------------------------------------------------
# Resection (camera pose from 3D-2D correspondences)
# ---------------------------------------------------------------------------

def _hartley_normalization(X):
    """Similarity (d + 1, d + 1) moving points X (n, d) to centroid zero
    and mean distance sqrt(d) from it (Hartley & Zisserman, sec. 4.4.4)."""
    d = X.shape[1]
    c = X.mean(axis=0)
    s = np.sqrt(d) / max(np.sqrt(((X - c) ** 2).sum(axis=1)).mean(), 1e-12)
    T = np.eye(d + 1)
    T[:d, :d] *= s
    T[:d, d] = -s * c
    return T


def _dlt_projection(X, x):
    """Linear 11-parameter camera fit with Hartley isotropic normalization."""
    T = _hartley_normalization(x)
    U = _hartley_normalization(X)
    Xh = np.hstack([X, np.ones((len(X), 1))]) @ U.T
    xh = np.hstack([x, np.ones((len(x), 1))]) @ T.T
    zero = np.zeros_like(Xh)
    A = np.stack([np.hstack([zero, -Xh, xh[:, 1:2] * Xh]),
                  np.hstack([Xh, zero, -xh[:, 0:1] * Xh])], axis=1)
    _, _, Vt = np.linalg.svd(A.reshape(-1, 12))
    Pn = Vt[-1].reshape(3, 4)
    P = np.linalg.inv(T) @ Pn @ U
    return P / np.linalg.norm(P)


def _coplanarity_score(X):
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    return s[-1] / max(s[0], 1e-12)


def _reprojection_residuals(params, K, X, x):
    pc = X @ rodrigues_to_matrix(params[:3]).T + params[3:6]
    return (dehomogenize(pc @ K.T)[0] - x).ravel()


def _refine_pose(K, X, x, r0, t0):
    import scipy.optimize   # slow to import; only this refinement uses it
    res = scipy.optimize.least_squares(
        _reprojection_residuals, np.concatenate([r0, t0]),
        args=(K, X, x), method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return res.x[:3], res.x[3:6], res.fun


def resect(correspondences, known_K=None):
    """Camera pose (and optionally calibration) from 3D-2D correspondences.

    Parameters
    ----------
    correspondences : sequence of (3-vector global mm, 2-vector pixel)
    known_K : optional 3x3 calibration. With unknown K a full DLT needs
        >= 6 non-coplanar points; with known K >= 4 points suffice (planar
        configurations allowed).

    The pose is refined by reprojection minimization from every start: the
    DLT camera, turned to face the points, whenever >= 6 non-coplanar points
    allow it, and with known K also coarse viewing directions at a depth
    guessed from the point spread. The refinement with the lowest cost that
    keeps every point in front of the camera wins; with unknown K the DLT's
    own calibration is kept.

    Returns
    -------
    (CameraModel, mean reprojection error in px)
    """
    X = np.asarray([c[0] for c in correspondences], dtype=float)
    x = np.asarray([c[1] for c in correspondences], dtype=float)
    n = len(X)
    need, what = ((6, "DLT with unknown K") if known_K is None
                  else (4, "known-K resection"))
    if n < need:
        raise InsufficientPoints(f"{what} needs >= {need} points, got {n}")

    starts = []
    K = None
    if n >= 6 and _coplanarity_score(X) >= 1e-8:
        P = _dlt_projection(X, x)
        try:
            cam = decompose_projection(P)
        except SingularCamera:
            pass
        else:
            if np.median(apply(cam.pose_global, X)[:, 2]) < 0:
                cam = decompose_projection(-P)
            K = cam.calibration
            starts.append((matrix_to_rodrigues(cam.pose_global.rotation),
                           cam.pose_global.translation))
    if known_K is not None:
        K = np.asarray(known_K, dtype=float)
        K = K / K[2, 2]
        # deterministic coarse starts: axis-aligned viewing directions at a
        # depth guessed from the point spread
        centroid = X.mean(axis=0)
        spread = max(np.linalg.norm(X - centroid, axis=1).max(), 1.0)
        px_spread = max(np.linalg.norm(x - x.mean(axis=0), axis=1).max(), 1.0)
        depth = 0.5 * (K[0, 0] + K[1, 1]) * spread / px_spread
        for rv in _COARSE_ROTATIONS:
            starts.append((rv, np.array([0.0, 0.0, depth])
                           - rodrigues_to_matrix(rv) @ centroid))
    if K is None:
        raise DegenerateConfiguration(
            "points are coplanar or give a singular DLT camera; "
            "unknown-K resection needs 6 points in general position")

    best = None
    for r0, t0 in starts:
        try:
            r, t, fun = _refine_pose(K, X, x, r0, t0)
        except ValueError:   # least_squares: residuals not finite at the start
            continue
        cost = float(fun @ fun)
        if (X @ rodrigues_to_matrix(r)[2] + t[2]).min() <= 0:
            cost += 1e12  # reject mirror solutions behind the camera
        if best is None or cost < best[0]:
            best = (cost, r, t, fun)
    if best is None:
        raise DegenerateConfiguration("resection failed from every start")
    _, r, t, fun = best
    mean_err = float(np.sqrt((fun.reshape(-1, 2) ** 2).sum(axis=1)).mean())
    return CameraModel(K, RigidTransform(rodrigues_to_matrix(r), t)), mean_err


_COARSE_ROTATIONS = [
    np.zeros(3),
    np.array([np.pi / 2, 0, 0]), np.array([-np.pi / 2, 0, 0]),
    np.array([0, np.pi / 2, 0]), np.array([0, -np.pi / 2, 0]),
    np.array([np.pi, 0, 0]), np.array([0, np.pi, 0]),
    np.array([np.pi / 4, np.pi / 4, 0]), np.array([-np.pi / 4, 0, np.pi / 4]),
]


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

MIN_TRIANGULATION_ANGLE_DEG = 0.1


def triangulate_linear(observations):
    """`triangulate_batch` of one point seen by (CameraModel, pixel) pairs;
    returns the point or None for parallel/degenerate ray bundles."""
    if len(observations) < 2:
        return None
    cams = [cam for cam, _ in observations]
    pixels = np.asarray([px for _, px in observations], dtype=float)
    X, ok = triangulate_batch(cams, pixels[None], np.ones((1, len(cams)), bool))
    return X[0] if ok[0] else None


def triangulate_batch(cameras, pixels, visible):
    """Linear (DLT) triangulation of many points at once.

    Pixels are normalized by each camera's K^-1, so each view gives two rows
    against its [R | t]; the homogeneous point is the null vector of these
    rows A: the eigenvector of the 4x4 A^T A with the smallest eigenvalue,
    corrected to first order so that it is as accurate as A's SVD.

    Every quantity is held with the points along its last axis, and the
    eigenvectors come from four sweeps of cyclic Jacobi rotations
    (`_jacobi_eigh`) written as elementwise numpy over all points at once,
    so no LAPACK call is made per point; `np.linalg.eigh` of the (N, 4, 4)
    Grams would make one per point.

    Parameters
    ----------
    cameras : sequence of K CameraModel
    pixels : (N, K, 2) pixel of each point in each camera; entries of
        invisible views are ignored (they may be NaN)
    visible : (N, K) bool, which views see each point

    Returns
    -------
    (points (N, 3) global mm, ok (N,) bool). A point is rejected (ok False,
    coordinates NaN) when fewer than two views see it, when no pair of its
    rays subtends MIN_TRIANGULATION_ANGLE_DEG, or when its DLT solution lies
    at infinity.
    """
    visible = np.asarray(visible, dtype=bool)
    n, k = visible.shape
    X = np.full((n, 3), np.nan)
    ok = np.zeros(n, bool)
    # only the N' points that two views see can pass; below, (K, N') rows
    seen = np.flatnonzero(visible.sum(axis=1) >= 2)
    vis = visible[seen].T
    u, v = np.asarray(pixels, dtype=float).reshape(n, k, 2)[seen].T
    # normalized image coordinates m = K^-1 (u, v, 1); invisible views -> 0
    h = (np.where(vis, u, 0.0), np.where(vis, v, 0.0), vis.astype(float))
    calib_inv = np.linalg.inv(np.stack([cam.calibration
                                        for cam in cameras]))[..., None]
    m = [calib_inv[:, i, 0] * h[0] + calib_inv[:, i, 1] * h[1]
         + calib_inv[:, i, 2] * h[2] for i in range(3)]

    # unit ray directions R^T m in the global frame; one angle check for
    # every pair k < l of views
    rot = np.stack([cam.pose_global.rotation for cam in cameras])[..., None]
    d = [rot[:, 0, i] * m[0] + rot[:, 1, i] * m[1] + rot[:, 2, i] * m[2]
         for i in range(3)]
    norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    d = [c / np.where(norm > 0.0, norm, 1.0) for c in d]
    first, second = np.triu_indices(k, 1)
    cos = (d[0][first] * d[0][second] + d[1][first] * d[1][second]
           + d[2][first] * d[2][second])
    wide = (vis[first] & vis[second]
            & (np.degrees(np.arccos(np.minimum(np.abs(cos), 1.0)))
               >= MIN_TRIANGULATION_ANGLE_DEG))
    # the DLT only for the points that pass; each point's problem is its own
    passed = wide.any(axis=0)
    use = seen[passed]
    m = [c[:, passed] for c in m]
    del h, d, norm, cos, wide           # freed before the DLT allocates

    # two rows per view of K^-1 P = [R | t], zero rows for invisible views
    # (null space unchanged): A[2 k] and A[2 k + 1] (4, N') are view k's
    P = np.concatenate([rot, np.stack([cam.pose_global.translation
                                       for cam in cameras])[:, :, None, None]],
                       axis=2)                               # (K, 3, 4, 1)
    mx, my, mz = (c[:, None] for c in m)                     # (K, 1, N')
    A = np.stack([mx * P[:, 2] - mz * P[:, 0], my * P[:, 2] - mz * P[:, 1]],
                 axis=1).reshape(2 * k, 4, len(use))
    # the null vector of A: the eigenvector of A^T A with the smallest
    # eigenvalue, V[0] once sorted first. A^T A squares the condition of A,
    # so V[0] is corrected to first order in G = B^T B, B = A V, whose
    # entries carry A's own rounding: G[0, j] / (G[j, j] - G[0, 0]) of
    # eigenvector j comes off, as one Jacobi sweep on V[0] would take it.
    # Sums over the rows of A add them in order (`sum`, not np.sum, which
    # may add pairwise when N' = 1), so a point gets the same bits alone
    # as in a batch.
    w, V = _jacobi_eigh(sum(a[_GRAM_ROW] * a[_GRAM_COL] for a in A))
    order = (np.argmin(w, axis=0) + np.arange(4)[:, None]) % 4
    V = np.take_along_axis(V, order[:, None], axis=0)
    B = (A[:, 0, None] * V[:, 0] + A[:, 1, None] * V[:, 1]
         + A[:, 2, None] * V[:, 2] + A[:, 3, None] * V[:, 3])  # (2K, 4, N')
    # per point: B_0 . B_j for j = 0..3, then B_j . B_j for j = 1..3
    G = sum(np.concatenate([b[:1] * b, b[1:] * b[1:]]) for b in B)
    couple, gap = G[1:4], G[4:] - G[0]
    theta = np.where(gap > 0.0, couple / np.where(gap > 0.0, gap, 1.0), 0.0)
    Xh = V[0] - (theta[0] * V[1] + theta[1] * V[2] + theta[2] * V[3])
    finite = np.abs(Xh[3]) >= 1e-14
    ok[use[finite]] = True
    X[use[finite]] = (Xh[:3, finite] / Xh[3, finite]).T
    return X, ok


# the Gram entries a00 a11 a22 a33 a01 a02 a03 a12 a13 a23, in the order
# `_jacobi_eigh` takes them
_GRAM_ROW = [0, 1, 2, 3, 0, 0, 0, 1, 1, 2]
_GRAM_COL = [0, 1, 2, 3, 1, 2, 3, 2, 3, 3]
_JACOBI_SWEEPS = 4
_TINY = np.finfo(float).tiny


def _jacobi_eigh(gram):
    """Eigenvalues and eigenvectors of N symmetric 4x4 matrices by cyclic
    Jacobi (Golub & Van Loan, Matrix Computations, 8.5).

    gram is (10, N): the entries a00 a11 a22 a33 a01 a02 a03 a12 a13 a23
    of every matrix (`_GRAM_ROW`, `_GRAM_COL`). Each entry is one (N,) row,
    so each rotation is a few elementwise numpy calls over all N matrices.
    A sweep rotates the pairs (0,1), (2,3), (0,2), (1,3), (0,3), (1,2); the
    two pairs of each step are disjoint, so their rotations commute and run
    as one call on both.
    Rotation (p, q) has the tangent t = 2 a_pq sgn(d) / (|d| + hypot(d,
    2 a_pq)), d = a_qq - a_pp, which cannot overflow; t = 0 where
    d = a_pq = 0. The hypot is taken as sqrt(d^2 + 4 a_pq^2), finite for
    entries below 1e154, as np.hypot costs about 20 times more per element.

    Returns (w (4, N) eigenvalues, V (4, 4, N) with V[j] the unit
    eigenvector of w[j]), in no particular order.
    """
    n = gram.shape[1]
    w, o = gram[:4].copy(), gram[4:].copy()       # diagonal, off-diagonal
    V = np.repeat(np.eye(4)[:, :, None], n, axis=2)
    # per step, views of: (a_pp, a_qq, a_pq) of both pairs (p1, q1),
    # (p2, q2); the cross block X = [[a_p1p2, a_p1q2], [a_q1p2, a_q1q2]];
    # the eigenvectors v_p and v_q of both pairs
    steps = [(w[0::2], w[1::2], o[0::5], o[1:5].reshape(2, 2, n),
              V[0::2], V[1::2]),
             (w[0:2], w[2:4], o[1:5:3], o.reshape(2, 3, n)[:, 0::2],
              V[0:2], V[2:4]),
             (w[0:2], w[3:1:-1], o[2:4], o.reshape(3, 2, n)[0::2],
              V[0:2], V[3:1:-1])]
    z = np.empty((2, 2, n))
    zp, zq = np.empty((2, 4, n)), np.empty((2, 4, n))
    for _ in range(_JACOBI_SWEEPS):
        for app, aqq, apq, X, vp, vq in steps:
            d = aqq - app
            a2 = apq + apq
            # _TINY keeps the denominator nonzero where d = a_pq = 0
            t = a2 / (d + np.copysign(np.sqrt(d * d + a2 * a2 + _TINY), d))
            c = 1.0 / np.sqrt(1.0 + t * t)        # cos
            ta = t * apq
            app -= ta
            aqq += ta
            apq[...] = 0.0
            # X <- J1^T X J2 for the rotations J1, J2 of the two pairs: rows
            # by the first, then columns by the second
            _rotate(X, t[0], c[0], z)
            _rotate(X.transpose(1, 0, 2), t[1], c[1], z.transpose(1, 0, 2))
            t, c = t[:, None], c[:, None]
            np.multiply(vq, t, out=zp)
            np.multiply(vp, t, out=zq)
            vp -= zp
            vq += zq
            vp *= c
            vq *= c
    return w, V


def _rotate(x, t, c, z):
    """x[0], x[1] <- c (x[0] - t x[1]), c (x[1] + t x[0]) in place: the
    rotation with tangent t and cosine c. z is a work array of x's shape."""
    np.multiply(x, t, out=z)
    np.subtract(x[0], z[1], out=x[0])
    np.add(x[1], z[0], out=x[1])
    x *= c


# ---------------------------------------------------------------------------
# Camera records
# ---------------------------------------------------------------------------

def camera_to_dict(cam: CameraModel) -> dict:
    d = {
        "id": int(cam.id),
        "K": [float(v) for v in cam.calibration.ravel()],
        "R": [float(v) for v in cam.pose_global.rotation.ravel()],
        "t": [float(v) for v in cam.pose_global.translation],
    }
    if cam.image_size is not None:
        d["image_size"] = [int(cam.image_size[0]), int(cam.image_size[1])]
    return d


def camera_from_dict(d: dict) -> CameraModel:
    check_object(d, ("id", "K", "R", "t"), ("image_size",), "camera record")
    if not is_int(d["id"]):
        raise SchemaError(f"camera field 'id' must be an integer, got {d['id']!r}")
    K, R, t = (numbers(d[key], (n,), f"camera field '{key}'")
               for key, n in (("K", 9), ("R", 9), ("t", 3)))
    K = K.reshape(3, 3)
    if np.linalg.matrix_rank(K) < 3:
        raise SchemaError(f"camera {d['id']}: calibration 'K' is singular")
    size = d.get("image_size")
    if size is not None and not (isinstance(size, list) and len(size) == 2
                                 and all(is_int(v) and v > 0 for v in size)):
        raise SchemaError("camera field 'image_size' must be 2 positive integers")
    return CameraModel(K, RigidTransform(R.reshape(3, 3), t), id=d["id"],
                       image_size=tuple(size) if size is not None else None)


def save_cameras(cams, path):
    with open(path, "w") as f:
        json.dump([camera_to_dict(c) for c in cams], f, indent=1, sort_keys=True)


def load_cameras(path):
    data = read_json(path, "camera")
    if not isinstance(data, list):
        raise SchemaError("camera file must be a JSON list of camera records")
    return [camera_from_dict(d) for d in data]
