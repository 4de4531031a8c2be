"""Homogeneous projective geometry: projection, decomposition, rigid-transform
algebra, spatial resection, and triangulation.

Conventions
-----------
* World/model coordinates are millimeters, image coordinates pixels.
* A camera maps global points through ``x ~ K [I|0] H`` where ``H`` is the
  rigid transform from global to camera coordinates.
* Rotations are exchanged with 3-vector axis-angle (Rodrigues) encodings;
  the canonical branch keeps the angle in ``[0, pi]`` and, at exactly pi,
  picks the axis whose first nonzero component is positive.

All values are immutable after construction and every function is pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NonPositiveDepth,
    ParallelRays,
    SchemaError,
    SingularCamera,
    numbers,
    read_json,
)

EPS_DEPTH = 1e-9  # mm; depths at or below this are rejected
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

    Angle lies in [0, pi]; at pi the axis sign is fixed so its first nonzero
    component is positive (deterministic serialization).
    """
    R = np.asarray(R, dtype=float)
    tr = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(tr)[..., None]
    v = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    small = theta < 1e-7
    near_pi = ~small & (np.pi - theta < 1e-6)
    general = np.where(small | near_pi, 1.0, theta)
    out = np.where(small, 0.5 * v, (general / (2.0 * np.sin(general))) * v)

    # near pi the skew part vanishes; recover the axis from R + I: its
    # largest component k is positive, the others take the signs of row k
    A = (R + np.eye(3)) / 2.0
    axis = np.sqrt(np.clip(np.diagonal(A, axis1=-2, axis2=-1), 0.0, None))
    k = np.argmax(axis, axis=-1)[..., None]
    row = np.take_along_axis(A, k[..., None], axis=-2)[..., 0, :]
    axis = axis * np.where((np.arange(3) == k) | (row >= 0), 1.0, -1.0)
    axis = axis / np.sqrt(np.vecdot(axis, axis))[..., None]
    # canonical sign at the branch boundary
    first = np.argmax(np.abs(axis) > 1e-12, axis=-1)[..., None]
    axis = np.where(np.take_along_axis(axis, first, axis=-1) < 0, -axis, axis)
    return np.where(near_pi, theta * axis, out)


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


def _skew_many(a):
    """Cross-product matrices [a]x for (..., 3) vectors: (..., 3, 3)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    z = np.zeros_like(a0)
    return np.stack([z, -a2, a1, a2, z, -a0, -a1, a0, z],
                    axis=-1).reshape(a.shape[:-1] + (3, 3))


def rotation_derivatives(rv):
    """Rotation matrices and their derivatives for stacked axis-angle vectors.

    Returns (R (N, 3, 3), dR (N, 3, 3, 3)) with dR[n, i] = dR(r_n)/dr_i, by
    the closed form dR/dr_i = (r_i [r]x + [r x (I - R) e_i]x) R / |r|^2
    (Gallego & Yezzi, J. Math. Imaging Vis. 2015). Below |r|^2 = 1e-16 the
    exact r -> 0 limit [e_i]x R is used.
    """
    rv = np.asarray(rv, dtype=float).reshape(-1, 3)
    R = rodrigues_to_matrix(rv)
    theta2 = np.einsum("ni,ni->n", rv, rv)
    small = theta2 < 1e-16
    # rows: r x (I - R) e_i for each i
    u = np.cross(rv[:, None, :], (np.eye(3) - R).transpose(0, 2, 1))
    M = rv[:, :, None, None] * _skew_many(rv)[:, None] + _skew_many(u)
    M = np.where(small[:, None, None, None], _skew_many(np.eye(3)),
                 M / np.where(small, 1.0, theta2)[:, None, None, None])
    return R, M @ R[:, None]


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
    return np.einsum("nijk,nk->nji", rotation_derivatives(rv)[1],
                     np.asarray(pts, dtype=float))


# ---------------------------------------------------------------------------
# Rigid transforms and pose vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidTransform:
    """6-DoF rigid transform: x -> R x + t (t in mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.array(self.rotation, dtype=float))
        object.__setattr__(self, "translation",
                           np.array(self.translation, dtype=float).reshape(3))
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)

    @staticmethod
    def identity():
        return RigidTransform(np.eye(3), np.zeros(3))

    def matrix(self):
        """4x4 homogeneous matrix."""
        H = np.eye(4)
        H[:3, :3] = self.rotation
        H[:3, 3] = self.translation
        return H


@dataclass(frozen=True)
class PoseVector:
    """One pose's six parameters: Rodrigues rotation vector plus translation
    (mm). Pose tracks are (T, 6) arrays with the same layout per row."""

    rodrigues: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rodrigues",
                           np.array(self.rodrigues, dtype=float).reshape(3))
        object.__setattr__(self, "translation",
                           np.array(self.translation, dtype=float).reshape(3))
        self.rodrigues.setflags(write=False)
        self.translation.setflags(write=False)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equal to applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    return RigidTransform(t.rotation.T, -t.rotation.T @ t.translation)


def apply(t: RigidTransform, x):
    """Map one point (3,) or many points (N, 3) through the transform."""
    x = np.asarray(x, dtype=float)
    return x @ t.rotation.T + t.translation


def pose_to_transform(p: PoseVector) -> RigidTransform:
    return RigidTransform(rodrigues_to_matrix(p.rodrigues), p.translation)


def transform_to_pose(t: RigidTransform) -> PoseVector:
    return PoseVector(matrix_to_rodrigues(t.rotation), t.translation)


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


def project(camera: CameraModel, point):
    """Project one global 3D point (mm) to pixels.

    Raises NonPositiveDepth when the point sits on or behind the camera's
    principal plane (depth <= EPS_DEPTH).
    """
    pc = apply(camera.pose_global, np.asarray(point, dtype=float))
    if pc[2] <= EPS_DEPTH:
        raise NonPositiveDepth(f"depth {pc[2]:.3g} mm <= {EPS_DEPTH} mm")
    q = camera.calibration @ pc
    return q[:2] / q[2]


def project_many(camera: CameraModel, points):
    """Project (N, 3) points; returns ((N, 2) pixels, (N,) depths).

    Does not raise on bad depth; callers filter on the returned depths.
    """
    pts = np.asarray(points, dtype=float)
    pc = apply(camera.pose_global, pts)
    q = pc @ camera.calibration.T
    depth = pc[:, 2]
    safe = np.where(np.abs(q[:, 2]) > EPS_DEPTH, q[:, 2], 1.0)
    return q[:, :2] / safe[:, None], depth


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

def _hartley_normalization_2d(x):
    c = x.mean(axis=0)
    d = np.sqrt(((x - c) ** 2).sum(axis=1)).mean()
    s = np.sqrt(2.0) / max(d, 1e-12)
    T = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1.0]])
    return T


def _hartley_normalization_3d(X):
    c = X.mean(axis=0)
    d = np.sqrt(((X - c) ** 2).sum(axis=1)).mean()
    s = np.sqrt(3.0) / max(d, 1e-12)
    U = np.eye(4)
    U[:3, :3] *= s
    U[:3, 3] = -s * c
    return U


def _dlt_projection(X, x):
    """Linear 11-parameter camera fit with Hartley isotropic normalization."""
    T = _hartley_normalization_2d(x)
    U = _hartley_normalization_3d(X)
    Xh = np.hstack([X, np.ones((len(X), 1))]) @ U.T
    xh = np.hstack([x, np.ones((len(x), 1))]) @ T.T
    A = []
    for Xi, xi in zip(Xh, xh):
        u, v = xi[0], xi[1]
        A.append(np.concatenate([np.zeros(4), -Xi, v * Xi]))
        A.append(np.concatenate([Xi, np.zeros(4), -u * Xi]))
    A = np.asarray(A)
    _, _, Vt = np.linalg.svd(A)
    Pn = Vt[-1].reshape(3, 4)
    P = np.linalg.inv(T) @ Pn @ U
    return P / np.linalg.norm(P)


def _coplanarity_score(X):
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    return s[-1] / max(s[0], 1e-12)


def _reprojection_residuals(params, K, X, x):
    R = rodrigues_to_matrix(params[:3])
    t = params[3:6]
    pc = X @ R.T + t
    z = np.where(np.abs(pc[:, 2]) > EPS_DEPTH, pc[:, 2], EPS_DEPTH)
    q = pc @ K.T
    proj = q[:, :2] / z[:, None]
    return (proj - x).ravel()


def _refine_pose(K, X, x, r0, t0):
    import scipy.optimize   # slow to import; only the refinements use it
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
        configurations allowed) via direct reprojection minimization.

    Returns
    -------
    (CameraModel, mean reprojection error in px)
    """
    X = np.asarray([c[0] for c in correspondences], dtype=float)
    x = np.asarray([c[1] for c in correspondences], dtype=float)
    n = len(X)

    if known_K is None:
        if n < 6:
            raise InsufficientPoints(f"DLT with unknown K needs >= 6 points, got {n}")
        if _coplanarity_score(X) < 1e-8:
            raise DegenerateConfiguration("points are coplanar; unknown-K DLT is degenerate")
        P = _dlt_projection(X, x)
        cam = decompose_projection(P)
        # check cheirality; flip if the DLT solution put points behind the camera
        pc = apply(cam.pose_global, X)
        if np.median(pc[:, 2]) < 0:
            cam = decompose_projection(-P)
        K = cam.calibration
        r0 = matrix_to_rodrigues(cam.pose_global.rotation)
        t0 = cam.pose_global.translation
        r, t, fun = _refine_pose(K, X, x, r0, t0)
    else:
        K = np.asarray(known_K, dtype=float)
        if n < 4:
            raise InsufficientPoints(f"known-K resection needs >= 4 points, got {n}")
        r, t, fun = _resect_known_k(K, X, x)

    cam = CameraModel(K / K[2, 2], RigidTransform(rodrigues_to_matrix(r), t))
    mean_err = float(np.sqrt((fun.reshape(-1, 2) ** 2).sum(axis=1)).mean())
    return cam, mean_err


def _resect_known_k(K, X, x):
    """Known-calibration pose: DLT start when possible, else multi-start LM."""
    starts = []
    if len(X) >= 6 and _coplanarity_score(X) >= 1e-8:
        try:
            cam = decompose_projection(_dlt_projection(X, x))
            starts.append((matrix_to_rodrigues(cam.pose_global.rotation),
                           cam.pose_global.translation))
        except SingularCamera:
            pass
    # deterministic coarse starts: axis-aligned viewing directions at a
    # depth guessed from the point spread
    centroid = X.mean(axis=0)
    spread = max(np.linalg.norm(X - centroid, axis=1).max(), 1.0)
    f = 0.5 * (K[0, 0] + K[1, 1])
    px_spread = max(np.linalg.norm(x - x.mean(axis=0), axis=1).max(), 1.0)
    depth = f * spread / px_spread
    for rv in _COARSE_ROTATIONS:
        R = rodrigues_to_matrix(rv)
        t = np.array([0.0, 0.0, depth]) - R @ centroid
        starts.append((rv, t))

    best = None
    for r0, t0 in starts:
        try:
            r, t, fun = _refine_pose(K, X, x, np.asarray(r0, float), np.asarray(t0, float))
        except Exception:
            continue
        cost = float(fun @ fun)
        pc = X @ rodrigues_to_matrix(r).T + t
        if np.min(pc[:, 2]) <= 0:
            cost += 1e12  # reject mirror solutions behind the camera
        if best is None or cost < best[0]:
            best = (cost, r, t, fun)
    if best is None:
        raise DegenerateConfiguration("known-K resection failed from every start")
    return best[1], best[2], best[3]


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


def triangulate(observations):
    """Intersect viewing rays from >= 2 cameras.

    Parameters
    ----------
    observations : sequence of (CameraModel, 2-vector pixel)

    Returns
    -------
    (3-vector global mm, per-camera residual array in px)

    Raises ParallelRays when fewer than two cameras are given, when every
    ray pair subtends less than 0.1 degrees, or when the linear solution
    lies at infinity.
    """
    if len(observations) < 2:
        raise ParallelRays(f"triangulation needs >= 2 cameras, got {len(observations)}")
    X0 = triangulate_linear(observations)
    if X0 is None:
        raise ParallelRays(f"no ray pair subtends {MIN_TRIANGULATION_ANGLE_DEG} "
                           f"deg, or the point lies at infinity")

    def residuals(X):
        out = []
        for cam, px in observations:
            pc = apply(cam.pose_global, X)
            z = pc[2] if abs(pc[2]) > EPS_DEPTH else EPS_DEPTH
            q = cam.calibration @ pc
            out.extend(q[:2] / z - px)
        return np.asarray(out)

    import scipy.optimize   # slow to import; only the refinements use it
    res = scipy.optimize.least_squares(residuals, X0, method="lm",
                                       xtol=1e-14, ftol=1e-14, gtol=1e-14)
    per_cam = np.sqrt((res.fun.reshape(-1, 2) ** 2).sum(axis=1))
    return res.x, per_cam


def triangulate_linear(observations, min_angle_deg=MIN_TRIANGULATION_ANGLE_DEG):
    """DLT-only triangulation (no iterative refinement) of one point; returns
    the point or None for parallel/degenerate ray bundles."""
    if len(observations) < 2:
        return None
    cams = [cam for cam, _ in observations]
    pixels = np.asarray([px for _, px in observations], dtype=float)
    X, ok = triangulate_batch(cams, pixels[None], np.ones((1, len(cams)), bool),
                              min_angle_deg)
    return X[0] if ok[0] else None


def triangulate_batch(cameras, pixels, visible,
                      min_angle_deg=MIN_TRIANGULATION_ANGLE_DEG):
    """Linear (DLT) triangulation of many points at once.

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
    rays subtends min_angle_deg, or when its DLT solution lies at infinity.
    """
    visible = np.asarray(visible, dtype=bool)
    n, k = visible.shape
    calib = np.stack([cam.calibration for cam in cameras])
    rot = np.stack([cam.pose_global.rotation for cam in cameras])
    # normalized image coordinates m = K^-1 (u, v, 1); invisible views -> 0
    h = np.concatenate([np.asarray(pixels, dtype=float).reshape(n, k, 2),
                        np.ones((n, k, 1))], axis=2)
    h = np.where(visible[:, :, None], h, 0.0)
    m = np.linalg.solve(calib[None], h[..., None])[..., 0]       # (N, K, 3)

    # ray directions in the global frame; one angle check for all pairs
    d = np.einsum("kji,nkj->nki", rot, m)
    norm = np.linalg.norm(d, axis=2, keepdims=True)
    d = d / np.where(norm > 0.0, norm, 1.0)
    cos = np.clip(np.abs(np.einsum("nki,nli->nkl", d, d)), -1.0, 1.0)
    pairs = (visible[:, :, None] & visible[:, None, :]
             & np.triu(np.ones((k, k), bool), 1))
    wide = pairs & (np.degrees(np.arccos(cos)) >= min_angle_deg)
    ok = wide.any(axis=(1, 2))

    # two rows per view, zero rows for invisible views (null space unchanged)
    P = np.linalg.solve(calib, np.stack([cam.projection_matrix()
                                         for cam in cameras]))  # (K, 3, 4)
    A = np.stack([m[:, :, 0:1] * P[None, :, 2] - m[:, :, 2:3] * P[None, :, 0],
                  m[:, :, 1:2] * P[None, :, 2] - m[:, :, 2:3] * P[None, :, 1]],
                 axis=2).reshape(n, 2 * k, 4)
    _, _, Vt = np.linalg.svd(A)
    Xh = Vt[:, -1]
    ok &= np.abs(Xh[:, 3]) >= 1e-14
    X = np.full((n, 3), np.nan)
    X[ok] = Xh[ok, :3] / Xh[ok, 3:]
    return X, ok


# ---------------------------------------------------------------------------
# Camera and pose records
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


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def camera_from_dict(d: dict) -> CameraModel:
    if not isinstance(d, dict):
        raise SchemaError("camera records must be JSON objects")
    for key in ("id", "K", "R", "t"):
        if key not in d:
            raise SchemaError(f"camera record missing field '{key}'")
    if not _is_int(d["id"]):
        raise SchemaError(f"camera field 'id' must be an integer, got {d['id']!r}")
    K, R, t = (numbers(d[key], (n,), f"camera field '{key}'")
               for key, n in (("K", 9), ("R", 9), ("t", 3)))
    K = K.reshape(3, 3)
    if np.linalg.matrix_rank(K) < 3:
        raise SchemaError(f"camera {d['id']}: calibration 'K' is singular")
    size = d.get("image_size")
    if size is not None and not (isinstance(size, list) and len(size) == 2
                                 and all(_is_int(v) and v > 0 for v in size)):
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


def pose_table(records):
    """(T, 6) pose parameters (Rodrigues vector, translation in mm) from
    pose records whose `t` values are exactly 0..T-1, in any order."""
    if not isinstance(records, list):
        raise SchemaError("poses must be a JSON list of pose records")
    table = np.zeros((len(records), 6))
    seen = np.zeros(len(records), dtype=bool)
    for rec in records:
        if not isinstance(rec, dict):
            raise SchemaError("pose records must be JSON objects")
        for key in ("t", "rodrigues", "translation_mm"):
            if key not in rec:
                raise SchemaError(f"pose record missing field '{key}'")
        t = rec["t"]
        if not _is_int(t):
            raise SchemaError(f"pose field 't' must be an integer, got {t!r}")
        if not 0 <= t < len(records):
            raise SchemaError(f"pose t = {t} outside 0..{len(records) - 1}")
        if seen[t]:
            raise SchemaError(f"duplicate pose t = {t}")
        seen[t] = True
        table[t] = np.concatenate([numbers(rec[key], (3,), f"pose t = {t}: '{key}'")
                                   for key in ("rodrigues", "translation_mm")])
    return table
