import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mousetrack3d import geometry, simulator
from mousetrack3d.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NonPositiveDepth,
    SchemaError,
    SingularCamera,
    fields,
)
from mousetrack3d.geometry import (
    CameraModel,
    RigidTransform,
    apply,
    decompose_projection,
    matrix_to_rodrigues,
    project,
    project_many,
    resect,
    rodrigues_to_matrix,
    triangulate_batch,
    triangulate_linear,
)


# derandomized, as in test_loader_fuzz.py
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


def random_rotation(rng):
    r = rng.normal(size=3)
    r = r / np.linalg.norm(r) * rng.uniform(0, np.pi - 0.1)
    return rodrigues_to_matrix(r)


def random_camera(rng):
    f = rng.uniform(500, 2000)
    K = np.array([[f, 0, rng.uniform(200, 800)],
                  [0, f * rng.uniform(0.9, 1.1), rng.uniform(200, 800)],
                  [0, 0, 1.0]])
    return CameraModel(K, RigidTransform(random_rotation(rng),
                                         rng.normal(scale=100, size=3)))


# -- projection ---------------------------------------------------------------

def test_project_on_optical_axis():
    K = np.diag([1000.0, 1000.0, 1.0])
    cam = CameraModel(K, RigidTransform(np.eye(3), np.zeros(3)))
    assert np.allclose(project(cam, [0.0, 0.0, 1000.0]), [0.0, 0.0])


def test_project_similar_triangles():
    K = np.diag([1000.0, 1000.0, 1.0])
    cam = CameraModel(K, RigidTransform(np.eye(3), np.zeros(3)))
    assert np.allclose(project(cam, [100.0, 0.0, 1000.0]), [100.0, 0.0])


def test_project_rejects_nonpositive_depth():
    cam = CameraModel(np.eye(3), RigidTransform(np.eye(3), np.zeros(3)))
    with pytest.raises(NonPositiveDepth):
        project(cam, [0.0, 0.0, -5.0])
    with pytest.raises(NonPositiveDepth):
        project(cam, [1.0, 1.0, 0.0])


def test_project_scale_invariant():
    # project with P and lambda*P agree exactly
    rng = np.random.default_rng(11)
    cam = random_camera(rng)
    P = cam.projection_matrix()
    for lam in (2.5, 17.0):
        cam2 = decompose_projection(lam * P)
        for _ in range(20):
            X = rng.normal(scale=50, size=3)
            Xc = apply(cam.pose_global, X)
            if Xc[2] <= 0:
                continue
            assert np.allclose(project(cam, X), project(cam2, X), atol=1e-9)


def test_project_matches_ray_oracle():
    # independent check: the projected pixel's viewing ray passes through
    # the 3D point (straight-line ray intersection)
    rng = np.random.default_rng(4)
    for _ in range(50):
        cam = random_camera(rng)
        X = cam.center() + cam.pose_global.rotation.T @ np.array(
            [rng.normal(scale=30), rng.normal(scale=30), rng.uniform(100, 800)])
        px = project(cam, X)
        d = cam.pose_global.rotation.T @ np.linalg.solve(
            cam.calibration, np.array([px[0], px[1], 1.0]))
        d /= np.linalg.norm(d)
        to_point = X - cam.center()
        cross = np.linalg.norm(np.cross(d, to_point))
        assert cross / np.linalg.norm(to_point) < 1e-9


# -- decomposition ------------------------------------------------------------

def test_decompose_identity_projection():
    cam = decompose_projection(np.hstack([np.eye(3), np.zeros((3, 1))]))
    assert np.allclose(cam.calibration, np.eye(3), atol=1e-12)
    assert np.allclose(cam.pose_global.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(cam.pose_global.translation, 0.0, atol=1e-12)


def test_decompose_known_factors():
    K = np.diag([1200.0, 1200.0, 1.0])
    R = rodrigues_to_matrix(np.array([0.0, 0.0, np.pi / 2]))
    t = np.array([10.0, 20.0, 30.0])
    P = K @ np.hstack([R, t[:, None]])
    cam = decompose_projection(P)
    assert np.allclose(cam.calibration, K, atol=1e-9)
    assert np.allclose(cam.pose_global.rotation, R, atol=1e-12)
    assert np.allclose(cam.pose_global.translation, t, atol=1e-9)


def test_decompose_negative_scale():
    rng = np.random.default_rng(7)
    cam = random_camera(rng)
    P = cam.projection_matrix()
    a = decompose_projection(P)
    b = decompose_projection(-5.0 * P)
    assert np.allclose(a.calibration, b.calibration, atol=1e-9)
    assert np.allclose(a.pose_global.rotation, b.pose_global.rotation, atol=1e-12)
    assert np.allclose(a.pose_global.translation, b.pose_global.translation, atol=1e-9)


def test_decompose_reassemble_roundtrip_many():
    rng = np.random.default_rng(21)
    for _ in range(200):
        cam = random_camera(rng)
        P = cam.projection_matrix()
        Pref = cam.projection_matrix()
        cam2 = decompose_projection(Pref * rng.choice([-3.0, 0.5, 7.0]))
        P2 = cam2.projection_matrix()
        # reassembly recovers the original matrix up to positive scale
        s = np.sum(P2 * Pref) / np.sum(Pref * Pref)
        assert s > 0
        assert np.allclose(P2, s * Pref, atol=1e-9 * np.abs(P2).max())
        K = cam2.calibration
        assert K[2, 2] == pytest.approx(1.0)
        assert np.all(np.diag(K) > 0)
        R = cam2.pose_global.rotation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_decompose_singular_raises():
    P = np.zeros((3, 4))
    P[0, 0] = P[1, 1] = 1.0  # rank-2 left block
    with pytest.raises(SingularCamera):
        decompose_projection(P)


# -- rigid transforms ---------------------------------------------------------

def test_rigid_transform_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
        R = T.rotation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


# -- Rodrigues ----------------------------------------------------------------

def test_zero_rodrigues_is_identity():
    assert np.allclose(rodrigues_to_matrix(np.zeros(3)), np.eye(3))


def test_quarter_turn_about_z():
    R = rodrigues_to_matrix(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                       atol=1e-12)


def test_pose_roundtrip_1000():
    rng = np.random.default_rng(12)
    poses = np.empty((1000, 6))
    for p in poses:
        r = rng.normal(size=3)
        p[:3] = r / np.linalg.norm(r) * rng.uniform(1e-6, np.pi - 1e-6)
        p[3:] = rng.normal(scale=50, size=3)
    r = matrix_to_rodrigues(rodrigues_to_matrix(poses[:, :3]))
    assert np.allclose(r, poses[:, :3], rtol=0, atol=1e-10)


def test_rodrigues_small_angles():
    rng = np.random.default_rng(13)
    for _ in range(100):
        r = rng.normal(size=3) * 1e-9
        R = rodrigues_to_matrix(r)
        assert np.allclose(matrix_to_rodrigues(R), r, atol=1e-15)


def test_rodrigues_near_pi():
    rng = np.random.default_rng(14)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = axis * (np.pi - 1e-9)
        R = rodrigues_to_matrix(r)
        r2 = matrix_to_rodrigues(R)
        # same rotation, canonical branch
        assert np.allclose(rodrigues_to_matrix(r2), R, atol=1e-6)


@pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-6])
def test_matrix_to_rodrigues_near_pi(gap):
    # angles just below pi, where the skew part 2 sin(theta) a is small
    rng = np.random.default_rng(15)
    axes = rng.normal(size=(20000, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    r = (np.pi - gap) * axes
    R = rodrigues_to_matrix(r)
    r2 = matrix_to_rodrigues(R)
    assert np.abs(r2 - r).max() <= 1e-13
    assert np.abs(rodrigues_to_matrix(r2) - R).max() <= 1e-13


def _stack_cases():
    """Rotation vectors covering the first-order branch (|r| < 1e-12),
    general angles and angles at and just below pi."""
    rng = np.random.default_rng(16)
    axes = rng.normal(size=(60, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([[0.0], rng.uniform(0, 1e-12, 9),
                             rng.uniform(1e-6, np.pi - 1e-3, 20),
                             np.pi - rng.uniform(0, 1e-6, 20), np.full(10, np.pi)])
    return axes * angles[:, None]


def test_stacked_rodrigues_equal_per_item_bitwise():
    r = _stack_cases()
    R = rodrigues_to_matrix(r)
    assert np.array_equal(R, np.stack([rodrigues_to_matrix(v) for v in r]))
    assert np.array_equal(rodrigues_to_matrix(r.reshape(6, 10, 3)),
                          R.reshape(6, 10, 3, 3))
    v = matrix_to_rodrigues(R)
    assert np.array_equal(v, np.stack([matrix_to_rodrigues(M) for M in R]))
    assert np.array_equal(matrix_to_rodrigues(R.reshape(6, 10, 3, 3)),
                          v.reshape(6, 10, 3))


def test_matrix_to_rodrigues_canonical_sign_at_pi():
    for R in (np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
              np.diag([-1.0, -1.0, 1.0])):
        r = matrix_to_rodrigues(R)
        assert np.isclose(np.linalg.norm(r), np.pi)
        assert r[np.flatnonzero(np.abs(r) > 1e-12)[0]] > 0
    r = matrix_to_rodrigues(rodrigues_to_matrix(np.array([0.0, -np.pi, 0.0])))
    assert np.allclose(r, [0.0, np.pi, 0.0])


def test_branch_scale_picks_nearest_representation():
    rng = np.random.default_rng(17)
    r = rng.normal(size=(200, 3)) * rng.uniform(0.1, 12.0, size=(200, 1))
    ref = rng.normal(scale=6.0, size=(200, 3))
    s = geometry.branch_scale(r, ref)
    theta = np.linalg.norm(r, axis=1, keepdims=True)
    # brute force over the branches theta + 2 pi k, k = -10..10
    cands = ((1 + 2 * np.pi * np.arange(-10, 11)[None, :, None]
              / theta[:, :, None]) * r[:, None, :])
    best = cands[np.arange(200),
                 np.argmin(np.linalg.norm(cands - ref[:, None], axis=2), axis=1)]
    assert np.allclose(s[:, None] * r, best, atol=1e-12)
    assert np.allclose(rodrigues_to_matrix(s[:, None] * r),
                       rodrigues_to_matrix(r), atol=1e-12)
    # small angles and vectors already nearest keep their branch exactly
    assert geometry.branch_scale(np.zeros(3), np.ones(3)) == 1.0
    assert np.all(geometry.branch_scale(ref, ref) == 1.0)


def test_canonical_rodrigues():
    r = _stack_cases()
    below_pi = np.linalg.norm(r, axis=1) < np.pi - 1e-9
    assert np.array_equal(geometry.canonical_rodrigues(r)[below_pi],
                          r[below_pi])
    shifted = r * (1 + 2 * np.pi * np.arange(-2, 4).repeat(10)[:, None]
                   / np.maximum(np.linalg.norm(r, axis=1), 1e-300)[:, None])
    shifted[:10] = r[:10]           # angles below 1e-12 have one branch
    canon = geometry.canonical_rodrigues(shifted)
    assert np.all(np.linalg.norm(canon, axis=1) <= np.pi + 1e-12)
    assert np.allclose(rodrigues_to_matrix(canon), rodrigues_to_matrix(r),
                       atol=1e-9)


def test_rotation_point_jacobian_fd():
    rng = np.random.default_rng(15)
    h = 1e-7
    for _ in range(100):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(1e-3, np.pi - 0.1)
        x = rng.normal(scale=20, size=3)
        J = geometry.rotation_point_jacobians(r[None], x[None])[0]
        Jfd = np.zeros((3, 3))
        for i in range(3):
            rp, rm = r.copy(), r.copy()
            rp[i] += h
            rm[i] -= h
            Jfd[:, i] = (rodrigues_to_matrix(rp) @ x
                         - rodrigues_to_matrix(rm) @ x) / (2 * h)
        assert np.abs(J - Jfd).max() < 1e-6 * max(np.abs(J).max(), 1.0)


def rotation_derivative_fd(r, h):
    out = np.zeros((3, 3, 3))
    for i in range(3):
        rp, rm = r.copy(), r.copy()
        rp[i] += h
        rm[i] -= h
        out[i] = (rodrigues_to_matrix(rp) - rodrigues_to_matrix(rm)) / (2 * h)
    return out


@pytest.mark.parametrize("scale", ["random", "tiny", "near_pi", "beyond_2pi"])
def test_rotation_derivatives_fd(scale):
    rng = np.random.default_rng(16)
    axes = rng.normal(size=(50, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angle = {"random": rng.uniform(1e-3, 3.0, size=50),
             "tiny": rng.uniform(0.0, 1e-9, size=50),
             "near_pi": np.pi + rng.uniform(-1e-6, 1e-6, size=50),
             "beyond_2pi": rng.uniform(2 * np.pi, 30.0, size=50)}[scale]
    rv = axes * angle[:, None]
    dR = geometry.rotation_derivatives(rv, rodrigues_to_matrix(rv))
    assert dR.shape == (50, 3, 3, 3)
    for n in range(50):
        assert np.abs(dR[n] - rotation_derivative_fd(rv[n], 1e-7)).max() < 1e-6
    # the per-point form is the same derivative applied to a point
    x = rng.normal(scale=20, size=(50, 3))
    assert np.allclose(geometry.rotation_point_jacobians(rv, x),
                       np.einsum("nijk,nk->nji", dR, x), rtol=0, atol=1e-12)
    # R taken from one stacked call over two sets of vectors, as
    # `Problem._rotation_derivatives` passes it
    other = rng.normal(size=(50, 3))
    both = np.concatenate([rv, other])
    dR2 = geometry.rotation_derivatives(
        both, rodrigues_to_matrix(np.stack([rv, other])).reshape(-1, 3, 3))
    assert np.array_equal(dR2[:50], dR)
    for n in range(50):
        assert np.abs(dR2[50 + n] - rotation_derivative_fd(other[n], 1e-7)
                      ).max() < 1e-6


# -- resection ----------------------------------------------------------------

def test_resect_exact_recovery():
    rng = np.random.default_rng(8)
    cam = random_camera(rng)
    X = rng.normal(scale=100, size=(8, 3))
    X += cam.pose_global.rotation.T @ np.array([0, 0, 500.0]) + cam.center()
    pts = [(Xi, project(cam, Xi)) for Xi in X]
    rec, err = resect(pts)
    assert err < 1e-8
    assert np.allclose(rec.pose_global.translation,
                       cam.pose_global.translation, atol=1e-6)
    assert np.allclose(rec.pose_global.rotation, cam.pose_global.rotation,
                       atol=1e-8)


def test_resect_noisy_rmse():
    rng = np.random.default_rng(9)
    errs = []
    for _ in range(100):
        cam = random_camera(rng)
        X = rng.normal(scale=150, size=(12, 3))
        X += cam.pose_global.rotation.T @ np.array([0, 0, 800.0]) + cam.center()
        pts = [(Xi, project(cam, Xi) + rng.normal(scale=0.5, size=2))
               for Xi in X]
        _, err = resect(pts)
        errs.append(err)
    assert np.percentile(errs, 95) <= 1.0


def test_resect_too_few_points():
    rng = np.random.default_rng(10)
    cam = random_camera(rng)
    X = rng.normal(scale=100, size=(5, 3)) + cam.center() \
        + cam.pose_global.rotation.T @ np.array([0, 0, 500.0])
    pts = [(Xi, project(cam, Xi)) for Xi in X]
    with pytest.raises(InsufficientPoints):
        resect(pts)


def test_resect_unknown_k_coplanar_points_is_degenerate():
    # eight points on one plane in front of the camera: the DLT cannot
    # separate K from the pose, while a known K still fixes the pose
    rng = np.random.default_rng(11)
    cam = random_camera(rng)
    X = np.column_stack([rng.normal(scale=100, size=(8, 2)), np.zeros(8)])
    X = X @ random_rotation(rng).T
    X += cam.pose_global.rotation.T @ np.array([0, 0, 600.0]) + cam.center()
    pts = [(Xi, project(cam, Xi)) for Xi in X]
    with pytest.raises(DegenerateConfiguration, match="coplanar"):
        resect(pts)
    _, err = resect(pts, known_K=cam.calibration)
    assert err < 1e-6


def test_resect_known_k_four_points():
    rng = np.random.default_rng(16)
    cam = random_camera(rng)
    X = rng.normal(scale=100, size=(4, 3))
    X += cam.pose_global.rotation.T @ np.array([0, 0, 600.0]) + cam.center()
    pts = [(Xi, project(cam, Xi)) for Xi in X]
    rec, err = resect(pts, known_K=cam.calibration)
    assert err < 1e-6


def doubled_k_cameras(tmp_path, source):
    """The default rig with every K scaled by 2 (the same pixels), built
    directly or saved and read back through `load_cameras`."""
    cams = [CameraModel(2.0 * c.calibration, c.pose_global, id=c.id,
                        image_size=c.image_size)
            for c in simulator.default_cameras()]
    if source == "loaded":
        path = tmp_path / "cameras.json"
        geometry.save_cameras(cams, path)
        cams = geometry.load_cameras(path)
    return cams


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_resect_known_k_with_scaled_calibration(tmp_path, source):
    cam = doubled_k_cameras(tmp_path, source)[0]
    X = np.random.default_rng(0).normal(scale=60, size=(8, 3))
    rec, err = resect([(Xi, project(cam, Xi)) for Xi in X],
                      known_K=cam.calibration)
    assert err < 1e-6
    assert np.allclose(rec.pose_global.translation,
                       cam.pose_global.translation, rtol=0, atol=1e-6)
    assert np.allclose(rec.pose_global.rotation, cam.pose_global.rotation,
                       rtol=0, atol=1e-9)
    assert np.allclose(rec.calibration, cam.calibration / 2.0)


# -- triangulation ------------------------------------------------------------

def two_orthogonal_cameras():
    K = np.diag([1000.0, 1000.0, 1.0])
    a = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 1000.0])))
    R = rodrigues_to_matrix(np.array([0.0, np.pi / 2, 0.0]))
    b = CameraModel(K, RigidTransform(R, np.array([0, 0, 1000.0])))
    return a, b


def triangulate_views(cams, X):
    """triangulate_batch of the one point X seen by every camera of cams:
    (point, ok, reprojection error in px per camera)."""
    pixels = np.stack([project(cam, X) for cam in cams])[None]
    Y, ok = triangulate_batch(cams, pixels, np.ones((1, len(cams)), bool))
    error = [np.linalg.norm(project(cam, Y[0]) - px)
             for cam, px in zip(cams, pixels[0])]
    return Y[0], ok[0], np.asarray(error)


def test_triangulate_origin():
    X, ok, res = triangulate_views(two_orthogonal_cameras(), np.zeros(3))
    assert ok
    assert np.allclose(X, 0.0, atol=1e-9)
    assert np.all(res < 1e-9)


def test_triangulate_single_camera_raises():
    # the batch does not raise: its ok mask rejects the point
    a, _ = two_orthogonal_cameras()
    X, ok = triangulate_batch([a], np.zeros((1, 1, 2)), np.ones((1, 1), bool))
    assert not ok[0] and np.isnan(X[0]).all()


def test_triangulate_parallel_rays_raise():
    # the batch does not raise: its ok mask rejects the point
    K = np.diag([1000.0, 1000.0, 1.0])
    a = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 1000.0])))
    b = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 2000.0])))
    # same pixel in both cameras of identical orientation -> near-parallel rays
    X, ok = triangulate_batch([a, b], np.zeros((1, 2, 2)), np.ones((1, 2), bool))
    assert not ok[0] and np.isnan(X[0]).all()


def test_triangulate_project_roundtrip():
    rng = np.random.default_rng(17)
    a, b = two_orthogonal_cameras()
    X = rng.normal(scale=80, size=(100, 3))
    pixels = np.stack([project_many(a, X)[0], project_many(b, X)[0]], axis=1)
    rec, ok = triangulate_batch([a, b], pixels, np.ones((100, 2), bool))
    assert ok.all()
    assert np.allclose(rec, X, atol=1e-6)


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_triangulate_with_scaled_calibration(tmp_path, source):
    cams = doubled_k_cameras(tmp_path, source)[:2]
    X = np.array([10.0, -20.0, 30.0])
    rec, ok, res = triangulate_views(cams, X)
    assert ok
    assert np.allclose(rec, X, rtol=0, atol=1e-6)
    assert np.all(res < 1e-6)


def dlt_reference(observations):
    """Single-point DLT over the visible views only, one view at a time."""
    A = []
    for cam, px in observations:
        P = np.linalg.solve(cam.calibration, cam.projection_matrix())
        m = np.linalg.solve(cam.calibration, np.array([px[0], px[1], 1.0]))
        A.append(m[0] * P[2] - m[2] * P[0])
        A.append(m[1] * P[2] - m[2] * P[1])
    Xh = np.linalg.svd(np.asarray(A))[2][-1]
    return Xh[:3] / Xh[3]


def test_triangulate_batch_matches_per_point_dlt():
    ds = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=3, n_epochs=40,
        noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.4)))
    cams = ds.cameras
    pixels = ds.observations.transpose(0, 2, 1, 3).reshape(-1, len(cams), 2)
    visible = ds.visible.transpose(0, 2, 1).reshape(-1, len(cams))
    assert np.isnan(pixels[~visible]).all()
    X, ok = triangulate_batch(cams, pixels, visible)
    n_views = visible.sum(axis=1)
    assert (n_views < 2).any() and (n_views == 3).any()
    assert np.array_equal(ok, n_views >= 2)
    assert np.isnan(X[~ok]).all()
    for p in np.flatnonzero(ok):
        views = [(cams[k], pixels[p, k]) for k in np.flatnonzero(visible[p])]
        ref = dlt_reference(views)
        assert np.abs(X[p] - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)
        assert np.abs(triangulate_linear(views) - ref).max() \
            <= 1e-9 * max(np.abs(ref).max(), 1.0)


def test_triangulate_batch_points_are_independent():
    """Every point of a batch gets the bits it gets when triangulated alone,
    whichever points share the batch and whether or not they pass."""
    K = np.diag([1000.0, 1000.0, 1.0])
    a, c = two_orthogonal_cameras()
    b = CameraModel(K, RigidTransform(np.eye(3), np.array([-100.0, 0, 1000.0])))
    cams = [a, b, c]
    rng = np.random.default_rng(19)
    X = rng.normal(scale=80, size=(40, 3))
    pixels = np.stack([project_many(cam, X)[0] for cam in cams], axis=1)
    visible = rng.random((40, 3)) < 0.5
    # a parallel-ray pair: the same pixel in the equally oriented a and b
    pixels = np.concatenate([pixels, np.zeros((1, 3, 2))])
    visible = np.concatenate([visible, [[True, True, False]]])
    pixels[~visible] = np.nan
    assert set(visible.sum(axis=1)) == {0, 1, 2, 3}
    Y, ok = triangulate_batch(cams, pixels, visible)
    assert np.array_equal(ok[:-1], visible[:-1].sum(axis=1) >= 2)
    assert not ok[-1]
    for p in range(len(pixels)):
        Yp, okp = triangulate_batch(cams, pixels[p:p + 1], visible[p:p + 1])
        assert okp[0] == ok[p]
        assert np.array_equal(Yp[0], Y[p], equal_nan=True)


def test_triangulate_batch_rejects_degenerate_points(monkeypatch):
    K = np.diag([1000.0, 1000.0, 1.0])
    a = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 1000.0])))
    b = CameraModel(K, RigidTransform(np.eye(3), np.array([-100.0, 0, 1000.0])))
    _, c = two_orthogonal_cameras()
    zero = np.zeros((1, 2, 2))
    # one view only; the other view's pixel is NaN
    one = np.array([[[0.0, 0.0], [np.nan, np.nan]]])
    _, ok = triangulate_batch([a, c], one, np.array([[True, False]]))
    assert not ok[0]
    # parallel rays through the same pixel of two equally oriented cameras
    _, ok = triangulate_batch([a, b], zero, np.ones((1, 2), bool))
    assert not ok[0]
    assert triangulate_linear([(a, zero[0, 0]), (b, zero[0, 1])]) is None
    # rays 0.03 deg apart that meet at a finite point
    near = CameraModel(K, RigidTransform(np.eye(3), np.array([-1.0, 0, 1000.0])))
    X = np.array([0.0, 0.0, 1000.0])
    px = np.array([[project(a, X), project(near, X)]])
    _, ok = triangulate_batch([a, near], px, np.ones((1, 2), bool))
    assert not ok[0]
    monkeypatch.setattr(geometry, "MIN_TRIANGULATION_ANGLE_DEG", 0.0)
    Y, ok = triangulate_batch([a, near], px, np.ones((1, 2), bool))
    assert ok[0] and np.allclose(Y[0], X, atol=1e-6)
    # without the angle check the parallel rays meet only at infinity
    _, ok = triangulate_batch([a, b], zero, np.ones((1, 2), bool))
    assert not ok[0]
    # a well-posed point in the same batch is unaffected
    X, ok = triangulate_batch([a, c], np.stack([one[0], zero[0]]),
                              np.array([[True, False], [True, True]]))
    assert ok.tolist() == [False, True]
    assert np.allclose(X[1], 0.0, atol=1e-9)


def look_at(center, target, K):
    """Camera at `center` whose optical axis points at `target`."""
    z = (target - center) / np.linalg.norm(target - center)
    x = np.cross([0.0, 0.0, 1.0] if abs(z[2]) < 0.9 else [1.0, 0.0, 0.0], z)
    x /= np.linalg.norm(x)
    R = np.stack([x, np.cross(z, x), z])
    return CameraModel(K, RigidTransform(R, -R @ center))


@st.composite
def dlt_scenes(draw):
    """(cameras, pixels, visible) of 20 points near a target seen by a rig of
    2-4 cameras, with 0.5 px noise. Rigs are wide (cameras around the target
    at 300 mm to 50 m), narrow (2 cameras whose rays meet at 0.1-6 deg) or
    far (the target 5-50 m from cameras within 1 m of each other). One
    calibration's last row is not (0, 0, 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["wide", "narrow", "far"]))
    n_cams = 2 if kind == "narrow" else draw(st.integers(2, 4))
    distance = draw(st.floats(300.0, 50000.0) if kind != "far"
                    else st.floats(5000.0, 50000.0))
    target = rng.normal(scale=100.0, size=3)
    if kind == "narrow":
        half = np.radians(draw(st.floats(0.1, 6.0))) / 2.0
        centers = [target + distance * np.array([np.sin(s * half), 0.0,
                                                 np.cos(half)])
                   for s in (-1.0, 1.0)]
    elif kind == "wide":
        up = rng.normal(size=(n_cams, 3))
        up[:, 2] = np.abs(up[:, 2]) + 0.2
        up /= np.linalg.norm(up, axis=1, keepdims=True)
        centers = list(target + distance * up)
    else:
        base = target + distance * np.array([0.0, 0.6, 0.8])
        centers = list(base + rng.uniform(-500.0, 500.0, size=(n_cams, 3)))
    cams = []
    for k, center in enumerate(centers):
        f = rng.uniform(500.0, 2000.0)
        K = np.array([[f, 0.0, rng.uniform(200, 800)],
                      [0.0, f * rng.uniform(0.9, 1.1), rng.uniform(200, 800)],
                      [0.0, 0.0, 1.0]])
        if k == 0:
            K[2] = [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4),
                    rng.uniform(0.5, 2.0)]
        cams.append(look_at(center, target, K))
    X = target + rng.normal(scale=0.02 * distance, size=(20, 3))
    pixels = np.stack([project_many(cam, X)[0] for cam in cams], axis=1)
    pixels += rng.normal(scale=0.5, size=pixels.shape)
    visible = rng.random((20, n_cams)) < 0.8
    visible[:5] = True
    pixels[~visible] = np.nan
    return cams, pixels, visible


def ray_angle_rule(cams, pixels, visible):
    """Points seen by two cameras whose rays through the pixels subtend at
    least MIN_TRIANGULATION_ANGLE_DEG."""
    ok = np.zeros(len(pixels), bool)
    for p in range(len(pixels)):
        rays = []
        for k in np.flatnonzero(visible[p]):
            d = cams[k].pose_global.rotation.T @ np.linalg.solve(
                cams[k].calibration, np.append(pixels[p, k], 1.0))
            rays.append(d / np.linalg.norm(d))
        ok[p] = any(np.degrees(np.arccos(min(abs(a @ b), 1.0)))
                    >= geometry.MIN_TRIANGULATION_ANGLE_DEG
                    for i, a in enumerate(rays) for b in rays[i + 1:])
    return ok


@FUZZ
@given(dlt_scenes())
def test_triangulate_batch_matches_dlt_on_random_rigs(scene):
    cams, pixels, visible = scene
    X, ok = triangulate_batch(cams, pixels, visible)
    assert np.array_equal(ok, ray_angle_rule(cams, pixels, visible))
    assert np.isnan(X[~ok]).all()
    for p in np.flatnonzero(ok):
        ref = dlt_reference([(cams[k], pixels[p, k])
                             for k in np.flatnonzero(visible[p])])
        assert np.abs(X[p] - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)


def test_jacobi_eigh_diagonalizes():
    rng = np.random.default_rng(23)
    M = rng.normal(size=(50, 4, 4)) * rng.uniform(1e-3, 1e3, size=(50, 1, 4))
    gram = M.transpose(0, 2, 1) @ M
    gram[0] = np.diag([1.0, 1.0, 2.0, 2.0])       # already diagonal, ties
    gram[1] = 0.0                                 # d = a_pq = 0 everywhere
    w, V = geometry._jacobi_eigh(
        gram[:, geometry._GRAM_ROW, geometry._GRAM_COL].T)
    V = V.transpose(2, 1, 0)                      # eigenvectors as columns
    scale = np.abs(gram).max(axis=(1, 2))[:, None, None]
    assert np.abs(V.transpose(0, 2, 1) @ V - np.eye(4)).max() <= 1e-14
    assert (np.abs(V * w.T[:, None, :] - gram @ V) <= 1e-14 * scale).all()
    assert (np.abs(np.sort(w.T) - np.linalg.eigvalsh(gram))
            <= 1e-14 * scale[:, 0]).all()


# -- camera file IO -----------------------------------------------------------

def test_camera_json_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    cams = [random_camera(rng) for _ in range(3)]
    cams = [CameraModel(c.calibration, c.pose_global, id=i, image_size=(640, 480))
            for i, c in enumerate(cams)]
    path = tmp_path / "cams.json"
    geometry.save_cameras(cams, path)
    loaded = geometry.load_cameras(path)
    for a, b in zip(cams, loaded):
        assert a.id == b.id
        assert a.image_size == b.image_size
        assert np.allclose(a.calibration, b.calibration)
        assert np.allclose(a.pose_global.rotation, b.pose_global.rotation)
        assert np.allclose(a.pose_global.translation, b.pose_global.translation)


def test_camera_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": 0, "R": [0] * 9, "t": [0] * 3}]))
    with pytest.raises(SchemaError, match="K"):
        geometry.load_cameras(path)


@pytest.mark.parametrize("value", [2 ** 53, -2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1])
def test_camera_json_integer_limit(tmp_path, value):
    # a JSON integer is a number only where float64 holds it exactly, in
    # camera files as in config fields
    doc = geometry.camera_to_dict(random_camera(np.random.default_rng(19)))
    doc["t"][2] = value
    path = tmp_path / "cams.json"
    path.write_text(json.dumps([doc]))
    spec = {"x": (None, float, None, "a number")}
    if abs(value) <= 2 ** 53:
        assert geometry.load_cameras(path)[0].pose_global.translation[2] == value
        assert fields({"x": value}, spec, "config") == {"x": value}
    else:
        with pytest.raises(SchemaError, match="'t'"):
            geometry.load_cameras(path)
        with pytest.raises(SchemaError, match="'x'"):
            fields({"x": value}, spec, "config")
