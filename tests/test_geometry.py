import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mousetrack3d
from mousetrack3d import geometry, simulator
from mousetrack3d.errors import (
    InsufficientPoints,
    NonPositiveDepth,
    ParallelRays,
    SchemaError,
    SingularCamera,
)
from mousetrack3d.geometry import (
    CameraModel,
    PoseVector,
    RigidTransform,
    apply,
    compose,
    decompose_projection,
    invert,
    matrix_to_rodrigues,
    pose_to_transform,
    project,
    resect,
    rodrigues_to_matrix,
    transform_to_pose,
    triangulate,
    triangulate_batch,
    triangulate_linear,
)


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
    cam = CameraModel(K, RigidTransform.identity())
    assert np.allclose(project(cam, [0.0, 0.0, 1000.0]), [0.0, 0.0])


def test_project_similar_triangles():
    K = np.diag([1000.0, 1000.0, 1.0])
    cam = CameraModel(K, RigidTransform.identity())
    assert np.allclose(project(cam, [100.0, 0.0, 1000.0]), [100.0, 0.0])


def test_project_rejects_nonpositive_depth():
    cam = CameraModel(np.eye(3), RigidTransform.identity())
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


# -- rigid transform algebra --------------------------------------------------

def test_invert_identity():
    t = invert(RigidTransform.identity())
    assert np.allclose(t.matrix(), np.eye(4))


def test_rigid_transform_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
        R = T.rotation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(compose(T, invert(T)).matrix(), np.eye(4), atol=1e-9)


def test_compose_apply_associativity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        A = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
        B = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
        x = rng.normal(scale=30, size=3)
        assert np.allclose(apply(compose(A, B), x), apply(A, apply(B, x)),
                           atol=1e-9)


def test_model_to_global_from_factors():
    # H_model_to_global = inv(H_global_to_cam) * H_model_to_cam
    rng = np.random.default_rng(6)
    H_mg = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
    H_gk = RigidTransform(random_rotation(rng), rng.normal(scale=40, size=3))
    H_mk = compose(H_gk, H_mg)
    rec = compose(invert(H_gk), H_mk)
    assert np.allclose(rec.matrix(), H_mg.matrix(), atol=1e-9)


# -- Rodrigues ----------------------------------------------------------------

def test_zero_rodrigues_is_identity():
    assert np.allclose(rodrigues_to_matrix(np.zeros(3)), np.eye(3))


def test_quarter_turn_about_z():
    R = rodrigues_to_matrix(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                       atol=1e-12)


def test_pose_roundtrip_1000():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(1e-6, np.pi - 1e-6)
        p = PoseVector(r, rng.normal(scale=50, size=3))
        q = transform_to_pose(pose_to_transform(p))
        assert np.allclose(q.rodrigues, p.rodrigues, atol=1e-10)
        assert np.allclose(q.translation, p.translation, atol=1e-10)


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
    R, dR = geometry.rotation_derivatives(rv)
    assert R.shape == (50, 3, 3) and dR.shape == (50, 3, 3, 3)
    assert np.array_equal(R, rodrigues_to_matrix(rv))
    for n in range(50):
        assert np.abs(dR[n] - rotation_derivative_fd(rv[n], 1e-7)).max() < 1e-6
    # the per-point form is the same derivative applied to a point
    x = rng.normal(scale=20, size=(50, 3))
    assert np.allclose(geometry.rotation_point_jacobians(rv, x),
                       np.einsum("nijk,nk->nji", dR, x), rtol=0, atol=1e-12)


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


def test_resect_known_k_four_points():
    rng = np.random.default_rng(16)
    cam = random_camera(rng)
    X = rng.normal(scale=100, size=(4, 3))
    X += cam.pose_global.rotation.T @ np.array([0, 0, 600.0]) + cam.center()
    pts = [(Xi, project(cam, Xi)) for Xi in X]
    rec, err = resect(pts, known_K=cam.calibration)
    assert err < 1e-6


# -- triangulation ------------------------------------------------------------

def two_orthogonal_cameras():
    K = np.diag([1000.0, 1000.0, 1.0])
    a = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 1000.0])))
    R = rodrigues_to_matrix(np.array([0.0, np.pi / 2, 0.0]))
    b = CameraModel(K, RigidTransform(R, np.array([0, 0, 1000.0])))
    return a, b


def test_triangulate_origin():
    a, b = two_orthogonal_cameras()
    X, res = triangulate([(a, project(a, [0.0, 0.0, 0.0])),
                          (b, project(b, [0.0, 0.0, 0.0]))])
    assert np.allclose(X, 0.0, atol=1e-9)
    assert np.all(res < 1e-9)


def test_triangulate_single_camera_raises():
    a, _ = two_orthogonal_cameras()
    with pytest.raises(ParallelRays):
        triangulate([(a, np.array([0.0, 0.0]))])


def test_triangulate_parallel_rays_raise():
    K = np.diag([1000.0, 1000.0, 1.0])
    a = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 1000.0])))
    b = CameraModel(K, RigidTransform(np.eye(3), np.array([0, 0, 2000.0])))
    # same pixel in both cameras of identical orientation -> near-parallel rays
    with pytest.raises(ParallelRays):
        triangulate([(a, np.array([0.0, 0.0])), (b, np.array([0.0, 0.0]))])


def test_triangulate_project_roundtrip():
    rng = np.random.default_rng(17)
    a, b = two_orthogonal_cameras()
    for _ in range(100):
        X = rng.normal(scale=80, size=3)
        rec, _ = triangulate([(a, project(a, X)), (b, project(b, X))])
        assert np.allclose(rec, X, atol=1e-6)


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


def test_triangulate_batch_rejects_degenerate_points():
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
    Y, ok = triangulate_batch([a, near], px, np.ones((1, 2), bool),
                              min_angle_deg=0.0)
    assert ok[0] and np.allclose(Y[0], X, atol=1e-6)
    # without the angle check the parallel rays meet only at infinity
    _, ok = triangulate_batch([a, b], zero, np.ones((1, 2), bool),
                              min_angle_deg=0.0)
    assert not ok[0]
    # a well-posed point in the same batch is unaffected
    X, ok = triangulate_batch([a, c], np.stack([one[0], zero[0]]),
                              np.array([[True, False], [True, True]]))
    assert ok.tolist() == [False, True]
    assert np.allclose(X[1], 0.0, atol=1e-9)


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
        assert np.allclose(a.pose_global.matrix(), b.pose_global.matrix())


def test_camera_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"id": 0, "R": [0] * 9, "t": [0] * 3}]))
    with pytest.raises(SchemaError, match="K"):
        geometry.load_cameras(path)


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is slow to import; only the iterative refinements of
    # `resect` and `triangulate` load it
    src = os.path.dirname(os.path.dirname(mousetrack3d.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mousetrack3d; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
