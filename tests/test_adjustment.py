import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import scipy.linalg

from mousetrack3d import (adjustment, evaluation, geometry, mouse_model,
                         simulator, track_constraint)
from mousetrack3d.adjustment import (
    MouseStateTrack,
    Problem,
    StochasticConfig,
    build_problem,
    check_jacobian,
    fit_rigid,
    initialize,
    load_track,
    predict_offsets,
    save_track,
    solve,
    solve_dataset,
)
from mousetrack3d.errors import (InconsistentCameraIds, NonFiniteCost,
                                 NonPositiveDepth, NoSolvableEpoch)


def make_dataset(seed=0, n_epochs=30, noise=0.0, dropout=0.0,
                 deformation=False, step_sigma=1.0):
    config = simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=n_epochs,
        step_sigma_mm=step_sigma, noise_sigma_px=noise,
        deformation_enabled=deformation,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=dropout))
    return simulator.simulate(config)


def make_problem(ds, offsets=None, stochastic=None):
    """Problem with the rigid model, or with given per-epoch offsets (the
    deformed mode's sigma), without a trained deformation model."""
    stochastic = stochastic or StochasticConfig()
    pts = mouse_model.COORDS
    if offsets is None:
        return Problem(ds, ds.cameras, pts, stochastic,
                       adjustment.SIGMA_PX_DEFORMATION)
    return Problem(ds, ds.cameras, pts + offsets, stochastic,
                   adjustment.SIGMA_PX_GEOMETRIC)


def cost(problem, x):
    """Sum of squares of the problem's residuals at x."""
    r = problem.residuals(x)
    return float(r @ r)


def gt_track(ds):
    return MouseStateTrack(ds.poses.copy(), ["local"] * ds.n_epochs)


def max_position_error(track, ds):
    d = track.poses[:, 3:] - ds.poses[:, 3:]
    return np.linalg.norm(d, axis=1).max()


# -- rigid fit ----------------------------------------------------------------

def test_fit_rigid_recovers_transform():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0, np.pi - 0.1)
        R = geometry.rodrigues_to_matrix(r)
        t = rng.normal(scale=50, size=3)
        A = rng.normal(scale=20, size=(6, 3))
        B = A @ R.T + t
        R_fit, t_fit = fit_rigid(A, B, np.ones(6, bool))
        assert np.allclose(R_fit, R, atol=1e-9)
        assert np.allclose(t_fit, t, atol=1e-8)


def test_fit_rigid_batched_matches_separate_fits():
    # each epoch's masked fit equals, bit for bit, the plain Kabsch fit of
    # just its used points
    rng = np.random.default_rng(1)
    model = rng.normal(scale=20, size=(8, 3))
    world = rng.normal(scale=50, size=(40, 8, 3))
    mask = rng.random((40, 8)) < 0.7
    mask[:, :3] = True
    world[~mask] = np.nan
    R, t = fit_rigid(model, world, mask)
    for n in range(40):
        A, B = model[mask[n]], world[n, mask[n]]
        ca, cb = A.mean(axis=0), B.mean(axis=0)
        U, _, Vt = np.linalg.svd((A - ca).T @ (B - cb))
        d = np.sign(np.linalg.det(Vt.T @ U.T))
        R_n = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
        assert np.array_equal(R[n], R_n)
        assert np.array_equal(t[n], cb - R_n @ ca)


# -- initialization -----------------------------------------------------------

def test_initialize_noiseless_equals_ground_truth():
    ds = make_dataset(noise=0.0)
    track = initialize(ds)
    assert all(f == "local" for f in track.solved_from)
    assert max_position_error(track, ds) < 1e-5


def test_initialize_interpolates_thin_epochs():
    ds = make_dataset(noise=0.0, n_epochs=20)
    t = 9
    ds.visible[t, :, 2:] = False  # leave 2 parts visible everywhere
    ds.observations[t, :, 2:] = np.nan
    track = initialize(ds)
    assert track.solved_from[t] == "interpolated"
    # linear interpolation of the six parameters between solved neighbors
    expect = 0.5 * (track.as_array()[t - 1] + track.as_array()[t + 1])
    assert np.allclose(track.as_array()[t], expect, atol=1e-9)


def test_initialize_interpolates_across_pi():
    # the heading passes pi between epochs 48 and 49, so the canonical
    # vectors of the solved neighbors of epoch 48 point opposite ways
    ds = make_dataset(seed=4, n_epochs=60, step_sigma=3.0)
    t = 48
    ds.visible[t, :, 2:] = False
    ds.observations[t, :, 2:] = np.nan
    track = initialize(ds)
    assert track.solved_from[t] == "interpolated"
    solved = np.array(track.solved_from) == "local"
    assert np.all(np.linalg.norm(track.poses[solved, :3], axis=1) <= np.pi)
    R = geometry.rodrigues_to_matrix(track.poses[:, :3])
    R_true = geometry.rodrigues_to_matrix(ds.poses[:, :3])
    # a midpoint taken across branches would be about pi off
    assert evaluation.geodesic_angle(R[t], R_true[t]) < 0.1


def test_initialize_no_solvable_epoch():
    ds = make_dataset(n_epochs=10)
    ds.visible[:] = False
    ds.observations[:] = np.nan
    with pytest.raises(NoSolvableEpoch):
        initialize(ds)


def test_solve_dataset_rejects_missing_camera():
    ds = make_dataset(n_epochs=10)
    with pytest.raises(InconsistentCameraIds):
        solve_dataset(ds, ds.cameras[:2])


# -- problem assembly ---------------------------------------------------------

def test_problem_sizing_counts():
    ds = make_dataset(n_epochs=500, seed=7, dropout=0.2, noise=0.5)
    problem = build_problem(ds, ds.cameras)
    assert problem.n_params == 500 * 6
    # about 80% of 500*3*8 = 12000 candidate observations survive
    assert problem.n_obs == pytest.approx(9600, rel=0.03)
    assert problem.n_obs == ds.visible.sum()
    # one residual pair per grid entry, visible or not
    assert problem.n_residuals == 2 * 8 * 3 * 500 + 12 * 500


def test_problem_rigid_kind_without_model():
    ds = make_dataset(n_epochs=10)
    problem = build_problem(ds, ds.cameras)
    assert problem.sigma_px == adjustment.SIGMA_PX_DEFORMATION
    # the rigid model at every epoch: the zero-offset case of deformed mode
    assert problem.model_pts.shape == (10, 8, 3)
    assert (problem.model_pts == mouse_model.COORDS).all()


def test_rigid_points_equal_zero_offsets_bit_for_bit():
    ds = make_dataset(n_epochs=140, noise=0.5, dropout=0.3, seed=3)
    x = initialize(ds).poses
    rigid = make_problem(ds)
    zero = Problem(ds, ds.cameras, mouse_model.COORDS + np.zeros((140, 8, 3)),
                   StochasticConfig(), adjustment.SIGMA_PX_DEFORMATION)
    assert np.array_equal(rigid.residuals(x), zero.residuals(x))
    for a, b in zip(rigid.normal_equations(x), zero.normal_equations(x)):
        assert np.array_equal(a, b)


def test_zero_smoothness_weight_block_diagonal():
    ds = make_dataset(n_epochs=10, noise=0.5)
    problem = build_problem(
        ds, ds.cameras,
        stochastic=StochasticConfig(smoothness_weight=0.0))
    track = initialize(ds)
    J = dense_jacobian(problem, track.as_array().ravel())
    N = J.T @ J
    for a in range(10):
        for b in range(10):
            block = N[6 * a:6 * a + 6, 6 * b:6 * b + 6]
            if a != b:
                assert np.allclose(block, 0.0)
            else:
                assert np.abs(block).max() > 0.0


def test_deformed_problem_uses_per_epoch_points():
    ds = make_dataset(n_epochs=15, deformation=True, step_sigma=1.5)
    problem = make_problem(ds, offsets=ds.deform_offsets)
    assert problem.sigma_px == adjustment.SIGMA_PX_GEOMETRIC
    assert problem.model_pts.shape == (15, 8, 3)
    # ground-truth offsets make the ground-truth track almost reprojection-free
    rp, _ = problem._rms(problem.residuals(gt_track(ds).as_array()))[:2]
    assert rp < 1e-9


# -- jacobian -----------------------------------------------------------------

def dense_jacobian(problem, x):
    """The (n_residuals, 6T) Jacobian at x, expanded from the windowed rows
    of `Problem.jacobian`."""
    J, first = problem.jacobian(x)
    dense = np.zeros((len(J), problem.n_params))
    dense[np.arange(len(J))[:, None], 6 * first[:, None] + np.arange(30)] = J
    return dense


def band_to_dense(N):
    """Lower triangle of the matrix held in lower banded storage N."""
    n = N.shape[1]
    L = np.zeros((n, n))
    for k in range(N.shape[0]):
        L[np.arange(k, n), np.arange(n - k)] = N[k, :n - k]
    return L


@pytest.mark.parametrize("n_epochs", [5, 6, 12])
@pytest.mark.parametrize("kind", ["rigid", "deformed", "smoothness_only",
                                  "occluded"])
def test_normal_equations_match_dense_jacobian(n_epochs, kind, monkeypatch):
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      deformation=kind == "deformed",
                      dropout=0.75 if kind == "occluded" else 0.0)
    if kind == "smoothness_only":
        ds.visible[:] = False
    if kind == "occluded":
        # (epoch, part) pairs seen by 0, 1, 2 and 3 cameras, and an epoch
        # seen by none
        ds.visible[np.argmin(ds.visible.sum(axis=(1, 2)))] = False
        assert set(ds.visible.sum(axis=1).ravel()) == {0, 1, 2, 3}
    stochastic = StochasticConfig(smoothness_weight=0.7)
    offsets = ds.deform_offsets if kind == "deformed" else None
    problem = make_problem(ds, offsets=offsets, stochastic=stochastic)
    rng = np.random.default_rng(n_epochs)
    x = gt_track(ds).as_array() + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                             size=(n_epochs, 6))
    J = dense_jacobian(problem, x.ravel())
    r = problem.residuals(x.ravel())
    JtJ = J.T @ J
    u = min(29, 6 * n_epochs - 1)
    i, j = np.indices(JtJ.shape)
    assert np.all(JtJ[np.abs(i - j) > u] == 0.0)
    Jtr = J.T @ r
    # the default chunk length, and the shortest one
    for chunk in (adjustment.CHUNK_EPOCHS, 5):
        monkeypatch.setattr(adjustment, "CHUNK_EPOCHS", chunk)
        N, g = problem.normal_equations(x.ravel())
        assert N.shape == (u + 1, 6 * n_epochs)
        assert (np.abs(band_to_dense(N) - np.tril(JtJ)).max()
                <= 1e-12 * np.abs(JtJ).max())
        assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()


def band_matvec(N, v):
    """(J^T J) v for the lower band N of J^T J, with no dense matrix."""
    out = N[0] * v
    for k in range(1, N.shape[0]):
        out[k:] += N[k, :-k] * v[:-k]
        out[:-k] += N[k, :-k] * v[k:]
    return out


@pytest.mark.parametrize("n_epochs", [300, 517])
@pytest.mark.parametrize("kind", ["rigid", "deformed", "occluded",
                                  "mixed_branches"])
def test_normal_equations_match_windowed_jacobian(n_epochs, kind):
    # the default CHUNK_EPOCHS makes 3 and 5 chunks; N is compared through
    # its products with random vectors, so no dense matrix forms
    assert len(adjustment._chunks(n_epochs)) == {300: 3, 517: 5}[n_epochs]
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      deformation=kind == "deformed",
                      dropout=0.75 if kind == "occluded" else 0.2)
    offsets = ds.deform_offsets if kind == "deformed" else None
    problem = make_problem(ds, offsets=offsets,
                           stochastic=StochasticConfig(smoothness_weight=0.7))
    rng = np.random.default_rng(n_epochs)
    if kind == "mixed_branches":
        x = mixed_branch_poses(ds, rng).ravel()
    else:
        x = (ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                   size=(n_epochs, 6))).ravel()
    J, first = problem.jacobian(x)
    cols = 6 * first[:, None] + np.arange(30)

    def Jt(u):
        return np.bincount(cols.ravel(), weights=(J * u[:, None]).ravel(),
                           minlength=problem.n_params)

    N, g = problem.normal_equations(x)
    Jtr = Jt(problem.residuals(x))
    assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()
    for v in rng.normal(size=(3, problem.n_params)):
        JtJv = Jt((J * v[cols]).sum(axis=1))
        assert (np.abs(band_matvec(N, v) - JtJv).max()
                <= 1e-12 * np.abs(JtJv).max())


def mixed_branch_poses(ds, rng):
    """Poses whose rotations turn through pi about one axis, so that
    smoothness windows straddle |r| = pi, each written on a random 2 pi
    branch (angle shifted by -2 pi, 0, 2 pi or 4 pi along its axis)."""
    T = ds.n_epochs
    axis = np.array([0.3, -0.2, 1.0]) + rng.normal(scale=0.05, size=(T, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    theta = np.pi + 0.2 * (np.arange(T) - (T - 1) / 2) + 0.01
    k = rng.integers(-1, 3, size=T)
    x = ds.poses + rng.normal(scale=[0.0] * 3 + [5.0] * 3, size=(T, 6))
    x[:, :3] = (theta + 2 * np.pi * k)[:, None] * axis
    return x


@pytest.mark.parametrize("n_epochs", [5, 6, 12, 23])
@pytest.mark.parametrize("kind", ["rigid", "deformed", "occluded",
                                  "smoothness_only", "mixed_branches"])
def test_chunked_linearization_is_bit_identical(n_epochs, kind, monkeypatch):
    # normal_equations adds every sum in one order at any chunk length, so
    # N, g and whole solves equal those of one chunk over the whole track
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      deformation=kind == "deformed",
                      dropout=0.75 if kind == "occluded" else 0.2)
    if kind == "smoothness_only":
        ds.visible[:] = False
    offsets = ds.deform_offsets if kind == "deformed" else None
    stochastic = StochasticConfig(smoothness_weight=0.7)
    rng = np.random.default_rng(n_epochs)
    if kind == "mixed_branches":
        x = mixed_branch_poses(ds, rng)
    else:
        x = ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                  size=(n_epochs, 6))
    track = MouseStateTrack(x, ["local"] * n_epochs)

    def run(chunk):
        monkeypatch.setattr(adjustment, "CHUNK_EPOCHS", chunk)
        problem = make_problem(ds, offsets=offsets, stochastic=stochastic)
        N, g = problem.normal_equations(x.ravel())
        solved, report = solve(problem, track)
        return N, g, solved.poses, report.iterations, report.final_cost

    whole = run(n_epochs)
    for chunk in (5, 6, 7):
        got = run(chunk)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole)), chunk


def test_normal_equations_memory_is_bounded_per_epoch():
    # beyond the forward pass, only the (T, 5, 6, 6) blocks, the band and g
    # grow with T: about 3.2 KB per epoch. Forming every Jacobian of the
    # track at once took 8.2 KB per epoch
    def peak(n_epochs):
        ds = make_dataset(n_epochs=n_epochs, noise=0.5, dropout=0.2)
        problem = build_problem(ds, ds.cameras)
        x = initialize(ds).poses.ravel()
        problem.residuals(x)    # the forward pass that is reused
        tracemalloc.start()
        try:
            problem.normal_equations(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1024) - peak(256) < 768 * 4.5e3


def test_invisible_grid_entries_are_inert():
    # the reprojection runs on the dense (epoch, part, camera) grid; an
    # invisible entry has weight 0, so neither its stored pixel nor a world
    # point on or behind the camera's principal plane may reach r, N or g
    ds = make_dataset(n_epochs=8, noise=0.5)
    top = ds.cameras[0]
    x = ds.poses.copy()
    # epoch 3: part 0 on the top camera's principal plane; epoch 5: the
    # body 200 mm behind the camera
    x[3] = np.concatenate([np.zeros(3), top.center() + [30.0, -20.0, 0.0]
                           - mouse_model.COORDS[0]])
    x[5, 3:] = top.center() + [0.0, 0.0, 200.0]
    parts = mouse_model.world_part_positions(x)
    assert abs(geometry.project_many(top, parts[3])[1][0]) <= geometry.EPS_DEPTH
    assert np.all(geometry.project_many(top, parts[5])[1] < 0.0)
    ds.visible[[3, 5], 0] = False
    results = []
    for stored in (0.0, np.nan, 1e9):
        obs = ds.observations.copy()
        obs[[3, 5], 0] = stored
        problem = make_problem(dataclasses.replace(ds, observations=obs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = problem.residuals(x.ravel())
            results.append((r, *problem.normal_equations(x.ravel())))
            J = dense_jacobian(problem, x.ravel())
    for other in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], other))
    # the dense Jacobian holds the visible observations' rows only
    r, N, g = results[0]
    JtJ, Jtr = J.T @ J, J.T @ r
    assert np.isfinite(r).all()
    assert (np.abs(band_to_dense(N) - np.tril(JtJ)).max()
            <= 1e-12 * np.abs(JtJ).max())
    assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()


def test_normal_equations_reuse_cannot_go_stale():
    # normal_equations reuses the forward pass of the last residuals call
    # only at a bit-equal x; the result equals a fresh Problem's
    ds = make_dataset(n_epochs=12, noise=0.5, dropout=0.3)
    rng = np.random.default_rng(8)
    x1 = (ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                size=(12, 6))).ravel()
    x2 = x1 + rng.normal(scale=[0.01] * 3 + [0.5] * 3, size=(12, 6)).ravel()

    def assert_fresh(got, x):
        want = make_problem(ds).normal_equations(x.copy())
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    problem = make_problem(ds)
    problem.residuals(x1)
    assert_fresh(problem.normal_equations(x2), x2)
    # the array residuals saw, changed in place afterwards
    x = x1.copy()
    problem.residuals(x)
    x[7] += 1e-3
    assert_fresh(problem.normal_equations(x), x)
    # a bit-equal copy is served from the kept pass
    problem.residuals(x2)
    assert_fresh(problem.normal_equations(x2.copy()), x2)


def test_solve_linearizes_on_the_residuals_forward_pass(monkeypatch):
    # LM evaluates the start and every trial with residuals and linearizes
    # only at the start and accepted trials, so no forward pass is repeated
    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=30)
    problem = build_problem(ds, ds.cameras)
    calls = {"_forward": 0, "residuals": 0}

    def counted(name):
        method = getattr(Problem, name)

        def wrapper(self, x):
            calls[name] += 1
            return method(self, x)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Problem, name, counted(name))
    _, report = solve(problem, initialize(ds))
    assert report.iterations > 1
    assert calls["_forward"] == calls["residuals"]


def test_solve_holds_no_band_across_linearizations():
    # each LM trial holds N and one damped copy factored in place, and no
    # band outlives its step, so the allocation peak of a whole solve stays
    # within one band of that of one linearization at the start point
    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=60)
    init = initialize(ds)
    x = init.poses.ravel()
    solve(build_problem(ds, ds.cameras), init)   # warm-up: loads scipy.linalg

    def peak(run):
        problem = build_problem(ds, ds.cameras)
        tracemalloc.start()
        try:
            run(problem)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pair = peak(lambda p: (p.residuals(x), p.normal_equations(x)))
    band = 30 * 6 * ds.n_epochs * 8     # bytes of the (30, 6T) lower band
    assert peak(lambda p: solve(p, init)) - pair < band


def test_linearization_reuses_forward_rotations(monkeypatch):
    # residuals forms the epoch and interpolated rotations in one call, and
    # normal_equations at the same x differentiates those matrices
    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=12)
    problem = build_problem(ds, ds.cameras)
    x = initialize(ds).poses.ravel()
    original, calls = geometry.rodrigues_to_matrix, []

    def counted(r):
        calls.append(r)
        return original(r)

    monkeypatch.setattr(geometry, "rodrigues_to_matrix", counted)
    problem.residuals(x)
    assert len(calls) == 1
    problem.normal_equations(x)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["rigid", "smoothness_only"])
def test_jacobian_across_rotation_branches(kind):
    ds = make_dataset(n_epochs=9, noise=0.5)
    if kind == "smoothness_only":
        ds.visible[:] = False
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=0.7))
    x = mixed_branch_poses(ds, np.random.default_rng(5))
    _, scale = problem._interpolated(x)
    assert (scale != 1.0).any()          # some window nodes change branch
    assert check_jacobian(problem, MouseStateTrack(x, ["local"] * 9)) < 1e-7
    # the banded normal equations carry the same branch maps
    J = dense_jacobian(problem, x.ravel())
    N, g = problem.normal_equations(x.ravel())
    JtJ = J.T @ J
    assert (np.abs(band_to_dense(N) - np.tril(JtJ)).max()
            <= 1e-12 * np.abs(JtJ).max())
    Jtr = J.T @ problem.residuals(x.ravel())
    assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()


@pytest.mark.parametrize("case", ["one_window", "occluded", "mixed_branches"])
def test_gradient_is_half_the_cost_gradient(case):
    # g = J^T r is half the gradient of the cost r^T r. Checked against the
    # cost alone: `jacobian` shares the smoothness Jacobian with
    # normal_equations, so it cannot check that Jacobian's assembly
    n_epochs = {"one_window": 5, "occluded": 12, "mixed_branches": 9}[case]
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      dropout=0.75 if case == "occluded" else 0.0)
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=0.7))
    rng = np.random.default_rng(n_epochs)
    if case == "mixed_branches":
        x = mixed_branch_poses(ds, rng)
        assert (problem._interpolated(x)[1] != 1.0).any()
    else:
        x = ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                  size=(n_epochs, 6))
    x = x.ravel()
    _, g = problem.normal_equations(x)
    step = 1e-6
    fd = np.empty_like(x)
    for j in range(len(x)):
        dx = np.zeros_like(x)
        dx[j] = step
        fd[j] = (cost(problem, x + dx) - cost(problem, x - dx)) / (4 * step)
    assert np.abs(g - fd).max() <= 1e-7 * np.abs(g).max()


def test_cost_is_branch_invariant():
    ds = make_dataset(n_epochs=12, noise=0.5)
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=0.7))
    x = mixed_branch_poses(ds, np.random.default_rng(6))
    canon = x.copy()
    canon[:, :3] = geometry.canonical_rodrigues(x[:, :3])
    assert np.all(np.linalg.norm(canon[:, :3], axis=1) <= np.pi)
    assert np.abs(canon - x).max() > 1.0
    assert np.allclose(geometry.rodrigues_to_matrix(canon[:, :3]),
                       geometry.rodrigues_to_matrix(x[:, :3]), atol=1e-12)
    assert (cost(problem, canon.ravel())
            == pytest.approx(cost(problem, x.ravel()), rel=1e-12, abs=0.0))


def test_four_point_smoothness_equals_grid_sum():
    # other grids' four weighted points: test_track_constraint's
    # test_grid_factor_reproduces_grid_sums
    ds = make_dataset(n_epochs=9, step_sigma=1.5)
    ds.visible[:] = False
    w = 0.7
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=w))
    rng = np.random.default_rng(4)
    x = gt_track(ds).as_array() + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                             size=(9, 6))
    # oracle: every grid point's world displacement H_t g - S_t g
    first, slot_weights = track_constraint.window_slots(9)
    S = np.einsum("ta,tap->tp", slot_weights,
                  x[first[:, None] + np.arange(5)])
    sq = (track_constraint.grid_displacements(x, S) ** 2).sum()
    # the invisible grid entries' residuals are zeros
    assert problem.n_obs == 0
    assert problem.n_residuals == 2 * 8 * 3 * 9 + 12 * 9
    assert abs(cost(problem, x.ravel()) - w ** 2 * sq) <= 1e-12 * w ** 2 * sq
    _, sm_rms = problem._rms(problem.residuals(x.ravel()))[:2]
    assert sm_rms == pytest.approx(np.sqrt(sq / (3 * 27 * 9)),
                                   rel=1e-12)


def per_epoch_smoothness(problem, x):
    """Problem's smoothness sum of squares per epoch, over w^2."""
    r = problem.residuals(x.ravel())[-12 * problem.n_epochs:]
    return ((r.reshape(-1, 12) ** 2).sum(axis=1)
            / problem.stochastic.smoothness_weight ** 2)


def test_track_residual_equals_solver_smoothness():
    # the solved canonical heading of this scene crosses pi, so some
    # windows mix vectors near pi and -pi
    ds = make_dataset(seed=4, n_epochs=60, noise=0.5, dropout=0.2)
    track, report = solve_dataset(ds)
    assert report.converged
    x = track.poses
    assert np.abs(np.diff(x[:, :3], axis=0)).max() > np.pi
    expect = per_epoch_smoothness(build_problem(ds, ds.cameras), x)
    got = [(track_constraint.track_residual(x, t) ** 2).sum() for t in range(60)]
    assert np.allclose(got, expect, rtol=1e-9, atol=0.0)


def test_track_residual_across_rotation_branches():
    ds = make_dataset(n_epochs=9, noise=0.5)
    x = mixed_branch_poses(ds, np.random.default_rng(5))
    got = np.array([(track_constraint.track_residual(x, t) ** 2).sum()
                    for t in range(9)])
    assert np.isfinite(got).all()
    expect = per_epoch_smoothness(make_problem(ds), x)
    assert np.allclose(got, expect, rtol=1e-9, atol=0.0)


def test_jacobian_random_pose_reprojection():
    ds = make_dataset(n_epochs=8, noise=0.5)
    problem = build_problem(ds, ds.cameras)
    rng = np.random.default_rng(1)
    poses = ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3, size=(8, 6))
    track = MouseStateTrack(poses, ["local"] * 8)
    assert check_jacobian(problem, track) < 1e-5


def test_jacobian_smoothness_only():
    ds = make_dataset(n_epochs=5, noise=0.5)
    ds.visible[:] = False  # leaves only the 5-epoch smoothness window
    problem = build_problem(
        ds, ds.cameras, stochastic=StochasticConfig(smoothness_weight=0.7))
    rng = np.random.default_rng(2)
    poses = rng.normal(scale=[0.3] * 3 + [10.0] * 3, size=(5, 6))
    track = MouseStateTrack(poses, ["local"] * 5)
    assert problem.n_obs == 0
    assert check_jacobian(problem, track) < 1e-5


def test_jacobian_identity_pose_finite():
    ds = make_dataset(n_epochs=6)
    problem = build_problem(ds, ds.cameras)
    track = MouseStateTrack(np.zeros((6, 6)), ["local"] * 6)
    dev = check_jacobian(problem, track)
    assert np.isfinite(dev)


@pytest.mark.parametrize("n_epochs", [300, 517])
@pytest.mark.parametrize("kind", ["rigid", "deformed"])
def test_check_jacobian_at_benchmark_length(n_epochs, kind):
    # 3 and 5 chunks of the default CHUNK_EPOCHS, in 60 residuals calls
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, dropout=0.2,
                      step_sigma=1.5, deformation=kind == "deformed")
    offsets = ds.deform_offsets if kind == "deformed" else None
    problem = make_problem(ds, offsets=offsets,
                           stochastic=StochasticConfig(smoothness_weight=0.7))
    rng = np.random.default_rng(n_epochs)
    poses = ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                  size=(n_epochs, 6))
    assert check_jacobian(problem, MouseStateTrack(poses, ["local"] * n_epochs)) < 1e-5


@pytest.mark.parametrize("n_epochs, kind", [(9, "mixed_branches"),
                                            (23, "occluded")])
def test_windowed_jacobian_matches_every_column(n_epochs, kind):
    # check_jacobian's 30 colours hold only while no row depends on epochs
    # more than four apart. Every one of the 6T columns of the expanded J
    # against its own central difference catches a change that breaks it,
    # such as a row coupled to epoch t + 5 with that derivative written
    # into the column of epoch t, which the colours would pass
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      dropout=0.75 if kind == "occluded" else 0.0)
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=0.7))
    rng = np.random.default_rng(n_epochs)
    if kind == "mixed_branches":
        x = mixed_branch_poses(ds, rng).ravel()
    else:
        x = (ds.poses + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                   size=(n_epochs, 6))).ravel()
    J = dense_jacobian(problem, x)
    step = 1e-6
    J_fd = np.empty_like(J)
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J_fd[:, j] = (problem.residuals(xp) - problem.residuals(xm)) / (2 * step)
    dev = np.abs(J - J_fd).max() / max(np.abs(J).max(), 1.0)
    assert dev < 1e-7
    # each colour's difference equals the single columns', entry by entry
    track = MouseStateTrack(x.reshape(-1, 6), ["local"] * n_epochs)
    assert check_jacobian(problem, track) == dev


# -- solver -------------------------------------------------------------------

def test_depth_rule_behind_camera():
    # the one depth rule of `geometry.dehomogenize`, pinned until a
    # cheirality behaviour is chosen: a point behind a camera projects
    # mirrored with negative depth, `project` refuses it, the solver's
    # residuals stay finite, and |q_z| <= EPS_DEPTH divides by EPS_DEPTH
    ds = make_dataset(n_epochs=5)
    cam = ds.cameras[0]
    R, K = cam.pose_global.rotation, cam.calibration

    def world(pc):
        return R.T @ (np.asarray(pc, dtype=float) - cam.pose_global.translation)

    px, depth = geometry.project_many(cam, [world([30.0, -20.0, -100.0])])
    front = geometry.project(cam, world([30.0, -20.0, 100.0]))
    assert np.allclose(px[0], 2.0 * K[:2, 2] - front, rtol=0, atol=1e-9)
    assert depth[0] == pytest.approx(-100.0)
    with pytest.raises(NonPositiveDepth):
        geometry.project(cam, world([30.0, -20.0, -100.0]))

    # epoch 2's body 200 mm behind the top camera
    x = ds.poses.copy()
    x[2, 3:] = world([0.0, 0.0, -200.0])
    parts = mouse_model.world_part_positions(x[2:3])[0]
    assert np.all(geometry.project_many(cam, parts)[1] < 0)
    assert np.all(np.isfinite(make_problem(ds).residuals(x.ravel())))

    ident = geometry.CameraModel(np.eye(3), geometry.RigidTransform(np.eye(3), np.zeros(3)))
    for z in (0.0, geometry.EPS_DEPTH, -geometry.EPS_DEPTH / 2):
        px, _ = geometry.project_many(ident, [[1.0, 2.0, z]])
        assert np.array_equal(px[0], np.array([1.0, 2.0]) / geometry.EPS_DEPTH)


def test_noiseless_ground_truth_is_optimum():
    ds = make_dataset(noise=0.0, n_epochs=20)
    problem = build_problem(
        ds, ds.cameras, stochastic=StochasticConfig(smoothness_weight=0.0))
    track, report = solve(problem, gt_track(ds))
    assert report.converged
    assert report.iterations == 1
    assert report.final_cost < 1e-18


def test_solver_never_increases_cost():
    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=30)
    problem = build_problem(ds, ds.cameras)
    init = initialize(ds)
    track, report = solve(problem, init)
    assert report.final_cost <= report.initial_cost
    assert cost(problem, track.as_array().ravel()) \
        == pytest.approx(report.final_cost)


def test_perturbed_init_reaches_same_optimum():
    ds = make_dataset(noise=0.5, n_epochs=25)
    problem = build_problem(ds, ds.cameras)
    rng = np.random.default_rng(3)
    _, ref = solve(problem, gt_track(ds))
    # rotations within +-5 degrees, translations within +-5 mm per axis
    poses = ds.poses + (rng.uniform([-1.0] * 3 + [-5.0] * 3,
                                    [1.0] * 3 + [5.0] * 3, size=(25, 6))
                        * ([np.radians(5)] * 3 + [1.0] * 3))
    _, rep = solve(problem, MouseStateTrack(poses, ["local"] * 25))
    assert abs(rep.final_cost - ref.final_cost) \
        < 1e-9 * max(ref.final_cost, 1e-30)


class IndefiniteFirstStep(adjustment.Problem):
    """Problem whose first normal matrix has an indefinite leading 2x2 block
    that only damping with lambda > 1 makes positive definite."""

    calls = 0

    def normal_equations(self, x):
        N, g = super().normal_equations(x)
        if self.calls == 0:
            N[1, 0] = 2.0 * np.sqrt(N[0, 0] * N[0, 1])
        self.calls += 1
        return N, g


class IndefiniteBand(adjustment.Problem):
    """Variant of IndefiniteFirstStep whose band stays indefinite: only
    damping with lambda > 1e13 - 1 would make it positive definite, and LM
    gives up once lambda passes 1e12."""

    def normal_equations(self, x):
        N, g = super().normal_equations(x)
        N[1, 0] = 1e13 * np.sqrt(N[0, 0] * N[0, 1])
        return N, g


def test_solve_raises_lambda_on_failed_factorization(monkeypatch):
    ds = make_dataset(noise=0.5, n_epochs=12)
    model_pts = mouse_model.COORDS
    stochastic = StochasticConfig()
    problem = IndefiniteFirstStep(ds, ds.cameras, model_pts, stochastic,
                                  adjustment.SIGMA_PX_DEFORMATION)
    attempts = []   # (damped diagonal of entry 0, factorization succeeded)
    factorize = scipy.linalg.cholesky_banded

    def recording(ab, *args, **kwargs):
        diagonal = ab[0, 0]     # read first: the factorization is in place
        try:
            out = factorize(ab, *args, **kwargs)
        except np.linalg.LinAlgError:
            attempts.append((diagonal, False))
            raise
        attempts.append((diagonal, True))
        return out

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", recording)
    track, report = solve(problem, initialize(ds))

    assert not attempts[0][1]
    first_ok = next(k for k, (_, ok) in enumerate(attempts) if ok)
    # lambda rose by at least lambda_up before a factorization succeeded
    assert attempts[first_ok][0] > attempts[0][0] * adjustment.LAMBDA_UP
    assert np.all(np.isfinite(track.as_array()))
    assert report.final_cost < report.initial_cost


def test_solve_reports_no_descent():
    ds = make_dataset(noise=0.5, n_epochs=12)
    model_pts = mouse_model.COORDS
    stochastic = StochasticConfig()
    problem = IndefiniteBand(ds, ds.cameras, model_pts, stochastic,
                             adjustment.SIGMA_PX_DEFORMATION)
    init = initialize(ds)
    track, report = solve(problem, init)
    assert report.status == "no_descent"
    assert not report.converged
    assert report.iterations == 1
    assert report.final_cost == report.initial_cost
    assert np.array_equal(track.poses, init.poses)


def test_solve_raises_non_finite_start_cost():
    ds = make_dataset(noise=0.5, n_epochs=12)
    start = initialize(ds)
    start.poses[5, 4] = np.nan
    with pytest.raises(NonFiniteCost, match="initial cost"):
        solve(make_problem(ds), start)


def test_solve_raises_non_finite_trial_cost(monkeypatch):
    ds = make_dataset(noise=0.5, n_epochs=12)
    damped_step = adjustment._damped_step

    def non_finite(N, g, damping):
        step = damped_step(N, g, damping)
        step[9] = np.nan    # epoch 1's x translation
        return step

    monkeypatch.setattr(adjustment, "_damped_step", non_finite)
    with pytest.raises(NonFiniteCost, match="iteration 1"):
        solve(make_problem(ds), initialize(ds))


def test_solve_stop_reasons(monkeypatch):
    ds = make_dataset(noise=0.0, n_epochs=20)
    problem = build_problem(
        ds, ds.cameras, stochastic=StochasticConfig(smoothness_weight=0.0))
    _, report = solve(problem, gt_track(ds))
    assert (report.status, report.converged) == ("gradient", True)

    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=30)
    problem = build_problem(ds, ds.cameras)
    _, report = solve(problem, initialize(ds))
    assert (report.status, report.converged) == ("cost", True)

    monkeypatch.setattr(adjustment, "MAX_ITERATIONS", 2)
    _, report = solve(problem, initialize(ds))
    assert (report.status, report.converged) == ("max_iterations", False)
    assert report.iterations == 2


def test_solve_converges_past_4pi_heading():
    # criterion-9 scene at T = 2000: the true heading reaches 33.8 rad
    ds = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=0, n_epochs=2000,
        noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2)))
    assert np.linalg.norm(ds.poses[:, :3], axis=1).max() > 4 * np.pi
    track, report = solve_dataset(ds)
    assert report.status in ("cost", "gradient")
    assert report.iterations <= 20
    assert evaluation.evaluate(track, ds).position_rmse_mm < 1.0


def test_solve_occluded_scene_converges_below_cap():
    # criterion-5 seed 3: 75% dropout, smoothness carries the blind epochs
    ds = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=3, n_epochs=100,
        step_sigma_mm=0.5, noise_sigma_px=0.5, deformation_enabled=False,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.75)))
    _, report = solve_dataset(
        ds, stochastic=StochasticConfig(smoothness_weight=0.1))
    assert report.converged
    assert report.iterations < adjustment.MAX_ITERATIONS


def test_solve_per_epoch_residual_rms():
    ds = make_dataset(noise=0.5, dropout=0.2, n_epochs=20)
    ds.visible[7] = False
    ds.observations[7] = np.nan
    problem = build_problem(ds, ds.cameras)
    track, _ = solve(problem, initialize(ds))
    r = problem.residuals(track.as_array().ravel())
    # the (epoch, part, camera) grid of pixel residual pairs
    rr = (r[:-12 * 20] * problem.sigma_px).reshape(20, 8, 3, 2)
    expect = np.zeros(20)
    for t in range(20):
        sel = ds.visible[t].T
        if sel.any():
            expect[t] = np.sqrt((rr[t][sel] ** 2).sum(axis=1).mean())
    assert track.residual_rms[7] == 0.0
    assert np.allclose(track.residual_rms, expect, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["rigid", "deformed"])
def test_reported_rms_equals_projected_parts(mode, gait_and_model):
    _, model = gait_and_model
    T = 40
    ds = make_dataset(seed=6, noise=0.5, dropout=0.3, deformation=True,
                      n_epochs=T, step_sigma=1.5)
    ds.visible[7] = False
    ds.observations[7] = np.nan
    init = initialize(ds)
    offsets = np.zeros((T, 8, 3))
    if mode == "deformed":
        offsets = predict_offsets(ds, ds.cameras, init, model)
    problem = build_problem(ds, ds.cameras, track=init,
                            deform_model=model if mode == "deformed" else None)
    track, report = solve(problem, init)
    # squared pixel distance of every visible (epoch, camera, part)
    world = mouse_model.world_part_positions(track.poses,
                                             mouse_model.COORDS + offsets)
    sq = np.zeros(ds.visible.shape)
    for k, cam in enumerate(ds.cameras):
        proj, _ = geometry.project_many(cam, world.reshape(-1, 3))
        d = proj.reshape(T, 8, 2) - ds.observations[:, k]
        sq[:, k] = np.where(ds.visible[:, k], (d ** 2).sum(axis=2), 0.0)
    seen = ds.visible.sum(axis=(1, 2))
    assert report.reprojection_rms_px == pytest.approx(
        np.sqrt(sq.sum() / (2 * seen.sum())), rel=1e-9, abs=0.0)
    assert track.residual_rms[7] == 0.0
    assert np.allclose(track.residual_rms,
                       np.sqrt(sq.sum(axis=(1, 2)) / np.maximum(seen, 1)),
                       rtol=1e-9, atol=0.0)


def test_solve_dataset_recovers_track_with_dropout():
    for seed in (0, 1):
        ds = make_dataset(seed=seed, noise=0.5, dropout=0.2, n_epochs=60)
        track, report = solve_dataset(ds)
        assert track.n_epochs == 60
        report_eval = evaluation.evaluate(track, ds)
        # epochs where every part could still be triangulated directly
        well = ((ds.visible.sum(axis=1) >= 2).all(axis=1))
        assert well.any() and (~well).any()
        errs = report_eval.position_error_mm
        rmse_all = np.sqrt((errs ** 2).mean())
        rmse_well = np.sqrt((errs[well] ** 2).mean())
        assert rmse_all <= 1.5 * rmse_well


def test_solve_dataset_provenance_flags():
    ds = make_dataset(seed=2, noise=0.5, dropout=0.6, n_epochs=30)
    blank = 12
    ds.visible[blank] = False
    ds.observations[blank] = np.nan
    # an epoch without observations ends interpolated, even when the
    # smoothness term ties it to its neighbours
    track, _ = solve_dataset(ds)
    assert track.solved_from == ["interpolated" if t == blank else "adjusted"
                                 for t in range(30)]
    # without smoothness, every epoch initialize interpolated stays so,
    # including some that have observations
    guessed = np.array(initialize(ds).solved_from) == "interpolated"
    assert (guessed & ds.visible.any(axis=(1, 2))).any() and not guessed.all()
    track, _ = solve_dataset(ds, stochastic=StochasticConfig(
        smoothness_weight=0.0))
    assert track.solved_from == ["interpolated" if g else "adjusted"
                                 for g in guessed]


@pytest.mark.parametrize("mode", ["rigid", "deformed"])
def test_solve_dataset_triangulates_once(monkeypatch, mode):
    from mousetrack3d import deform_predictor
    ds = make_dataset(seed=5, noise=0.5, deformation=True, n_epochs=40,
                      step_sigma=1.5)
    model = None
    if mode == "deformed":
        model, _ = deform_predictor.train([ds], epochs=2, seed=0)
    original, calls = geometry.triangulate_batch, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "triangulate_batch", counted)
    solve_dataset(ds, mode=mode, deform_model=model)
    assert len(calls) == 1


def test_solve_dataset_rejects_unknown_mode():
    with pytest.raises(ValueError, match="bogus"):
        solve_dataset(make_dataset(n_epochs=10), mode="bogus")


def test_solve_dataset_deformed_needs_model():
    with pytest.raises(ValueError, match="deform_model"):
        solve_dataset(make_dataset(n_epochs=10), mode="deformed")


@pytest.mark.parametrize("kwargs", [
    {"smoothness_weight": -0.5}, {"smoothness_weight": np.nan},
    {"smoothness_weight": np.inf}])
def test_stochastic_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        StochasticConfig(**kwargs)


@pytest.fixture(scope="module")
def gait_and_model():
    """A 120-epoch gait recording and a deformation model trained on it."""
    from mousetrack3d import deform_predictor
    ds = make_dataset(seed=4, noise=0.5, deformation=True, n_epochs=120,
                      step_sigma=1.5)
    model, _ = deform_predictor.train([ds], epochs=150, seed=0)
    return ds, model


def test_deformed_solve_uses_predicted_offsets(gait_and_model):
    ds, model = gait_and_model
    rigid_track, _ = solve_dataset(ds, mode="rigid")
    deform_track, _ = solve_dataset(ds, mode="deformed", deform_model=model)
    offsets = predict_offsets(ds, ds.cameras, deform_track, model)
    rigid_eval = evaluation.evaluate(rigid_track, ds)
    deform_eval = evaluation.evaluate(deform_track, ds,
                                      deform_offsets_est=offsets)
    # modeling the deformation improves 3D part reconstruction
    assert deform_eval.per_part_rmse_mm.mean() \
        < rigid_eval.per_part_rmse_mm.mean()


def test_rigid_solve_ignores_a_model(gait_and_model):
    ds, model = gait_and_model
    track, report = solve_dataset(ds)
    given, given_report = solve_dataset(ds, mode="rigid", deform_model=model)
    assert np.array_equal(given.poses, track.poses)
    assert np.array_equal(given.residual_rms, track.residual_rms)
    assert given.solved_from == track.solved_from
    assert given_report == report


def _spy_on_solve(monkeypatch):
    """Replace adjustment.solve by a wrapper that records each call's
    tolerance and report."""
    original, calls = adjustment.solve, []

    def spy(problem, track, **kwargs):
        result = original(problem, track, **kwargs)
        calls.append((kwargs.get("tolerance", "default"), result[1]))
        return result

    monkeypatch.setattr(adjustment, "solve", spy)
    return calls


def test_solve_dataset_round_tolerances(monkeypatch, gait_and_model):
    ds, model = gait_and_model
    calls = _spy_on_solve(monkeypatch)
    solve_dataset(ds, mode="deformed", deform_model=model)
    assert [tol for tol, _ in calls] == [adjustment.ROUND_1_TOLERANCE,
                                         adjustment.COST_TOLERANCE]
    assert adjustment.ROUND_1_TOLERANCE > adjustment.COST_TOLERANCE
    calls.clear()
    solve_dataset(ds)
    assert [tol for tol, _ in calls] == [adjustment.COST_TOLERANCE]


def test_solve_dataset_keeps_round_1_report(monkeypatch, gait_and_model):
    ds, model = gait_and_model
    calls = _spy_on_solve(monkeypatch)
    _, report = solve_dataset(ds, mode="deformed", deform_model=model)
    (_, first), (_, second) = calls
    assert report is second and report.first_round is first
    assert first.status == "cost" and first.first_round is None
    assert report.converged and report.status in ("cost", "gradient")
    # round 1 stops early but still lowers the cost
    assert first.final_cost < first.initial_cost
    _, report = solve_dataset(ds)
    assert report.first_round is None


def test_early_round_1_moves_the_track_little(monkeypatch, gait_and_model):
    ds, model = gait_and_model
    track, _ = solve_dataset(ds, mode="deformed", deform_model=model)
    monkeypatch.setattr(adjustment, "ROUND_1_TOLERANCE",
                        adjustment.COST_TOLERANCE)
    full, report = solve_dataset(ds, mode="deformed", deform_model=model)
    assert report.first_round.status == "cost"
    d = np.abs(track.poses - full.poses)
    assert 0 < d[:, :3].max() < 5e-4       # rad
    assert d[:, 3:].max() < 2e-3           # mm


def test_predict_offsets_zero_at_boundaries():
    from mousetrack3d import deform_predictor
    ds = make_dataset(seed=5, deformation=True, n_epochs=40, step_sigma=1.5)
    model, _ = deform_predictor.train([ds], epochs=30, seed=0)
    track = initialize(ds)
    offsets = predict_offsets(ds, ds.cameras, track, model)
    assert np.allclose(offsets[:2], 0.0)
    assert np.allclose(offsets[-2:], 0.0)
    assert np.abs(offsets[2:-2]).max() > 0.0


# -- track IO -----------------------------------------------------------------

def test_track_save_load_roundtrip(tmp_path):
    ds = make_dataset(n_epochs=500, noise=0.5, dropout=0.2)
    track, _ = solve_dataset(ds)
    path = tmp_path / "track.json"
    save_track(track, path)
    loaded = load_track(path)
    assert np.array_equal(loaded.as_array(), track.as_array())
    assert loaded.solved_from == track.solved_from
    assert np.array_equal(loaded.residual_rms, track.residual_rms)
    # a track without residual RMS is written without the block
    track.residual_rms = None
    save_track(track, path)
    assert "residual_rms" not in json.loads(path.read_text())
    loaded = load_track(path)
    assert loaded.residual_rms is None
    assert np.array_equal(loaded.as_array(), track.as_array())
