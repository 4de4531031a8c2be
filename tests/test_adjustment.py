import json

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
from mousetrack3d.errors import InconsistentCameraIds, NoSolvableEpoch, SchemaError
from mousetrack3d.geometry import PoseVector


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
    pts = mouse_model.RigidMouseModel().coords
    if offsets is None:
        return Problem(ds, ds.cameras, pts, stochastic,
                       stochastic.sigma_px_deformation)
    return Problem(ds, ds.cameras, pts + offsets, stochastic,
                   stochastic.sigma_px_geometric)


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
    assert problem.n_residuals == 2 * problem.n_obs + 12 * 500


def test_problem_rigid_kind_without_model():
    ds = make_dataset(n_epochs=10)
    problem = build_problem(ds, ds.cameras)
    assert problem.sigma_px == StochasticConfig().sigma_px_deformation
    assert problem.model_pts.shape == (8, 3)


def test_zero_smoothness_weight_block_diagonal():
    ds = make_dataset(n_epochs=10, noise=0.5)
    problem = build_problem(
        ds, ds.cameras,
        stochastic=StochasticConfig(smoothness_weight=0.0))
    track = initialize(ds)
    J = problem.jacobian(track.as_array().ravel())
    N = (J.T @ J).toarray()
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
    assert problem.sigma_px == StochasticConfig().sigma_px_geometric
    assert problem.model_pts.shape == (15, 8, 3)
    # ground-truth offsets make the ground-truth track almost reprojection-free
    rp, _ = problem.residual_rms(gt_track(ds).as_array())
    assert rp < 1e-9


# -- jacobian -----------------------------------------------------------------

def band_to_dense(N):
    """Lower triangle of the matrix held in lower banded storage N."""
    n = N.shape[1]
    L = np.zeros((n, n))
    for k in range(N.shape[0]):
        L[np.arange(k, n), np.arange(n - k)] = N[k, :n - k]
    return L


@pytest.mark.parametrize("n_epochs", [5, 6, 12])
@pytest.mark.parametrize("kind", ["rigid", "deformed", "smoothness_only"])
def test_normal_equations_match_dense_jacobian(n_epochs, kind):
    ds = make_dataset(n_epochs=n_epochs, noise=0.5, step_sigma=1.5,
                      deformation=kind == "deformed")
    if kind == "smoothness_only":
        ds.visible[:] = False
    stochastic = StochasticConfig(smoothness_weight=0.7)
    offsets = ds.deform_offsets if kind == "deformed" else None
    problem = make_problem(ds, offsets=offsets, stochastic=stochastic)
    rng = np.random.default_rng(n_epochs)
    x = gt_track(ds).as_array() + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                             size=(n_epochs, 6))
    J = problem.jacobian(x.ravel()).toarray()
    r = problem.residuals(x.ravel())
    N, g = problem.normal_equations(x.ravel())

    JtJ = J.T @ J
    u = min(29, 6 * n_epochs - 1)
    assert N.shape == (u + 1, 6 * n_epochs)
    i, j = np.indices(JtJ.shape)
    assert np.all(JtJ[np.abs(i - j) > u] == 0.0)
    assert (np.abs(band_to_dense(N) - np.tril(JtJ)).max()
            <= 1e-12 * np.abs(JtJ).max())
    Jtr = J.T @ r
    assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()


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
    J = problem.jacobian(x.ravel()).toarray()
    N, g = problem.normal_equations(x.ravel())
    JtJ = J.T @ J
    assert (np.abs(band_to_dense(N) - np.tril(JtJ)).max()
            <= 1e-12 * np.abs(JtJ).max())
    Jtr = J.T @ problem.residuals(x.ravel())
    assert np.abs(g - Jtr).max() <= 1e-12 * np.abs(Jtr).max()


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
    assert (problem.cost(canon.ravel())
            == pytest.approx(problem.cost(x.ravel()), rel=1e-12, abs=0.0))


def test_four_point_smoothness_equals_grid_sum():
    # other grids' four weighted points: test_track_constraint's
    # test_grid_factor_reproduces_grid_sums
    grid = track_constraint.default_grid()
    ds = make_dataset(n_epochs=9, step_sigma=1.5)
    ds.visible[:] = False
    w = 0.7
    problem = make_problem(ds, stochastic=StochasticConfig(smoothness_weight=w))
    rng = np.random.default_rng(4)
    x = gt_track(ds).as_array() + rng.normal(scale=[0.1] * 3 + [5.0] * 3,
                                             size=(9, 6))
    # oracle: every grid point's displacement under H_t S_t^-1
    sq = 0.0
    for t in range(9):
        nodes, weights = track_constraint.interpolation_window(t, 9)
        s = weights @ x[nodes]
        H = geometry.pose_to_transform(PoseVector(x[t, :3], x[t, 3:]))
        S = geometry.pose_to_transform(PoseVector(s[:3], s[3:]))
        sq += (track_constraint.grid_displacements(H, S, grid) ** 2).sum()
    assert problem.n_residuals == 12 * 9
    assert abs(problem.cost(x.ravel()) - w ** 2 * sq) <= 1e-12 * w ** 2 * sq
    _, sm_rms = problem.residual_rms(x.ravel())
    assert sm_rms == pytest.approx(np.sqrt(sq / (3 * grid.n_points * 9)),
                                   rel=1e-12)


def per_epoch_smoothness(problem, x):
    """Problem's smoothness sum of squares per epoch, over w^2."""
    r = problem.residuals(x.ravel())[2 * problem.n_obs:]
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


# -- solver -------------------------------------------------------------------

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
    assert problem.cost(track.as_array().ravel()) \
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
    model_pts = mouse_model.RigidMouseModel().coords
    stochastic = StochasticConfig()
    problem = IndefiniteFirstStep(ds, ds.cameras, model_pts, stochastic,
                                  stochastic.sigma_px_deformation)
    attempts = []   # (damped diagonal of entry 0, factorization succeeded)
    factorize = scipy.linalg.cholesky_banded

    def recording(ab, *args, **kwargs):
        try:
            out = factorize(ab, *args, **kwargs)
        except np.linalg.LinAlgError:
            attempts.append((ab[0, 0], False))
            raise
        attempts.append((ab[0, 0], True))
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
    model_pts = mouse_model.RigidMouseModel().coords
    stochastic = StochasticConfig()
    problem = IndefiniteBand(ds, ds.cameras, model_pts, stochastic,
                             stochastic.sigma_px_deformation)
    init = initialize(ds)
    track, report = solve(problem, init)
    assert report.status == "no_descent"
    assert not report.converged
    assert report.iterations == 1
    assert report.final_cost == report.initial_cost
    assert np.array_equal(track.poses, init.poses)


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
    rr = (r[:2 * problem.n_obs] * problem.sigma_px).reshape(-1, 2)
    expect = np.zeros(20)
    for t in range(20):
        sel = problem.obs_t == t
        if sel.any():
            expect[t] = np.sqrt((rr[sel] ** 2).sum(axis=1).mean())
    assert track.residual_rms[7] == 0.0
    assert np.allclose(track.residual_rms, expect, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("kwargs", [
    {"smoothness_weight": -0.5}, {"smoothness_weight": np.nan},
    {"smoothness_weight": np.inf}, {"sigma_px_geometric": 0.0},
    {"sigma_px_deformation": np.nan}])
def test_stochastic_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        StochasticConfig(**kwargs)


def test_deformed_solve_uses_predicted_offsets():
    from mousetrack3d import deform_predictor
    ds = make_dataset(seed=4, noise=0.5, deformation=True, n_epochs=120,
                      step_sigma=1.5)
    model, _ = deform_predictor.train([ds], epochs=150, seed=0)
    rigid_track, _ = solve_dataset(ds, mode="rigid")
    deform_track, _ = solve_dataset(ds, mode="deformed", deform_model=model)
    offsets = predict_offsets(ds, ds.cameras, deform_track, model)
    rigid_eval = evaluation.evaluate(rigid_track, ds)
    deform_eval = evaluation.evaluate(deform_track, ds,
                                      deform_offsets_est=offsets)
    # modeling the deformation improves 3D part reconstruction
    assert deform_eval.per_part_rmse_mm.mean() \
        < rigid_eval.per_part_rmse_mm.mean()


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
    ds = make_dataset(n_epochs=12, noise=0.5)
    track, _ = solve_dataset(ds)
    path = tmp_path / "track.json"
    save_track(track, path)
    loaded = load_track(path)
    assert np.allclose(loaded.as_array(), track.as_array())
    assert loaded.solved_from == track.solved_from
    assert np.allclose(loaded.residual_rms, track.residual_rms)


def test_track_load_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"t": 0, "rodrigues": [0, 0, 0]}]')
    with pytest.raises(SchemaError, match="translation_mm"):
        load_track(path)


def _records(ts, **fields):
    return json.dumps([dict({"t": t, "rodrigues": [0, 0, 0],
                             "translation_mm": [0, 0, 0]}, **fields)
                       for t in ts])


@pytest.mark.parametrize("text, match", [
    ('[{"rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]},'
     ' {"rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}]', "'t'"),
    ('[{"t": 0, "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}, 3]',
     "objects"),
    ('[{"t": "0", "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]},'
     ' {"t": 1, "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}]',
     "integer"),
    ('[{"t": 0, "rodrigues": [0, 0], "translation_mm": [0, 0, 0]}]',
     "rodrigues"),
    ('[{"t": 0, "rodrigues": [0, 0, 0], "translation_mm": ["a", 0, 0]}]',
     "translation_mm"),
    (_records([0, 0, 5]), "duplicate pose t = 0"),
    # 20 records with t = 2 twice and no t = 3
    (_records([0, 1, 2, 2] + list(range(4, 20))), "duplicate pose t = 2"),
    (_records([0, 1, 3]), "t = 3 outside 0..2"),
    ("[]", "non-empty"),
    (_records([0], solved_from="guessed"), "solved_from"),
    (_records([0], residual_rms=[1.0]), "residual_rms"),
])
def test_track_load_malformed_records(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        load_track(path)


def test_track_load_accepts_shuffled_records(tmp_path):
    ds = make_dataset(n_epochs=12, noise=0.5)
    track, _ = solve_dataset(ds)
    path = tmp_path / "track.json"
    save_track(track, path)
    records = json.loads(path.read_text())
    path.write_text(json.dumps(records[::-1]))
    loaded = load_track(path)
    assert np.array_equal(loaded.as_array(), track.as_array())
    assert loaded.solved_from == track.solved_from
    assert np.array_equal(loaded.residual_rms, track.residual_rms)
