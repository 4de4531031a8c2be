"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible under pytest -v -s or on failure).
"""

import json
import time

import numpy as np

from mousetrack3d import (
    adjustment,
    cli,
    deform_predictor,
    evaluation,
    geometry,
    simulator,
    track_constraint,
)
from mousetrack3d.adjustment import MouseStateTrack, StochasticConfig


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _scene(**kw):
    kw.setdefault("cameras", simulator.default_cameras())
    return simulator.SceneConfig(**kw)


# -- 1. geometry closure -------------------------------------------------------

def test_criterion_1_geometry_closure():
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst_tri = 0.0
    worst_dec = 0.0
    for _ in range(1000):
        # random camera pair with a guaranteed-visible point
        f = rng.uniform(800, 2000)
        K = np.array([[f, 0, rng.uniform(300, 700)],
                      [0, f, rng.uniform(300, 700)], [0, 0, 1.0]])
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0.05, np.pi - 0.1)
        pose = geometry.RigidTransform(geometry.rodrigues_to_matrix(r),
                                       rng.normal(scale=100, size=3))
        cam = geometry.CameraModel(K, pose)
        X = cam.center() + pose.rotation.T @ np.array(
            [rng.normal(scale=50), rng.normal(scale=50),
             rng.uniform(300, 1500)])
        # a second camera: the first one orbited 40 degrees about the point,
        # so the point keeps the same (positive) depth in both views
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        Rb = geometry.rodrigues_to_matrix(axis * np.radians(40))
        pose_b = geometry.RigidTransform(
            pose.rotation @ Rb, pose.rotation @ (X - Rb @ X) + pose.translation)
        cam_b = geometry.CameraModel(K, pose_b)
        rec, ok = geometry.triangulate_batch(
            [cam, cam_b],
            np.array([[geometry.project(cam, X), geometry.project(cam_b, X)]]),
            np.ones((1, 2), bool))
        worst_tri = max(worst_tri, float(np.abs(rec[0] - X).max())
                        if ok[0] else np.inf)

        P = cam.projection_matrix() * rng.choice([-2.0, 0.5, 3.0])
        cam2 = geometry.decompose_projection(P)
        P2 = cam2.projection_matrix()
        Pref = cam.projection_matrix()
        s = np.sum(P2 * Pref) / np.sum(Pref * Pref)
        worst_dec = max(worst_dec, float(
            np.abs(P2 - s * Pref).max() / np.abs(Pref).max()))
    elapsed = time.time() - t0
    ok = worst_tri < 1e-6 and worst_dec < 1e-9 and elapsed < 5.0
    _verdict(1, "geometry closure", ok,
             f"triangulation {worst_tri:.2e} mm, decomposition {worst_dec:.2e} "
             f"rel, {elapsed:.2f} s")


# -- 2. spline exactness --------------------------------------------------------

def test_criterion_2_spline_exactness():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        coeff = rng.normal(size=(6, 4))

        def params(t):
            return coeff @ np.array([1.0, t, t * t, t ** 3])

        scale = [0.05] * 3 + [1.0] * 3
        q = track_constraint.spline_interpolate(
            [params(o) * scale for o in (-2, -1, 1, 2)])
        worst = max(worst, float(np.abs(q - params(0.0) * scale).max()))
    # uniform linear motion has zero residual at every epoch
    track = np.array([[0.0, 0.0, 0.002 * t, 3.0 * t, -t, 0.5 * t]
                      for t in range(20)])
    worst_lin = max(np.abs(track_constraint.track_residual(track, t)).max()
                    for t in range(20))
    ok = worst < 1e-9 and worst_lin < 1e-9
    _verdict(2, "spline exactness", ok,
             f"cubic {worst:.2e}, linear-motion residual {worst_lin:.2e}")


# -- 3. grid metric --------------------------------------------------------------

def test_criterion_3_grid_metric():
    rng = np.random.default_rng(2)
    # 50 cases, one pose row each: S, a distinct H near it, and S moved by
    # a pure translation delta
    S, H, delta = np.empty((50, 6)), np.empty((50, 6)), np.empty((50, 3))
    for n in range(50):
        S[n, :3] = rng.normal(size=3) * 0.5
        S[n, 3:] = rng.normal(scale=20, size=3)
        H[n, :3] = S[n, :3] + rng.normal(size=3) * 0.01
        H[n, 3:] = S[n, 3:] + rng.normal(size=3) * 0.1
        delta[n] = rng.normal(scale=5, size=3)
    Ht = S + np.column_stack([np.zeros((50, 3)), delta])
    # identity case: zero; distinct poses: strictly positive; pure
    # translation: rmse equals |delta| to 1e-12
    err = np.abs(track_constraint.grid_rmse(Ht, S)
                 - np.linalg.norm(delta, axis=1))
    ok = bool((track_constraint.grid_rmse(S, S) <= 1e-12).all()
              and (track_constraint.grid_rmse(H, S) > 0.0).all()
              and (err <= 1e-12).all())
    _verdict(3, "grid metric", ok,
             f"translation identity error {err.max():.2e} mm")


# -- 4. noiseless end-to-end -----------------------------------------------------

def test_criterion_4_noiseless_end_to_end():
    t0 = time.time()
    ds = simulator.simulate(_scene(seed=0, n_epochs=200, noise_sigma_px=0.0,
                                   deformation_enabled=False))
    track, _ = adjustment.solve_dataset(
        ds, stochastic=StochasticConfig(smoothness_weight=3e-5))
    report = evaluation.evaluate(track, ds)
    elapsed = time.time() - t0
    pos = report.position_error_mm.max()
    rot = np.radians(report.rotation_error_deg).max()
    ok = pos < 1e-4 and rot < 1e-6 and elapsed < 30.0
    _verdict(4, "noiseless end-to-end", ok,
             f"pos {pos:.2e} mm, rot {rot:.2e} rad, {elapsed:.1f} s")


# -- 5. completeness claim -------------------------------------------------------

def test_criterion_5_completeness_claim():
    ratios = []
    ok = True
    for seed in range(10):
        ds = simulator.simulate(_scene(
            seed=seed, n_epochs=100, step_sigma_mm=0.5, noise_sigma_px=0.5,
            deformation_enabled=False,
            occlusion=simulator.OcclusionConfig(random_dropout_rate=0.75)))
        deficient = (ds.visible.sum(axis=2) < 3).all(axis=1)
        if deficient.mean() < 0.10:
            ok = False
        # per-frame baseline cannot pose the deficient epochs
        init = adjustment.initialize(
            adjustment.triangulate_parts(ds, ds.cameras))
        if any(init.solved_from[t] == "local"
               for t in np.flatnonzero(deficient)):
            ok = False
        track, _ = adjustment.solve_dataset(
            ds, stochastic=StochasticConfig(smoothness_weight=0.1))
        report = evaluation.evaluate(track, ds)
        if report.completeness_output != 1.0:
            ok = False
        errs = report.position_error_mm
        rmse_all = np.sqrt((errs ** 2).mean())
        rmse_obs = np.sqrt((errs[~deficient] ** 2).mean())
        ratios.append(rmse_all / rmse_obs)
    if max(ratios) > 2.0:
        ok = False
    _verdict(5, "completeness claim", ok,
             f"10 seeds, max RMSE ratio {max(ratios):.2f} (limit 2.0)")


# -- 6. deformation benefit ------------------------------------------------------

def gait_dataset(seed, n_epochs=120):
    return simulator.simulate(_scene(seed=seed, n_epochs=n_epochs,
                                     step_sigma_mm=1.5, noise_sigma_px=0.5))


def test_criterion_6_deformation_benefit():
    train_sets = [gait_dataset(100, 300), gait_dataset(101, 300)]
    model, _ = deform_predictor.train(train_sets, epochs=200, seed=0)
    mse, base = deform_predictor.evaluate_mse(model, [gait_dataset(102, 300)])
    factor = base / mse
    wins = 0
    for seed in range(10):
        ds = gait_dataset(seed)
        rigid_track, _ = adjustment.solve_dataset(ds, mode="rigid")
        deform_track, _ = adjustment.solve_dataset(ds, mode="deformed",
                                                   deform_model=model)
        offsets = adjustment.predict_offsets(ds, ds.cameras, deform_track,
                                             model)
        rigid_rmse = evaluation.evaluate(
            rigid_track, ds).per_part_rmse_mm.mean()
        deform_rmse = evaluation.evaluate(
            deform_track, ds,
            deform_offsets_est=offsets).per_part_rmse_mm.mean()
        wins += deform_rmse <= rigid_rmse
    ok = wins >= 9 and factor >= 2.0
    _verdict(6, "deformation benefit", ok,
             f"{wins}/10 wins, held-out MSE factor {factor:.2f}")


# -- 7. jacobian validity --------------------------------------------------------

def test_criterion_7_jacobian_validity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        ds = simulator.simulate(_scene(
            seed=int(rng.integers(10000)), n_epochs=5,
            noise_sigma_px=float(rng.uniform(0.0, 1.0)),
            occlusion=simulator.OcclusionConfig(
                random_dropout_rate=float(rng.uniform(0.0, 0.4)))))
        if trial % 2 == 1:
            ds.visible[:] = False  # smoothness blocks only
        problem = adjustment.build_problem(
            ds, ds.cameras,
            stochastic=StochasticConfig(
                smoothness_weight=float(rng.uniform(1e-3, 1.0))))
        poses = ds.poses + rng.normal(scale=[0.2] * 3 + [8.0] * 3,
                                      size=(5, 6))
        track = MouseStateTrack(poses, ["local"] * 5)
        worst = max(worst, adjustment.check_jacobian(problem, track))
    ok = worst < 1e-5
    _verdict(7, "jacobian validity",
             ok, f"worst relative deviation {worst:.2e} over 100 configs")


# -- 8. determinism ---------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps(
        {"scene": {"n_epochs": 60, "seed": 3, "noise_sigma_px": 0.5},
         "solve": {"mode": "rigid"}}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["pipeline", "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    ok = outs[0] == outs[1]
    _verdict(8, "determinism", ok,
             f"report bytes {'identical' if ok else 'differ'}")


# -- 9. desk-scale performance ----------------------------------------------------

def test_criterion_9_performance():
    ds = simulator.simulate(_scene(
        seed=0, n_epochs=500, noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2)))
    t0 = time.time()
    track, report = adjustment.solve_dataset(ds)
    elapsed = time.time() - t0
    ok = elapsed < 60.0 and track.n_epochs == 500 and report.converged
    _verdict(9, "desk-scale performance", ok,
             f"500-epoch solve in {elapsed:.1f} s ({report.iterations} "
             f"iterations)")
