"""Metamorphic tests: transformations of a recording that must leave the
solve unchanged, or move it by the same translation, so no reference
solution is needed. A world rotation is not among them: the cubic
interpolates rotation vectors component by component, so turning the world
changes the solve.

Each runs on short criterion-5-type scenes (75% dropout, smoothness weight
0.1), where about a third of the epochs have fewer than three visible parts
in every camera. Tracks are compared by translation (mm) and by rotation
matrix entries; the tolerances sit well above the differences measured on
these scenes and far below the solver's ~1 mm accuracy.
"""

import dataclasses

import numpy as np
import pytest

from mousetrack3d import adjustment, geometry, simulator
from mousetrack3d.adjustment import StochasticConfig

SEEDS = range(6)
STOCHASTIC = StochasticConfig(smoothness_weight=0.1)
# largest differences measured on SEEDS, translation / rotation entry /
# relative final cost: reversal 5.6e-10 mm / 7.6e-11 / 3.0e-15; K x 2
# exactly 0; permutation 8.7e-14 mm / 6.4e-15 / 3.2e-15; world origin
# moved 1000 mm 5.0e-9 mm / 6.6e-10 / 1.3e-14
REVERSAL_TOL_MM, REVERSAL_TOL_ROT = 1e-6, 1e-7
EXACT_TOL_MM, EXACT_TOL_ROT = 1e-10, 1e-11
SHIFT_TOL_MM, SHIFT_TOL_ROT = 1e-6, 1e-7


def _scene(seed):
    return simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=40,
        step_sigma_mm=0.5, noise_sigma_px=0.5, deformation_enabled=False,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.75)))


def _solve(dataset, cameras=None):
    return adjustment.solve_dataset(dataset, cameras=cameras,
                                    stochastic=STOCHASTIC)


@pytest.fixture(scope="module")
def solved():
    return [(ds, *_solve(ds)) for ds in map(_scene, SEEDS)]


def _assert_same_solve(a, report_a, b, report_b, tol_mm, tol_rot):
    assert report_b.iterations == report_a.iterations
    assert report_b.status == report_a.status
    assert report_b.final_cost == pytest.approx(report_a.final_cost, rel=1e-12)
    assert np.abs(b.poses[:, 3:] - a.poses[:, 3:]).max() < tol_mm
    Ra, Rb = (geometry.rodrigues_to_matrix(p[:, :3]) for p in (a.poses, b.poses))
    assert np.abs(Rb - Ra).max() < tol_rot


def test_time_reversed_recording_gives_reversed_track(solved):
    # the window table is mirror-symmetric, so reversing time maps every
    # residual onto one of the reversed recording's
    per_epoch = ("poses", "deform_offsets", "observations", "visible")
    for ds, track, report in solved:
        reversed_ds = dataclasses.replace(
            ds, **{key: getattr(ds, key)[::-1].copy() for key in per_epoch})
        back, back_report = _solve(reversed_ds)
        back.poses = back.poses[::-1]
        _assert_same_solve(track, report, back, back_report,
                           REVERSAL_TOL_MM, REVERSAL_TOL_ROT)


def test_scaled_calibration_gives_same_solve(solved):
    # K p and 2 K p are the same image point
    for ds, track, report in solved:
        cameras = [dataclasses.replace(c, calibration=2 * c.calibration)
                   for c in ds.cameras]
        scaled, scaled_report = _solve(ds, cameras)
        _assert_same_solve(track, report, scaled, scaled_report,
                           EXACT_TOL_MM, EXACT_TOL_ROT)


def test_permuted_camera_slots_give_same_solve(solved):
    # the camera now in slot j keeps its calibration and pose and takes id j
    order = [2, 0, 1]
    for ds, track, report in solved:
        cameras = [dataclasses.replace(ds.cameras[k], id=j)
                   for j, k in enumerate(order)]
        permuted_ds = dataclasses.replace(
            ds, config=dataclasses.replace(ds.config, cameras=cameras),
            **{key: getattr(ds, key)[:, order].copy()
               for key in ("observations", "visible")})
        permuted, permuted_report = _solve(permuted_ds)
        _assert_same_solve(track, report, permuted, permuted_report,
                           EXACT_TOL_MM, EXACT_TOL_ROT)


def test_moved_world_origin_gives_translated_track(solved):
    # the world origin moves by -d: a world point X becomes X + d, so the
    # cameras map it by t_c - R_c d and the truth moves by d; the pixels stay
    d = np.array([1000.0, 0.0, 0.0])
    for ds, track, report in solved:
        cameras = [dataclasses.replace(c, pose_global=geometry.RigidTransform(
            c.pose_global.rotation,
            c.pose_global.translation - c.pose_global.rotation @ d))
            for c in ds.cameras]
        poses = ds.poses.copy()
        poses[:, 3:] += d
        moved_ds = dataclasses.replace(
            ds, config=dataclasses.replace(ds.config, cameras=cameras),
            poses=poses)
        moved, moved_report = _solve(moved_ds)
        moved.poses[:, 3:] -= d
        _assert_same_solve(track, report, moved, moved_report,
                           SHIFT_TOL_MM, SHIFT_TOL_ROT)
