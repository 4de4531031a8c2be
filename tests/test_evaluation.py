import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mousetrack3d import geometry, mouse_model, simulator
from mousetrack3d.adjustment import (MouseStateTrack, initialize,
                                     triangulate_parts)
from mousetrack3d.errors import EpochMismatch
from mousetrack3d.evaluation import evaluate, geodesic_angle, plot, save_report
from mousetrack3d.geometry import rodrigues_to_matrix


def make_dataset(seed=0, n_epochs=25, **kw):
    config = simulator.SceneConfig(cameras=simulator.default_cameras(),
                                   seed=seed, n_epochs=n_epochs, **kw)
    return simulator.simulate(config)


def gt_track(ds):
    return MouseStateTrack(ds.poses.copy(), ["adjusted"] * ds.n_epochs)


# -- metrics ------------------------------------------------------------------

def test_geodesic_angle_known_rotations():
    Ra = np.eye(3)
    Rb = rodrigues_to_matrix(np.array([0.0, 0.0, np.radians(30)]))
    assert geodesic_angle(Ra, Rb) == pytest.approx(np.radians(30), abs=1e-12)
    assert geodesic_angle(Rb, Rb) == pytest.approx(0.0, abs=1e-7)


def test_ground_truth_track_scores_zero():
    ds = make_dataset(deformation_enabled=False)
    report = evaluate(gt_track(ds), ds)
    assert report.position_error_mm.max() == 0.0
    assert report.rotation_error_deg.max() == pytest.approx(0.0, abs=1e-6)
    assert report.per_part_rmse_mm.max() == pytest.approx(0.0, abs=1e-9)
    assert report.completeness_output == 1.0


def test_shifted_track_unit_error():
    ds = make_dataset()
    shifted = MouseStateTrack(ds.poses + [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                              ["adjusted"] * ds.n_epochs)
    report = evaluate(shifted, ds)
    assert np.allclose(report.position_error_mm, 1.0)
    assert report.position_rmse_mm == pytest.approx(1.0)
    assert report.percentiles["p95"] == pytest.approx(1.0)


def test_evaluate_equals_per_epoch_reference():
    # batched metrics equal, bit for bit, the per-epoch computation
    ds = make_dataset(n_epochs=15)
    rng = np.random.default_rng(0)
    track = MouseStateTrack(
        ds.poses + rng.normal(scale=[0.05] * 3 + [1.0] * 3, size=(15, 6)),
        ["adjusted"] * ds.n_epochs)
    offsets = rng.normal(size=(15, 8, 3))
    report = evaluate(track, ds, deform_offsets_est=offsets)
    part_sq = np.zeros((15, 8))
    for t, (est, gt) in enumerate(zip(track.poses, ds.poses)):
        assert report.position_error_mm[t] == np.linalg.norm(est[3:] - gt[3:])
        assert report.rotation_error_deg[t] == np.degrees(geodesic_angle(
            rodrigues_to_matrix(est[:3]), rodrigues_to_matrix(gt[:3])))
        world = mouse_model.world_part_positions(
            est, mouse_model.COORDS + offsets[t])
        truth = mouse_model.world_part_positions(
            gt, mouse_model.COORDS + ds.deform_offsets[t])
        part_sq[t] = ((world - truth) ** 2).sum(axis=1)
    assert np.array_equal(report.per_part_rmse_mm, np.sqrt(part_sq.mean(axis=0)))


def test_percentiles_of_position_error():
    ds = make_dataset(n_epochs=40)
    rng = np.random.default_rng(1)
    track = MouseStateTrack(
        ds.poses + np.hstack([np.zeros((40, 3)),
                              rng.normal(scale=2.0, size=(40, 3))]),
        ["adjusted"] * ds.n_epochs)
    report = evaluate(track, ds)
    assert sorted(report.percentiles) == ["p50", "p90", "p95"]
    for key, q in (("p50", 50), ("p90", 90), ("p95", 95)):
        assert report.percentiles[key] == np.percentile(
            report.position_error_mm, q), key


def test_completeness_counts_deficient_epochs():
    ds = make_dataset(n_epochs=20)
    ds.visible[4] = False
    ds.visible[5] = False
    report = evaluate(gt_track(ds), ds)
    assert report.completeness_input == pytest.approx(18 / 20)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_completeness_input_is_the_per_frame_share(seed):
    # the criterion-5 scenes of the occluded-batch benchmark: an epoch
    # counts as input when `initialize` poses it, not when one camera sees
    # three parts (0.71 against 0.17 on seed 0)
    ds = make_dataset(seed=seed, n_epochs=100, step_sigma_mm=0.5,
                      noise_sigma_px=0.5, deformation_enabled=False,
                      occlusion=simulator.OcclusionConfig(
                          random_dropout_rate=0.75))
    init = initialize(triangulate_parts(ds, ds.cameras))
    local = np.mean(np.array(init.solved_from) == "local")
    assert evaluate(gt_track(ds), ds).completeness_input == local


def test_epoch_mismatch_raises(tmp_path):
    ds = make_dataset(n_epochs=10)
    short = MouseStateTrack(ds.poses[:8], ["adjusted"] * 8)
    with pytest.raises(EpochMismatch):
        evaluate(short, ds)
    with pytest.raises(EpochMismatch):
        plot(short, ds, tmp_path)
    assert not any(tmp_path.iterdir())


def test_deform_offsets_improve_part_scores():
    ds = make_dataset(step_sigma_mm=1.5)
    rigid = evaluate(gt_track(ds), ds)
    exact = evaluate(gt_track(ds), ds, deform_offsets_est=ds.deform_offsets)
    assert exact.per_part_rmse_mm.max() == pytest.approx(0.0, abs=1e-9)
    assert rigid.per_part_rmse_mm.mean() > exact.per_part_rmse_mm.mean()


def test_report_json_roundtrip(tmp_path):
    ds = make_dataset()
    report = evaluate(gt_track(ds), ds)
    path = tmp_path / "report.json"
    save_report(report, path, extra={"config_hash": "abc"})
    doc = json.loads(path.read_text())
    assert doc["config_hash"] == "abc"
    assert doc["n_epochs"] == ds.n_epochs
    assert len(doc["position_error_mm"]) == ds.n_epochs
    assert len(doc["per_part_rmse_mm"]) == 8


# -- plots --------------------------------------------------------------------

def test_plot_writes_all_artifacts(tmp_path):
    ds = make_dataset(n_epochs=15)
    written = plot(gt_track(ds), ds, tmp_path / "plots")
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["reprojection_cam0.csv", "reprojection_cam1.csv",
                     "reprojection_cam2.csv", "track_parameters.csv",
                     "track_topdown.svg"]


def test_svg_well_formed_single_path(tmp_path):
    ds = make_dataset(n_epochs=30)
    plot(gt_track(ds), ds, tmp_path)
    root = ET.parse(tmp_path / "track_topdown.svg").getroot()
    assert root.tag.endswith("svg")
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == 1
    # one polyline vertex per epoch
    assert paths[0].get("d").count(" L ") == ds.n_epochs - 1


def test_svg_stationary_track(tmp_path):
    ds = make_dataset(n_epochs=10, step_sigma_mm=0.0)
    plot(gt_track(ds), ds, tmp_path)
    root = ET.parse(tmp_path / "track_topdown.svg").getroot()
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    # all vertices coincide: a single-point polyline
    coords = set(c.strip()
                 for c in paths[0].get("d").replace("M", "L").split("L")[1:])
    assert len(coords) == 1


def test_parameter_csv_contents(tmp_path):
    ds = make_dataset(n_epochs=12)
    plot(gt_track(ds), ds, tmp_path)
    with open(tmp_path / "track_parameters.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert float(rows[3]["tx_mm"]) == pytest.approx(
        ds.poses[3, 3], abs=1e-6)
    assert rows[0]["solved_from"] == "adjusted"


def test_reprojection_csv_matches_observations(tmp_path):
    ds = make_dataset(n_epochs=10, noise_sigma_px=0.0,
                      deformation_enabled=False)
    plot(gt_track(ds), ds, tmp_path)
    with open(tmp_path / "reprojection_cam0.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows
    for row in rows[:20]:
        # noiseless rigid data: the overlay reprojects onto the observation
        assert float(row["u_proj"]) == pytest.approx(float(row["u_obs"]),
                                                     abs=1e-3)
        assert float(row["v_proj"]) == pytest.approx(float(row["v_obs"]),
                                                     abs=1e-3)


def test_reprojection_overlay_poses_the_deformed_model(tmp_path):
    # the overlay projects the parts that `evaluate` scores: the model plus
    # the given offsets, at the track's poses
    ds = make_dataset(n_epochs=10, step_sigma_mm=1.5)
    track = gt_track(ds)
    offsets = np.random.default_rng(2).normal(scale=3.0, size=(10, 8, 3))
    plot(track, ds, tmp_path, deform_offsets_est=offsets)
    world = mouse_model.world_part_positions(
        track.poses, mouse_model.COORDS + offsets)
    for k, cam in enumerate(ds.cameras):
        proj, _ = geometry.project_many(cam, world.reshape(-1, 3))
        proj = proj.reshape(10, 8, 2)
        with open(tmp_path / f"reprojection_cam{k}.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == ds.visible[:, k].sum()
        for row in rows:
            u, v = proj[int(row["t"]), int(row["part"])]
            assert (row["u_proj"], row["v_proj"]) == (f"{u:.4f}", f"{v:.4f}")
