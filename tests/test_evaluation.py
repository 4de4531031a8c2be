import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mousetrack3d import evaluation, geometry, mouse_model, simulator
from mousetrack3d.adjustment import MouseStateTrack
from mousetrack3d.errors import EpochMismatch
from mousetrack3d.evaluation import evaluate, geodesic_angle, plot, save_report
from mousetrack3d.geometry import PoseVector, rodrigues_to_matrix


def make_dataset(seed=0, n_epochs=25, **kw):
    config = simulator.SceneConfig(cameras=simulator.default_cameras(),
                                   seed=seed, n_epochs=n_epochs, **kw)
    return simulator.simulate(config)


def gt_track(ds):
    return MouseStateTrack(list(ds.poses), ["adjusted"] * ds.n_epochs)


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
    shifted = MouseStateTrack(
        [PoseVector(p.rodrigues, p.translation + [1.0, 0.0, 0.0])
         for p in ds.poses], ["adjusted"] * ds.n_epochs)
    report = evaluate(shifted, ds)
    assert np.allclose(report.position_error_mm, 1.0)
    assert report.position_rmse_mm == pytest.approx(1.0)
    assert report.percentiles["p95"] == pytest.approx(1.0)


def test_evaluate_equals_per_epoch_reference():
    # batched metrics equal, bit for bit, the per-epoch computation
    ds = make_dataset(n_epochs=15)
    rng = np.random.default_rng(0)
    track = MouseStateTrack(
        [PoseVector(p.rodrigues + rng.normal(scale=0.05, size=3),
                    p.translation + rng.normal(size=3)) for p in ds.poses],
        ["adjusted"] * ds.n_epochs)
    offsets = rng.normal(size=(15, 8, 3))
    report = evaluate(track, ds, deform_offsets_est=offsets)
    part_sq = np.zeros((15, 8))
    for t, (est, gt) in enumerate(zip(track.poses, ds.poses)):
        assert report.position_error_mm[t] == np.linalg.norm(
            est.translation - gt.translation)
        assert report.rotation_error_deg[t] == np.degrees(geodesic_angle(
            rodrigues_to_matrix(est.rodrigues), rodrigues_to_matrix(gt.rodrigues)))
        pts = mouse_model.RigidMouseModel().coords + offsets[t]
        world = geometry.apply(geometry.pose_to_transform(est), pts)
        part_sq[t] = ((world - ds.deformable_world[t]) ** 2).sum(axis=1)
    assert np.array_equal(report.per_part_rmse_mm, np.sqrt(part_sq.mean(axis=0)))


def test_completeness_counts_deficient_epochs():
    ds = make_dataset(n_epochs=20)
    ds.visible[4] = False
    ds.visible[5] = False
    report = evaluate(gt_track(ds), ds)
    assert report.completeness_input == pytest.approx(18 / 20)


def test_epoch_mismatch_raises():
    ds = make_dataset(n_epochs=10)
    short = MouseStateTrack(list(ds.poses[:8]), ["adjusted"] * 8)
    with pytest.raises(EpochMismatch):
        evaluate(short, ds)


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
        ds.poses[3].translation[0], abs=1e-6)
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
