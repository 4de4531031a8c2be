import json
import os

import pytest

from mousetrack3d import cli


def run(*argv):
    return cli.main(list(argv))


def scene_file(tmp_path, **kw):
    doc = {"n_epochs": 40, "seed": 1, "step_sigma_mm": 1.0,
           "noise_sigma_px": 0.5}
    doc.update(kw)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- individual commands ------------------------------------------------------

def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "data.json"
    assert run("simulate", "--config", scene_file(tmp_path),
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["ground_truth"]["poses"]) == 40


def test_simulate_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--config", str(bad),
               "--out", str(tmp_path / "x.json")) == 2


def test_solve_missing_data_exit_2(tmp_path):
    assert run("solve", "--data", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "track.json")) == 2


def test_solve_deformed_without_model_exit_2(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    assert run("solve", "--data", str(data), "--mode", "deformed",
               "--out", str(tmp_path / "track.json")) == 2


@pytest.mark.parametrize("case", ["negative_t", "camera_out_of_range",
                                  "pose_missing_rodrigues", "duplicate_pose_t"])
def test_solve_malformed_dataset_exit_2(tmp_path, case):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=10),
        "--out", str(data))
    doc = json.loads(data.read_text())
    rows, poses = doc["observations"]["rows"], doc["ground_truth"]["poses"]
    if case == "negative_t":
        rows[0][0] = -1
    elif case == "camera_out_of_range":
        rows[0][1] = 9
    elif case == "pose_missing_rodrigues":
        del poses[3]["rodrigues"]
    else:
        poses[4]["t"] = 3
    data.write_text(json.dumps(doc))
    assert run("solve", "--data", str(data),
               "--out", str(tmp_path / "track.json")) == 2


@pytest.mark.parametrize("records", [
    [{"rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}] * 2,
    [1, 2],
])
def test_evaluate_malformed_track_exit_2(tmp_path, records):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    track = tmp_path / "track.json"
    track.write_text(json.dumps(records))
    assert run("evaluate", "--data", str(data), "--track", str(track),
               "--out", str(tmp_path / "report.json")) == 2


def test_simulate_solve_evaluate_plot_chain(tmp_path):
    data = tmp_path / "data.json"
    track = tmp_path / "track.json"
    report = tmp_path / "report.json"
    plots = tmp_path / "plots"
    assert run("simulate", "--config", scene_file(tmp_path),
               "--out", str(data)) == 0
    assert run("solve", "--data", str(data), "--out", str(track)) == 0
    assert run("evaluate", "--data", str(data), "--track", str(track),
               "--out", str(report)) == 0
    assert run("plot", "--data", str(data), "--track", str(track),
               "--out-dir", str(plots)) == 0
    doc = json.loads(report.read_text())
    assert doc["completeness_output"] == 1.0
    assert doc["position_rmse_mm"] < 5.0
    assert "config_hash" in doc
    assert (plots / "track_topdown.svg").exists()


def test_train_deform_writes_model(tmp_path):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=60),
        "--out", str(data))
    model = tmp_path / "model.json"
    assert run("train-deform", "--data", str(data), "--epochs", "5",
               "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    assert doc["format_version"] == 1


# -- pipeline -----------------------------------------------------------------

def pipeline_config(tmp_path, name="pipe.json", **scene):
    scene_doc = {"n_epochs": 40, "seed": 1, "noise_sigma_px": 0.5}
    scene_doc.update(scene)
    doc = {"scene": scene_doc, "solve": {"mode": "rigid"}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_pipeline_default_smoke(tmp_path):
    out = tmp_path / "run"
    assert run("pipeline", "--config", pipeline_config(tmp_path),
               "--out-dir", str(out), "--seed", "1") == 0
    for name in ("data.json", "track.json", "report.json",
                 "track_topdown.svg", "track_parameters.csv"):
        assert (out / name).exists()


def test_pipeline_byte_identical_reports(tmp_path):
    cfg = pipeline_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("pipeline", "--config", cfg, "--out-dir", str(a)) == 0
    assert run("pipeline", "--config", cfg, "--out-dir", str(b)) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "track.json").read_bytes() == (b / "track.json").read_bytes()


def test_pipeline_check_negative_control(tmp_path, capsys):
    # sabotaged solve: no smoothness coupling plus crushing dropout leaves
    # deficient epochs unconstrained, so the completeness check must fail
    doc = {"scene": {"n_epochs": 60, "seed": 0, "noise_sigma_px": 0.5,
                     "occlusion": {"random_dropout_rate": 0.75}},
           "solve": {"mode": "rigid", "ws": 0.0}}
    path = tmp_path / "sabotage.json"
    path.write_text(json.dumps(doc))
    code = run("pipeline", "--config", str(path),
               "--out-dir", str(tmp_path / "run"), "--check")
    assert code == 4
    assert "completeness" in capsys.readouterr().err


def test_pipeline_check_passes_on_good_config(tmp_path):
    assert run("pipeline", "--config", pipeline_config(tmp_path),
               "--out-dir", str(tmp_path / "run"), "--check") == 0
