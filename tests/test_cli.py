import json

import pytest

from mousetrack3d import cli, deform_predictor, geometry, simulator
from mousetrack3d.errors import DivergedLoss


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


@pytest.mark.parametrize("flag, value", [("--mode", "deformed"),
                                         ("--ws", "-0.5"), ("--ws", "nan")])
def test_solve_deformed_without_model_exit_2(tmp_path, capsys, flag, value):
    # also a smoothness weight that the pipeline config would reject
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    assert run("solve", "--data", str(data), flag, value,
               "--out", str(tmp_path / "track.json")) == 2
    assert flag in capsys.readouterr().err


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


def _pose_records(ts):
    return [{"t": t, "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}
            for t in ts]


@pytest.mark.parametrize("records", [
    [{"rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}] * 2,
    [1, 2],
    _pose_records([0, 0, 5]),
    # 40 records, the length of the dataset, with t = 2 twice and no t = 3
    _pose_records([0, 1, 2, 2] + list(range(4, 40))),
])
def test_evaluate_malformed_track_exit_2(tmp_path, records):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    track = tmp_path / "track.json"
    track.write_text(json.dumps(records))
    assert run("evaluate", "--data", str(data), "--track", str(track),
               "--out", str(tmp_path / "report.json")) == 2


def _camera_docs(**changes):
    docs = [geometry.camera_to_dict(c) for c in simulator.default_cameras()]
    docs[1].update(changes)
    return docs


def _scene(**changes):
    return dict({"n_epochs": 10, "seed": 1}, **changes)


# scene config given to `simulate --config`
BAD_SCENES = {
    "occlusion_unknown_key": _scene(occlusion={"dropout": 0.2}),
    "occlusion_not_object": _scene(occlusion=[0.2]),
    "seed_text": _scene(seed="abc"),
    "too_few_epochs": _scene(n_epochs=4),
    "negative_step": _scene(step_sigma_mm=-1.0),
    "dropout_above_one": _scene(occlusion={"random_dropout_rate": 1.5}),
    "camera_K_number": _scene(cameras=_camera_docs(K=5)),
    "camera_R_text": _scene(cameras=_camera_docs(R=["a"] * 9)),
    "camera_t_text": _scene(cameras=_camera_docs(t="abc")),
    "camera_not_object": _scene(cameras=[1, 2]),
    "camera_ids_out_of_order": _scene(cameras=_camera_docs(id=2)),
    "scene_is_list": [_scene()],
}
# camera file given to `solve --cameras`
BAD_CAMERA_FILES = {
    "cameras_K_number": _camera_docs(K=5),
    "cameras_t_text": _camera_docs(t=["1", "2", "3"]),
    "cameras_not_objects": ["cam0", "cam1", "cam2"],
    "cameras_singular_K": _camera_docs(K=[0] * 9),
    "cameras_too_few": _camera_docs()[:2],
}
# changes to the `meta` object of a dataset given to `solve --data`
BAD_METAS = {
    "meta_seed_text": {"seed": "abc"},
    "meta_occlusion_unknown_key": {"occlusion": {"bogus": 1}},
    "meta_epochs_mismatch": {"n_epochs": 11},
    "meta_not_object_camera": {"cameras": [[1, 2, 3]]},
}


@pytest.mark.parametrize("case", sorted(BAD_SCENES) + sorted(BAD_CAMERA_FILES)
                         + sorted(BAD_METAS))
def test_bad_scene_and_camera_input_exit_2(tmp_path, case, capsys):
    out = str(tmp_path / "out.json")
    if case in BAD_SCENES:
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(BAD_SCENES[case]))
        argv = ["simulate", "--config", str(path), "--out", out]
    else:
        data = tmp_path / "data.json"
        assert run("simulate", "--config", scene_file(tmp_path, n_epochs=10),
                   "--out", str(data)) == 0
        argv = ["solve", "--data", str(data), "--out", out]
        if case in BAD_CAMERA_FILES:
            cams = tmp_path / "cams.json"
            cams.write_text(json.dumps(BAD_CAMERA_FILES[case]))
            argv += ["--cameras", str(cams)]
        else:
            doc = json.loads(data.read_text())
            doc["meta"].update(BAD_METAS[case])
            data.write_text(json.dumps(doc))
    assert run(*argv) == 2
    assert argv[0] + ":" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "0"), ("--hidden", "0"), ("--seed", "-1"), ("--lr", "nan"),
    ("--lr", "-1")])
def test_train_deform_zero_epochs_exit_2(tmp_path, capsys, flag, value):
    # also the other flags the pipeline config's train section would reject
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=10),
        "--out", str(data))
    assert run("train-deform", "--data", str(data), flag, value,
               "--out", str(tmp_path / "model.json")) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_train_deform_and_pipeline_share_training_defaults(tmp_path,
                                                           monkeypatch):
    calls = []

    def record(datasets, **kwargs):
        calls.append(kwargs)
        raise DivergedLoss("arguments recorded")

    monkeypatch.setattr(deform_predictor, "train", record)
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, seed=0), "--out", str(data))
    assert run("train-deform", "--data", str(data),
               "--out", str(tmp_path / "model.json")) == 3
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"scene": {"n_epochs": 40, "seed": 0},
                               "solve": {"mode": "deformed"}}))
    assert run("pipeline", "--config", str(cfg),
               "--out-dir", str(tmp_path / "out")) == 3
    assert calls == [{"epochs": 150, "lr": 1e-2, "seed": 0, "hidden_size": 48}] * 2


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


def test_solve_and_pipeline_name_stop_reason(tmp_path, capsys):
    data = tmp_path / "data.json"
    assert run("simulate", "--config", scene_file(tmp_path),
               "--out", str(data)) == 0
    assert run("solve", "--data", str(data),
               "--out", str(tmp_path / "track.json")) == 0
    assert "\nsolve: cost in " in capsys.readouterr().out
    out = tmp_path / "run"
    assert run("pipeline", "--config", pipeline_config(tmp_path),
               "--out-dir", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver_status"] == "cost"


def test_pipeline_deformed_mode(tmp_path):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"scene": {"n_epochs": 40, "seed": 1},
                               "train": {"epochs": 3},
                               "solve": {"mode": "deformed"}}))
    out = tmp_path / "out"
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(out)) == 0
    model = json.loads((out / "deform_model.json").read_text())
    assert model["format_version"] == 1
    report = json.loads((out / "report.json").read_text())
    assert report["solver_status"] == "cost"


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


@pytest.mark.parametrize("section", [
    {"solve": {"mode": "fast"}},
    {"solve": {"ws": "abc"}},
    {"train": {"epochs": "x"}},
    {"check": {"max_position_rmse_mm": "x"}},
    {"solve": {"mode": "rigid", "iterations": 5}},
    {"trian": {}},
])
def test_pipeline_bad_config_exit_2(tmp_path, section, capsys):
    doc = dict({"scene": {"n_epochs": 10, "seed": 1}}, **section)
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run("pipeline", "--config", str(path), "--out-dir", str(out)) == 2
    assert "pipeline: pipeline config" in capsys.readouterr().err
    assert not out.exists()
