import base64
import json

import pytest

import numpy as np

from mousetrack3d import (adjustment, cli, deform_predictor, evaluation,
                          geometry, simulator)
from mousetrack3d.errors import DivergedLoss, SchemaError


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
    assert doc["format_version"] == 3
    poses = base64.b64decode(doc["ground_truth"]["poses"])
    assert len(poses) == 40 * 6 * 8


def test_simulate_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--config", str(bad),
               "--out", str(tmp_path / "x.json")) == 2


def test_simulate_camera_facing_away_exit_2(tmp_path, capsys):
    # camera 1 above the table at z = 1200 mm, looking up: a bad config
    scene = _scene(cameras=_camera_docs(R=[1, 0, 0, 0, 1, 0, 0, 0, 1],
                                        t=[0, 0, -1200]))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "data.json"
    assert run("simulate", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        "simulate: camera 1 never images the plane\n"
    assert not out.exists()

    path.write_text(json.dumps({"scene": scene}))
    run_dir = tmp_path / "run"
    assert run("pipeline", "--config", str(path),
               "--out-dir", str(run_dir)) == 2
    assert capsys.readouterr().err == \
        "pipeline: camera 1 never images the plane\n"
    assert not (run_dir / "data.json").exists()


def test_simulate_into_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.json"
    assert run("simulate", "--config", scene_file(tmp_path),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and str(out) in err
    assert len(err.splitlines()) == 1


def test_plot_into_a_file_exit_2(tmp_path, capsys):
    data, track = tmp_path / "data.json", tmp_path / "track.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    ds = simulator.import_dataset(data)
    adjustment.save_track(adjustment.MouseStateTrack(
        ds.poses, ["local"] * ds.n_epochs), track)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run("plot", "--data", str(data), "--track", str(track),
               "--out-dir", str(taken)) == 2
    err = capsys.readouterr().err
    assert err.startswith("plot: ") and str(taken) in err
    assert len(err.splitlines()) == 1


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


def test_solve_model_without_deformed_mode_exit_2(tmp_path, capsys):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    model = deform_predictor.SequenceModel(hidden_size=2)
    model.init_weights(np.random.default_rng(0))
    model.offset_scale = 1.0
    model.trained = True
    deform_predictor.save_model(model, tmp_path / "model.json")
    track = tmp_path / "track.json"
    assert run("solve", "--data", str(data), "--deform",
               str(tmp_path / "model.json"), "--out", str(track)) == 2
    err = capsys.readouterr().err
    assert "--deform" in err and "--mode" in err
    assert not track.exists()


@pytest.mark.parametrize("command", ["evaluate", "plot"])
def test_track_of_other_length_exit_2(tmp_path, capsys, command):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    ds = simulator.import_dataset(data)
    track = tmp_path / "track.json"
    adjustment.save_track(adjustment.MouseStateTrack(
        ds.poses[:20], ["local"] * 20), track)
    out = tmp_path / "out"
    assert run(command, "--data", str(data), "--track", str(track),
               "--out-dir" if command == "plot" else "--out", str(out)) == 2
    assert "20 epochs" in capsys.readouterr().err
    assert not out.exists()


def _block_edit(*keys, shape, edit):
    """Dataset mutation: the block at path `keys`, decoded to `shape`,
    passed through `edit` and written back."""
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        array = np.frombuffer(base64.b64decode(node[keys[-1]]), "<f8")
        array = edit(array.reshape(shape).copy())
        node[keys[-1]] = base64.b64encode(
            np.asarray(array, "<f8").tobytes()).decode()
    return mutate


def _assign(index, value):
    def edit(array):
        array[index] = value
        return array
    return edit


def _rename(node, old, new):
    node[new] = node.pop(old)


_CELLS = (10, 3, 8, 2)
# dataset mutations, one per class of malformed block and field
BAD_DATASETS = {
    "version_1": lambda doc: doc.pop("format_version"),
    "misspelt_deform_offsets": lambda doc: _rename(
        doc["ground_truth"], "deform_offsets_mm", "deform_offset_mm"),
    "nonsense_columns": lambda doc: doc["observations"].update(
        columns="nonsense"),
    "misspelt_pixels": lambda doc: _rename(doc["observations"], "pixels",
                                           "pixel"),
    "block_not_string": lambda doc: doc["observations"].update(pixels=False),
    "invalid_base64": lambda doc: doc["observations"].update(pixels="640.06"),
    "camera_out_of_range": _block_edit(
        "observations", "pixels", shape=_CELLS,
        edit=lambda a: np.concatenate([a, a[:, :1]], axis=1)),
    "pose_missing_rodrigues": _block_edit(
        "ground_truth", "poses", shape=(10, 6), edit=lambda a: a[:, 3:]),
    "nan_pose": _block_edit("ground_truth", "poses", shape=(10, 6),
                            edit=_assign((4, 2), np.nan)),
    "inf_offset": _block_edit("ground_truth", "deform_offsets_mm",
                              shape=(10, 8, 3), edit=_assign(0, np.inf)),
    "inf_pixel": _block_edit("observations", "pixels", shape=_CELLS,
                             edit=_assign((5, 2, 4, 1), -np.inf)),
    "half_nan_pixel": _block_edit("observations", "pixels", shape=_CELLS,
                                  edit=_assign((0, 0, 3, 0), np.nan)),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_solve_malformed_dataset_exit_2(tmp_path, case, capsys):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=10),
        "--out", str(data))
    doc = json.loads(data.read_text())
    BAD_DATASETS[case](doc)
    data.write_text(json.dumps(doc))
    assert run("solve", "--data", str(data),
               "--out", str(tmp_path / "track.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("solve: ") and len(err.splitlines()) == 1


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _version_1(doc):
    # a version-1 track: a JSON list of epoch records
    return [{"t": 0, "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0],
             "solved_from": "local"}]


_POSES = dict(shape=(40, 6))
# (mutation of a saved 40-epoch track document, expected message); a
# mutation edits the document in place or returns the document to write
BAD_TRACKS = {
    "version_1": (_version_1, "^unsupported track format version 1; "
                              "this version reads 2$"),
    "version_3": (_set("format_version", 3), "track format version 3;"),
    "missing_poses": (_drop("poses"),
                      "track file missing field 'poses'"),
    "missing_flags": (_drop("solved_from"),
                      "track file missing field 'solved_from'"),
    # a misspelt optional field would otherwise load as no residual RMS
    "misspelt_residual_rms": (
        lambda doc: _rename(doc, "residual_rms", "residual_rmss"),
        "track file has unknown field 'residual_rmss'"),
    "n_epochs_text": (_set("n_epochs", "40"),
                      "'n_epochs' must be an integer >= 1, got '40'"),
    "n_epochs_bool": (_set("n_epochs", True),
                      "'n_epochs' must be an integer >= 1, got True"),
    "n_epochs_zero": (_set("n_epochs", 0), "'n_epochs' must be an integer"),
    "poses_list": (_set("poses", [[0.0] * 6] * 40),
                   "track field 'poses' must be a base64 string"),
    "poses_not_base64": (_set("poses", "640.06"),
                         "track field 'poses' is not valid base64"),
    "poses_short": (_block_edit("poses", **_POSES,
                                edit=lambda a: a.ravel()[:-1]),
                    "track field 'poses' holds 1912 bytes, not the 1920 of "
                    "40 x 6 float64 values"),
    "n_epochs_long": (_set("n_epochs", 41),
                      "'poses' holds 1920 bytes, not the 1968"),
    "rms_long": (_block_edit("residual_rms", shape=(40,),
                             edit=lambda a: np.append(a, 1.0)),
                 "track field 'residual_rms' holds 328 bytes, not the 320"),
    "nan_pose": (_block_edit("poses", **_POSES, edit=_assign((4, 2), np.nan)),
                 r"track field 'poses' must be finite \(at t = 4, "
                 r"column = 2\)"),
    "inf_rms": (_block_edit("residual_rms", shape=(40,),
                            edit=_assign(7, np.inf)),
                r"track field 'residual_rms' must be finite \(at t = 7\)"),
    "flags_short": (_set("solved_from", ["local"] * 39),
                    "'solved_from' must be a list of 40 flags"),
    "flags_not_list": (_set("solved_from", "local"),
                       "'solved_from' must be a list of 40 flags"),
    "illegal_flag": (_set("solved_from", ["local"] * 3 + ["guessed"] * 37),
                     r"'solved_from' must hold only local, interpolated, "
                     r"adjusted \(at t = 3\)"),
}


@pytest.fixture(scope="module")
def track_inputs(tmp_path_factory):
    """A 40-epoch dataset file and the document of a valid track of it."""
    root = tmp_path_factory.mktemp("track")
    data = root / "data.json"
    run("simulate", "--config", scene_file(root), "--out", str(data))
    ds = simulator.import_dataset(data)
    adjustment.save_track(adjustment.MouseStateTrack(
        ds.poses, ["local"] * 40, np.ones(40)), root / "track.json")
    return data, json.loads((root / "track.json").read_text())


@pytest.mark.parametrize("case", sorted(BAD_TRACKS))
def test_malformed_track_rejected(tmp_path, track_inputs, case, capsys):
    """load_track raises SchemaError naming the fault, and evaluate and plot
    exit with 2 on one stderr line and write nothing."""
    data, doc = track_inputs
    mutate, match = BAD_TRACKS[case]
    doc = json.loads(json.dumps(doc))
    written = mutate(doc)
    track = tmp_path / "track.json"
    track.write_text(json.dumps(doc if written is None else written))
    with pytest.raises(SchemaError, match=match):
        adjustment.load_track(track)
    for command, flag in (("evaluate", "--out"), ("plot", "--out-dir")):
        out = tmp_path / command
        assert run(command, "--data", str(data), "--track", str(track),
                   flag, str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and len(err.splitlines()) == 1
        assert not out.exists()


def _version_1_records(ts):
    return [{"t": t, "rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}
            for t in ts]


# track files of version 1, JSON lists of epoch records, whatever their
# records hold, and a list that holds no records
@pytest.mark.parametrize("records", [
    [{"rodrigues": [0, 0, 0], "translation_mm": [0, 0, 0]}] * 2,
    [1, 2],
    _version_1_records([0, 0, 5]),
    _version_1_records([0, 1, 2, 2] + list(range(4, 40))),
    [dict(rec, residual_rmss=1.0) for rec in _version_1_records(range(40))],
])
def test_evaluate_malformed_track_exit_2(tmp_path, track_inputs, records):
    track = tmp_path / "track.json"
    track.write_text(json.dumps(records))
    assert run("evaluate", "--data", str(track_inputs[0]), "--track",
               str(track), "--out", str(tmp_path / "report.json")) == 2


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
    # a field of older files that nothing read
    "occlusion_min_visible_floor": _scene(
        occlusion={"random_dropout_rate": 0.2, "min_visible_floor": 0}),
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
    # float64 cannot hold 2**53 + 1: it would load as 2**53
    "cameras_t_beyond_2_53": _camera_docs(t=[0.0, 0.0, 2 ** 53 + 1]),
    # a misspelt optional field would otherwise load as no image size
    "cameras_misspelt_image_size": _camera_docs(image_sise=[640, 480]),
    "cameras_not_objects": ["cam0", "cam1", "cam2"],
    "cameras_singular_K": _camera_docs(K=[0] * 9),
    "cameras_too_few": _camera_docs()[:2],
    "cameras_wrong_ids": [dict(doc, id=i)
                          for doc, i in zip(_camera_docs(), (0, 1, 3))],
}
# changes to the `meta` object of a dataset given to `solve --data`
BAD_METAS = {
    "meta_seed_text": {"seed": "abc"},
    "meta_occlusion_unknown_key": {"occlusion": {"bogus": 1}},
    "meta_occlusion_min_visible_floor": {
        "occlusion": {"random_dropout_rate": 0.0, "min_visible_floor": 0}},
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
    assert doc["format_version"] == 2


def test_solve_with_saved_model_equals_in_memory_solve(tmp_path):
    # the model file carries everything the solve reads from the model
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=60),
        "--out", str(data))
    model, track = tmp_path / "model.json", tmp_path / "track.json"
    assert run("train-deform", "--data", str(data), "--epochs", "5",
               "--out", str(model)) == 0
    assert run("solve", "--data", str(data), "--mode", "deformed",
               "--deform", str(model), "--out", str(track)) == 0
    ds = simulator.import_dataset(data)
    trained, _ = deform_predictor.train([ds], epochs=5)
    expected, _ = adjustment.solve_dataset(ds, mode="deformed",
                                           deform_model=trained)
    adjustment.save_track(expected, tmp_path / "expected.json")
    assert track.read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_evaluate_deform_scores_predicted_offsets(tmp_path):
    data, model = tmp_path / "data.json", tmp_path / "model.json"
    track = tmp_path / "track.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=60),
        "--out", str(data))
    assert run("train-deform", "--data", str(data), "--epochs", "5",
               "--out", str(model)) == 0
    assert run("solve", "--data", str(data), "--mode", "deformed",
               "--deform", str(model), "--out", str(track)) == 0
    for name, flags in (("deformed", ["--deform", str(model)]), ("rigid", [])):
        assert run("evaluate", "--data", str(data), "--track", str(track),
                   "--out", str(tmp_path / f"{name}.json"), *flags) == 0
    reports = {name: json.loads((tmp_path / f"{name}.json").read_text())
               for name in ("deformed", "rigid")}
    ds = simulator.import_dataset(data)
    saved = adjustment.load_track(track)
    offsets = adjustment.predict_offsets(ds, ds.cameras, saved,
                                         deform_predictor.load_model(model))
    for name, expected in (("deformed", offsets), ("rigid", None)):
        doc = evaluation.evaluate(saved, ds, expected).to_dict()
        assert {key: reports[name][key] for key in doc} == doc, name
    assert reports["deformed"]["per_part_rmse_mm"] != \
        reports["rigid"]["per_part_rmse_mm"]


def test_version_2_dataset_exit_2(tmp_path, track_inputs, capsys):
    """A version-2 dataset file, which also held the pixel noise, is refused
    by its version: solve, evaluate and plot exit with 2 on one stderr line
    and write nothing."""
    data, doc = track_inputs
    track = tmp_path / "track.json"
    track.write_text(json.dumps(doc))
    old = json.loads(data.read_text())
    old["format_version"] = 2
    old_data = tmp_path / "data_v2.json"
    old_data.write_text(json.dumps(old))
    for command, inputs, flag in (("solve", (), "--out"),
                                  ("evaluate", ("--track", str(track)), "--out"),
                                  ("plot", ("--track", str(track)), "--out-dir")):
        out = tmp_path / command
        assert run(command, "--data", str(old_data), *inputs,
                   flag, str(out)) == 2
        assert capsys.readouterr().err == (
            f"{command}: unsupported dataset format version 2; "
            "this version reads 3\n")
        assert not out.exists()


def test_solve_with_version_1_model_exit_2(tmp_path, capsys):
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path), "--out", str(data))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "pos_mean": [0, 0, 0]}))
    assert run("solve", "--data", str(data), "--mode", "deformed",
               "--deform", str(model), "--out", str(tmp_path / "t.json")) == 2
    assert "format version 1" in capsys.readouterr().err


def test_untrained_model_exit_2(tmp_path, capsys):
    # a model file without trained weights is a bad input, not a numerical
    # failure
    data = tmp_path / "data.json"
    run("simulate", "--config", scene_file(tmp_path, n_epochs=30,
                                           step_sigma_mm=1.5),
        "--out", str(data))
    ds = simulator.import_dataset(data)
    adjustment.save_track(adjustment.MouseStateTrack(
        ds.poses, ["local"] * ds.n_epochs), tmp_path / "track.json")
    model = deform_predictor.SequenceModel(hidden_size=2, offset_scale=1.0)
    model.init_weights(np.random.default_rng(0))
    deform_predictor.save_model(model, tmp_path / "model.json")
    out = tmp_path / "out.json"
    for argv in (["solve", "--data", str(data), "--mode", "deformed"],
                 ["evaluate", "--data", str(data),
                  "--track", str(tmp_path / "track.json")]):
        assert run(*argv, "--deform", str(tmp_path / "model.json"),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'trained'" in err
        assert err.startswith(f"{argv[0]}: ")
        assert not out.exists()


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


def _solve_lines(out):
    return [line for line in out.splitlines() if line.startswith("solve: ")]


def test_solve_prints_round_1_line_in_deformed_mode(tmp_path, capsys):
    data, model = tmp_path / "data.json", tmp_path / "model.json"
    assert run("simulate", "--config", scene_file(tmp_path, n_epochs=60),
               "--out", str(data)) == 0
    assert run("train-deform", "--data", str(data), "--epochs", "5",
               "--out", str(model)) == 0
    capsys.readouterr()
    assert run("solve", "--data", str(data),
               "--out", str(tmp_path / "rigid.json")) == 0
    rigid = _solve_lines(capsys.readouterr().out)
    assert len(rigid) == 1 and rigid[0].startswith("solve: cost in ")

    assert run("solve", "--data", str(data), "--mode", "deformed",
               "--deform", str(model),
               "--out", str(tmp_path / "deformed.json")) == 0
    first, last = _solve_lines(capsys.readouterr().out)
    ds = simulator.import_dataset(data)
    _, report = adjustment.solve_dataset(
        ds, mode="deformed", deform_model=deform_predictor.load_model(model))
    r1 = report.first_round
    assert first == (f"solve: round 1 cost in {r1.iterations} iterations, "
                     f"cost {r1.initial_cost:.6g} -> {r1.final_cost:.6g}")
    assert last.startswith(f"solve: {report.status} in "
                           f"{report.iterations} iterations, ")
    assert report.status in ("cost", "gradient")


def test_pipeline_deformed_mode(tmp_path):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"scene": {"n_epochs": 40, "seed": 1},
                               "train": {"epochs": 3},
                               "solve": {"mode": "deformed"}}))
    out = tmp_path / "out"
    assert run("pipeline", "--config", str(cfg), "--out-dir", str(out)) == 0
    model = json.loads((out / "deform_model.json").read_text())
    assert model["format_version"] == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_status"] == "cost"
    # parts are scored with the offsets predicted for the final track; the
    # report rounds to 1e-9 mm, and the files round-trip to about that
    dataset = simulator.import_dataset(out / "data.json")
    track = adjustment.load_track(out / "track.json")
    offsets = adjustment.predict_offsets(
        dataset, dataset.cameras, track,
        deform_predictor.load_model(out / "deform_model.json"))
    expected = evaluation.evaluate(track, dataset, offsets).per_part_rmse_mm
    rigid = evaluation.evaluate(track, dataset).per_part_rmse_mm
    assert report["per_part_rmse_mm"] == pytest.approx(expected, rel=0, abs=1e-8)
    assert np.abs(rigid - expected).max() > 1e-3


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
