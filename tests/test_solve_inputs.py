"""What the solve path reads: arrays sized by the recording and by the body
model (`mouse_model.COORDS`), and of a dataset only its cameras, pixels and
visibility, never its ground truth."""

import itertools
import types

import numpy as np
import pytest

from mousetrack3d import (adjustment, deform_predictor, evaluation,
                          mouse_model, simulator, track_constraint)


def make_dataset(seed=2, n_epochs=30):
    return simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=n_epochs,
        step_sigma_mm=1.5, noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2)))


def recording_only(ds):
    """The dataset's recording without its truth or scene config."""
    return types.SimpleNamespace(cameras=ds.cameras,
                                 observations=ds.observations,
                                 visible=ds.visible)


def file_bytes(paths):
    out = []
    for path in paths:
        with open(path, "rb") as f:
            out.append(f.read())
    return out


def test_chain_runs_on_a_seven_part_body_model(tmp_path, monkeypatch):
    monkeypatch.setattr(mouse_model, "COORDS", mouse_model.COORDS[:7])
    T, K = 30, 3
    path = tmp_path / "data.json"
    simulator.export_dataset(make_dataset(n_epochs=T), path)
    ds = simulator.import_dataset(path)
    assert ds.observations.shape == (T, K, 7, 2)
    assert ds.visible.shape == (T, K, 7)
    assert ds.deform_offsets.shape == (T, 7, 3)

    track, report = adjustment.solve_dataset(ds)
    assert report.converged
    scores = evaluation.evaluate(track, ds)
    assert scores.per_part_rmse_mm.shape == (7,)
    assert scores.position_rmse_mm < 5.0
    written = evaluation.plot(track, ds, tmp_path / "plots")
    overlay = np.loadtxt(written[-1], delimiter=",", skiprows=1, ndmin=2)
    assert set(overlay[:, 1].astype(int)) <= set(range(7))

    model, _ = deform_predictor.train([ds], epochs=2, seed=0)
    assert (model.input_size, model.output_size) == (7 * 4, 7 * 3)
    deform_predictor.save_model(model, tmp_path / "model.json")
    model = deform_predictor.load_model(tmp_path / "model.json")
    track, report = adjustment.solve_dataset(ds, mode="deformed",
                                             deform_model=model)
    assert report.converged and track.poses.shape == (T, 6)
    offsets = adjustment.predict_offsets(ds, ds.cameras, track, model)
    assert offsets.shape == (T, 7, 3)


def test_smoothness_grid_follows_the_body_model(monkeypatch):
    # the 3x3x3 grid spans the bounding box of the body model in use: without
    # the tail root, y starts at -8.5 mm instead of -30 mm
    monkeypatch.setattr(mouse_model, "COORDS", mouse_model.COORDS[:7])
    ds = make_dataset(n_epochs=10)
    lo, hi = mouse_model.COORDS.min(axis=0), mouse_model.COORDS.max(axis=0)
    assert lo[1] == -8.5
    grid = np.array(list(itertools.product(
        *(np.linspace(a, b, 3) for a, b in zip(lo, hi)))))
    rq = track_constraint.grid_factor(grid)
    problem = adjustment.build_problem(ds, ds.cameras)
    assert np.array_equal(problem.smooth_p, rq[:, :3])
    assert np.array_equal(problem.smooth_s, rq[:, 3])
    H, S = ds.poses[:3], ds.poses[3:6]
    assert np.array_equal(
        track_constraint.grid_displacements(H, S),
        mouse_model.world_part_positions(H, grid)
        - mouse_model.world_part_positions(S, grid))


def test_short_recording_is_refused_by_name():
    # a track needs one five-epoch smoothness window; the file loaders
    # refuse shorter recordings, and so does the library itself
    ds = make_dataset(n_epochs=10)
    short = types.SimpleNamespace(cameras=ds.cameras,
                                  observations=ds.observations[:4],
                                  visible=ds.visible[:4])
    with pytest.raises(ValueError, match="five-epoch smoothness window"):
        adjustment.solve_dataset(short)
    with pytest.raises(ValueError, match="five-epoch smoothness window"):
        track_constraint.track_residual(ds.poses[:4], 0)


@pytest.fixture(scope="module")
def gait_dataset_and_model():
    ds = make_dataset(seed=5, n_epochs=40)
    model, _ = deform_predictor.train([ds], epochs=2, seed=0)
    return ds, model


@pytest.mark.parametrize("mode", ["rigid", "deformed"])
def test_solve_dataset_reads_only_the_recording(gait_dataset_and_model,
                                                mode):
    ds, model = gait_dataset_and_model
    full, full_report = adjustment.solve_dataset(ds, mode=mode,
                                                 deform_model=model)
    rec, rec_report = adjustment.solve_dataset(recording_only(ds), mode=mode,
                                               deform_model=model)
    assert np.array_equal(rec.poses, full.poses)
    assert np.array_equal(rec.residual_rms, full.residual_rms)
    assert rec.solved_from == full.solved_from
    assert rec_report == full_report


def test_offsets_and_plot_read_only_the_recording(gait_dataset_and_model,
                                                  tmp_path):
    ds, model = gait_dataset_and_model
    rec = recording_only(ds)
    track, _ = adjustment.solve_dataset(ds, mode="deformed",
                                        deform_model=model)
    offsets = adjustment.predict_offsets(ds, ds.cameras, track, model)
    assert np.array_equal(
        adjustment.predict_offsets(rec, rec.cameras, track, model), offsets)
    full = evaluation.plot(track, ds, tmp_path / "full", offsets)
    only = evaluation.plot(track, rec, tmp_path / "rec", offsets)
    assert file_bytes(only) == file_bytes(full)
