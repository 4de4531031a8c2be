import json

import numpy as np
import pytest

from mousetrack3d import adjustment, geometry, simulator
from mousetrack3d.deform_predictor import (
    BATCH_SIZE,
    WINDOW,
    SequenceModel,
    evaluate_mse,
    load_model,
    save_model,
    token_windows,
    train,
    training_windows,
)
from mousetrack3d.errors import SchemaError, UntrainedModel
from mousetrack3d.mouse_model import COORDS


def gait_dataset(seed=0, n_epochs=240, dropout=0.0):
    config = simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=n_epochs,
        step_sigma_mm=1.5, noise_sigma_px=0.0,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=dropout))
    return simulator.simulate(config)


def rigid_dataset(seed=0, n_epochs=240):
    config = simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=n_epochs,
        step_sigma_mm=1.5, noise_sigma_px=0.0, deformation_enabled=False)
    return simulator.simulate(config)


@pytest.fixture(scope="module")
def trained_gait_model():
    ds = gait_dataset()
    model, losses = train([ds], epochs=200, seed=0)
    return ds, model, losses


@pytest.fixture(scope="module")
def trained_rigid_model():
    ds = rigid_dataset()
    model, _ = train([ds], epochs=60, seed=0)
    return ds, model


# -- tokenization -------------------------------------------------------------

def windows_at(ds, t):
    """(offsets, masked) of the single token window centred at epoch t of
    a dataset (default window n = 2)."""
    offsets, masked, _ = training_windows([ds])
    return offsets[t - 2:t - 1], masked[t - 2:t - 1]


def test_token_window_shape_and_masking():
    ds = gait_dataset(n_epochs=5)
    offsets, masked, targets = training_windows([ds])
    assert offsets.shape == (1, 5, 8, 3)
    assert masked.shape == (1, 5, 8)
    assert targets.shape == (1, 8, 3)
    assert masked.sum() == 8
    assert masked[0, 2].all()
    assert not masked[0, [0, 1, 3, 4]].any()


def test_token_windows_equal_per_centre_slices():
    rng = np.random.default_rng(1)
    T = 30
    offsets = rng.normal(size=(T, 8, 3))
    missing = rng.random((T, 8)) < 0.3
    for n in (1, 2, 3):
        windows, masked = token_windows(offsets, missing, n)
        assert windows.shape == (T - 2 * n, 2 * n + 1, 8, 3)
        assert masked[:, n].all()
        for w, t in enumerate(range(n, T - n)):
            m = missing[t - n:t + n + 1].copy()
            m[n] = True
            assert np.array_equal(masked[w], m)
            assert np.array_equal(
                windows[w], np.where(m[:, :, None], 0.0,
                                     offsets[t - n:t + n + 1]))
    # a recording shorter than one window has none
    windows, masked = token_windows(offsets[:4], missing[:4], 2)
    assert windows.shape == (0, 5, 8, 3) and masked.shape == (0, 5, 8)


def test_zero_deformation_tokens_equal_rigid():
    ds = rigid_dataset(n_epochs=20)
    offsets, _, _ = training_windows([ds])
    assert np.array_equal(offsets, np.zeros_like(offsets))


def test_dropout_missing_flags_match_visibility():
    ds = gait_dataset(n_epochs=60, dropout=0.2)
    offsets, masked, _ = training_windows([ds])
    for t in (5, 20, 40):
        expected = ds.visible[t - 2:t + 3].sum(axis=1) < 2
        expected[2] = True
        assert np.array_equal(masked[t - 2], expected)
    # masked parts, the mid epoch's and the dropped ones, carry exactly 0
    assert not offsets[masked].any() and offsets[~masked].any()


# -- training -----------------------------------------------------------------

def test_zero_deformation_training_degenerates(trained_rigid_model):
    ds, model = trained_rigid_model
    mse, _ = evaluate_mse(model, [ds])
    assert mse < 0.1 ** 2


def test_gait_training_beats_rigid_baseline(trained_gait_model):
    ds, model, _ = trained_gait_model
    mse, baseline = evaluate_mse(model, [ds])
    assert baseline > 0.5  # the gait actually moves the paws
    assert mse * 2.0 <= baseline


def test_loss_curve_decreases(trained_gait_model):
    _, _, losses = trained_gait_model
    assert losses[-1] < 0.5 * losses[0]


def test_training_determinism():
    ds = gait_dataset(n_epochs=40)
    _, l1 = train([ds], epochs=5, seed=3)
    _, l2 = train([ds], epochs=5, seed=3)
    assert np.array_equal(l1, l2)


def test_train_rejects_zero_epochs():
    with pytest.raises(ValueError):
        train([gait_dataset(n_epochs=20)], epochs=0)


# -- gradients ----------------------------------------------------------------

def test_backward_matches_central_differences():
    # L = sum(dy * y) for a fixed dy, so backward(dy) is the gradient of L
    rng = np.random.default_rng(4)
    model = SequenceModel(hidden_size=6)
    model.init_weights(rng)
    model.weights["b"] += rng.normal(scale=0.5, size=model.weights["b"].shape)
    model.weights["bo"] += rng.normal(size=model.weights["bo"].shape)
    X = rng.normal(size=(5, 5, model.input_size))
    dy = rng.normal(size=(5, model.output_size))
    y, state = model.forward(X)
    grads = model.backward(dy, state)
    h = 1e-6
    for key, w in model.weights.items():
        numeric = np.zeros_like(w)
        for j in np.ndindex(w.shape):
            keep = w[j]
            w[j] = keep + h
            up = (dy * model.forward(X)[0]).sum()
            w[j] = keep - h
            down = (dy * model.forward(X)[0]).sum()
            w[j] = keep
            numeric[j] = (up - down) / (2 * h)
        error = np.linalg.norm(grads[key] - numeric) / np.linalg.norm(numeric)
        assert error < 1e-5, (key, error)


def test_first_adam_step_is_the_normalized_gradient():
    # after one Adam step from zero moments, the bias-corrected moments are
    # g and g ** 2, so every weight moves by -lr * g / (|g| + eps)
    ds = gait_dataset(n_epochs=20)
    lr, seed, hidden = 0.01, 3, 6
    trained, losses = train([ds], epochs=1, lr=lr, seed=seed,
                            hidden_size=hidden)
    assert len(losses) == 1
    # the initial weights and the batch order, drawn as `train` draws them
    model = SequenceModel(hidden_size=hidden)
    rng = np.random.default_rng(seed)
    model.init_weights(rng)
    offsets, masked, targets = training_windows([ds])
    assert len(targets) <= BATCH_SIZE
    model.offset_scale = max(float(targets.std()), 1e-3)
    assert trained.offset_scale == model.offset_scale
    order = rng.permutation(len(targets))
    y, state = model.forward(model.features(offsets, masked)[order])
    diff = y - targets[order].reshape(len(order), -1) / model.offset_scale
    grads = model.backward(2.0 * diff / diff.size, state)
    for key, w in model.weights.items():
        g = grads[key]
        expected = w - lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(trained.weights[key], expected, rtol=0,
                           atol=1e-9 * lr), key


def test_offset_scale_is_the_targets_spread(trained_gait_model,
                                            trained_rigid_model):
    ds, model, _ = trained_gait_model
    _, _, targets = training_windows([ds])
    assert model.offset_scale == targets.std()
    assert model.offset_scale > 1.0    # the gait moves the paws by mm
    # no deformation: the floor, not a division by zero
    assert trained_rigid_model[1].offset_scale == 1e-3


def test_untrained_model_raises():
    ds = gait_dataset(n_epochs=20)
    model = SequenceModel(offset_scale=1.0)
    model.init_weights(np.random.default_rng(0))
    offsets, masked, _ = training_windows([ds])
    with pytest.raises(UntrainedModel):
        model.predict(offsets, masked)


def test_features_are_offsets_and_flags_on_one_scale(trained_gait_model):
    ds, model, _ = trained_gait_model
    offsets, masked, _ = training_windows([ds])
    X = model.features(offsets, masked)
    assert X.shape == (len(masked), 2 * WINDOW + 1, 8 * 4)
    tokens = X.reshape(*masked.shape, 4)
    assert np.array_equal(tokens[..., 3], masked)
    assert np.allclose(tokens[..., :3] * model.offset_scale,
                       np.where(masked[..., None], 0.0, offsets))
    # a triangulation error of 0.5 mm on every axis is at most 0.5 mm of
    # input on every axis, whatever the training targets' spread per axis
    moved = model.features(offsets + 0.5, masked)
    assert np.abs(moved - X).max() <= 0.5 / model.offset_scale + 1e-12


# -- prediction ---------------------------------------------------------------

def test_rigid_input_passthrough(trained_rigid_model):
    ds, model = trained_rigid_model
    pred = model.predict(*windows_at(ds, 10))
    assert pred.shape == (1, 8, 3)
    assert np.abs(pred).max() < 0.1


def test_prediction_deterministic(trained_gait_model):
    ds, model, _ = trained_gait_model
    window = windows_at(ds, 10)
    assert np.array_equal(model.predict(*window), model.predict(*window))


def test_offsets_from_triangulated_tokens_beat_zero_offsets(trained_gait_model):
    # inference tokens are triangulated parts, with errors the noise-free
    # training tokens never show; at the true poses the predicted offsets
    # must still be closer to the truth than no offsets at all
    _, model, _ = trained_gait_model
    config = simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=1, n_epochs=120,
        step_sigma_mm=1.5, noise_sigma_px=0.5)
    ds = simulator.simulate(config)
    true_track = adjustment.MouseStateTrack(ds.poses, ["local"] * ds.n_epochs)
    offsets = adjustment.predict_offsets(ds, ds.cameras, true_track, model)
    inner = slice(WINDOW, ds.n_epochs - WINDOW)

    def rms(err):
        return np.sqrt((err[inner] ** 2).sum(axis=-1).mean())

    assert rms(offsets - ds.deform_offsets) < rms(ds.deform_offsets)


def test_predict_offsets_returns_the_model_prediction(trained_gait_model):
    # the triangulated parts' model-frame offsets go into token windows,
    # and the prediction comes back as offsets, unchanged
    _, model, _ = trained_gait_model
    config = simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=1, n_epochs=30,
        step_sigma_mm=1.5, noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.3))
    ds = simulator.simulate(config)
    track = adjustment.MouseStateTrack(ds.poses, ["local"] * ds.n_epochs)
    offsets = adjustment.predict_offsets(ds, ds.cameras, track, model)
    world, have = adjustment.triangulate_parts(ds, ds.cameras)
    R = geometry.rodrigues_to_matrix(ds.poses[:, :3])
    est = (world - ds.poses[:, None, 3:]) @ R - COORDS
    n = WINDOW
    assert np.array_equal(offsets[n:-n],
                          model.predict(*token_windows(est, ~have, n)))
    assert not offsets[:n].any() and not offsets[-n:].any()


def test_sequence_order_matters(trained_gait_model):
    ds, model, _ = trained_gait_model
    offsets, masked = windows_at(ds, 10)
    a = model.predict(offsets, masked)
    b = model.predict(offsets[:, ::-1], masked[:, ::-1])
    assert np.abs(a - b).max() > 1e-3


# -- serialization ------------------------------------------------------------

def test_model_save_load_roundtrip(tmp_path, trained_gait_model):
    ds, model, _ = trained_gait_model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    window = windows_at(ds, 10)
    assert np.allclose(loaded.predict(*window), model.predict(*window),
                       atol=1e-12)


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _drop_weight(key):
    def mutate(doc):
        del doc["weights"][key]
    return mutate


def _set_weight(key, value):
    def mutate(doc):
        doc["weights"][key] = value
    return mutate


# (mutation of a saved model, expected message)
MALFORMED_MODELS = {
    "no_offset_scale": (_drop("offset_scale_mm"), "offset_scale_mm"),
    "zero_offset_scale": (_set("offset_scale_mm", 0.0), "offset_scale_mm"),
    "negative_offset_scale": (_set("offset_scale_mm", -2.5), "offset_scale_mm"),
    "true_offset_scale": (_set("offset_scale_mm", True), "offset_scale_mm"),
    "list_offset_scale": (_set("offset_scale_mm", [2.5]), "offset_scale_mm"),
    "text_hidden_size": (_set("hidden_size", "48"), "hidden_size"),
    "untrained": (_set("trained", False), "trained"),
    "text_trained": (_set("trained", "true"), "trained"),
    "misspelt_window": (_set("windw", 3), "unknown field 'windw'"),
    "extra_weight": (_set_weight("Wz", [0.0]), "weights"),
    "missing_weight": (_drop_weight("Wh"), "weights"),
    "hidden_size_mismatch": (_set("hidden_size", 47), "Wx"),
    "ragged_weight": (_set_weight("bo", [[0.0], 1.0]), "bo"),
}


@pytest.fixture(scope="module")
def saved_model_doc(tmp_path_factory, trained_rigid_model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(trained_rigid_model[1], path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_model_load_rejects_malformed(tmp_path, saved_model_doc, case):
    doc = json.loads(json.dumps(saved_model_doc))
    mutate, message = MALFORMED_MODELS[case]
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_model(path)


def test_model_load_rejects_version_1(tmp_path, saved_model_doc):
    # a version-1 file: rigid-coordinate statistics and per-axis scales
    doc = {key: value for key, value in saved_model_doc.items()
           if key != "offset_scale_mm"}
    doc.update(format_version=1, window=2, pos_mean=[0.0] * 3,
               pos_std=[1.0] * 3, off_std=[1.0] * 3)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="format version 1"):
        load_model(path)


def test_model_load_rejects_non_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="object"):
        load_model(path)
