import json

import numpy as np
import pytest

from mousetrack3d import deform_predictor, simulator
from mousetrack3d.deform_predictor import (
    SequenceModel,
    TokenSequence,
    build_tokens,
    evaluate_mse,
    load_model,
    save_model,
    train,
    training_windows,
)
from mousetrack3d.errors import SchemaError, UntrainedModel, WindowOutOfRange


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

def test_token_window_shape_and_masking():
    ds = gait_dataset(n_epochs=5)
    seq = build_tokens(ds, 2, n=2)
    assert seq.masked.shape == (5, 8)
    assert seq.masked.sum() == 8
    assert seq.masked[seq.mid].all()
    assert not seq.masked[[0, 1, 3, 4]].any()


def test_window_out_of_range():
    ds = gait_dataset(n_epochs=10)
    with pytest.raises(WindowOutOfRange):
        build_tokens(ds, 1, n=2)
    with pytest.raises(WindowOutOfRange):
        build_tokens(ds, 8, n=2)


def test_zero_deformation_tokens_equal_rigid():
    ds = rigid_dataset(n_epochs=20)
    seq = build_tokens(ds, 5)
    assert np.allclose(seq.deformable, seq.rigid)


def test_dropout_missing_flags_match_visibility():
    ds = gait_dataset(n_epochs=60, dropout=0.2)
    for t in (5, 20, 40):
        seq = build_tokens(ds, t, n=2)
        cam_counts = ds.visible[seq.epochs].sum(axis=1)
        expected = cam_counts < 2
        expected[seq.mid] = True
        assert np.array_equal(seq.masked, expected)


def test_mid_epoch_must_be_masked():
    ds = gait_dataset(n_epochs=20)
    seq = build_tokens(ds, 5)
    bad = seq.masked.copy()
    bad[seq.mid] = False
    with pytest.raises(ValueError):
        TokenSequence(seq.epochs, seq.rigid, seq.deformable, bad)


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
    model = SequenceModel()
    with pytest.raises(ValueError):
        train([gait_dataset(n_epochs=20)], epochs=0, model=model)
    assert not model.trained


def test_untrained_model_raises():
    ds = gait_dataset(n_epochs=20)
    model = SequenceModel()
    model.init_weights(np.random.default_rng(0))
    seqs, targets = training_windows([ds])
    model.set_normalization(np.concatenate([s.rigid for s in seqs]), targets)
    with pytest.raises(UntrainedModel):
        model.predict(build_tokens(ds, 5))


# -- prediction ---------------------------------------------------------------

def test_rigid_input_passthrough(trained_rigid_model):
    ds, model = trained_rigid_model
    seq = build_tokens(ds, 10)
    pred = model.predict(seq)
    assert np.abs(pred - seq.rigid[seq.mid]).max() < 0.1


def test_prediction_deterministic(trained_gait_model):
    ds, model, _ = trained_gait_model
    seq = build_tokens(ds, 10)
    assert np.array_equal(model.predict(seq), model.predict(seq))


def test_predict_many_matches_predict(trained_gait_model):
    ds, model, _ = trained_gait_model
    seqs = [build_tokens(ds, t) for t in range(2, 40)]
    batched = model.predict_many(seqs)
    single = np.stack([model.predict(seq) for seq in seqs])
    assert batched.shape == (len(seqs), 8, 3)
    assert np.abs(batched - single).max() < 1e-12


def test_sequence_order_matters(trained_gait_model):
    ds, model, _ = trained_gait_model
    seq = build_tokens(ds, 10)
    reversed_seq = TokenSequence(seq.epochs, seq.rigid[::-1].copy(),
                                 seq.deformable[::-1].copy(),
                                 seq.masked[::-1].copy())
    a = model.predict(seq)
    b = model.predict(reversed_seq)
    assert np.abs(a - b).max() > 1e-3


# -- serialization ------------------------------------------------------------

def test_model_save_load_roundtrip(tmp_path, trained_gait_model):
    ds, model, _ = trained_gait_model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    seq = build_tokens(ds, 10)
    assert np.allclose(loaded.predict(seq), model.predict(seq), atol=1e-12)


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
    "no_pos_mean": (_drop("pos_mean"), "pos_mean"),
    "short_pos_std": (_set("pos_std", [1.0, 1.0]), "pos_std"),
    "zero_off_std": (_set("off_std", [1.0, 0.0, 1.0]), "off_std"),
    "text_pos_mean": (_set("pos_mean", ["a", 0, 0]), "pos_mean"),
    "text_hidden_size": (_set("hidden_size", "48"), "hidden_size"),
    "zero_window": (_set("window", 0), "window"),
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


def test_model_load_rejects_non_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="object"):
        load_model(path)
