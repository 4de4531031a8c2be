import json

import numpy as np
import pytest

from mousetrack3d import geometry, mouse_model, simulator
from mousetrack3d.errors import SchemaError
from mousetrack3d.simulator import (
    OcclusionConfig,
    SceneConfig,
    default_cameras,
    export_dataset,
    generate_track,
    import_dataset,
    simulate,
)


def make_config(**kw):
    kw.setdefault("cameras", default_cameras())
    kw.setdefault("seed", 0)
    kw.setdefault("n_epochs", 50)
    return SceneConfig(**kw)


# -- camera rig ---------------------------------------------------------------

def test_default_rig_views_origin():
    for cam in default_cameras():
        px = geometry.project(cam, np.zeros(3))
        w, h = cam.image_size
        assert 0 <= px[0] < w and 0 <= px[1] < h


def test_rig_baselines_not_degenerate():
    cams = default_cameras()
    centers = np.array([c.center() for c in cams])
    for i in range(len(cams)):
        for j in range(i + 1, len(cams)):
            assert np.linalg.norm(centers[i] - centers[j]) > 100.0


def test_config_requires_two_cameras():
    with pytest.raises(ValueError):
        SceneConfig(cameras=default_cameras()[:1])


# -- track generation ---------------------------------------------------------

def test_zero_step_sigma_stationary():
    config = make_config(step_sigma_mm=0.0)
    track = generate_track(config)
    first = track[0]
    for p in track:
        assert np.array_equal(p.rodrigues, first.rodrigues)
        assert np.array_equal(p.translation, first.translation)


def test_track_determinism():
    a = generate_track(make_config(seed=42))
    b = generate_track(make_config(seed=42))
    for p, q in zip(a, b):
        assert np.array_equal(p.rodrigues, q.rodrigues)
        assert np.array_equal(p.translation, q.translation)


def test_body_height_rests_paws_on_plane():
    track = generate_track(make_config())
    pts = mouse_model.world_part_positions(track[0].as_array())
    assert pts[:, 2].min() == pytest.approx(0.0, abs=1e-9)


def test_track_stays_inside_plane_extent():
    config = make_config(n_epochs=2000, step_sigma_mm=30.0, plane_extent_mm=80.0)
    track = generate_track(config)
    xy = np.array([p.translation[:2] for p in track])
    assert np.all(np.abs(xy) <= 80.0 + 1e-9)


def test_brownian_mean_squared_displacement_linear():
    # MSD of an unconstrained 2D random walk grows linearly in lag time
    config = make_config(n_epochs=10000, step_sigma_mm=1.0,
                         plane_extent_mm=1e7)
    track = generate_track(config)
    xy = np.array([p.translation[:2] for p in track])
    lags = np.arange(1, 60)
    msd = np.array([np.mean(np.sum((xy[lag:] - xy[:-lag]) ** 2, axis=1))
                    for lag in lags])
    slope, intercept = np.polyfit(lags, msd, 1)
    fit = slope * lags + intercept
    ss_res = np.sum((msd - fit) ** 2)
    ss_tot = np.sum((msd - msd.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 0.95


# -- rendering ----------------------------------------------------------------

def test_noiseless_observations_retriangulate():
    config = make_config(noise_sigma_px=0.0, n_epochs=30)
    ds = simulate(config)
    cams = ds.cameras
    for t in range(0, 30, 7):
        for i in range(8):
            views = [(cams[k], ds.observations[t, k, i])
                     for k in range(len(cams)) if ds.visible[t, k, i]]
            assert len(views) >= 2
            X, _ = geometry.triangulate(views)
            assert np.allclose(X, ds.deformable_world[t, i], atol=1e-6)


def test_render_equals_per_epoch_projection():
    # one projection over all epochs equals projecting epoch by epoch
    ds = simulate(make_config(n_epochs=12, seed=3,
                              occlusion=OcclusionConfig(random_dropout_rate=0.3)))
    for t in range(12):
        for k, cam in enumerate(ds.cameras):
            px, _ = geometry.project_many(cam, ds.deformable_world[t])
            vis = ds.visible[t, k]
            assert np.array_equal(ds.observations[t, k, vis],
                                  px[vis] + ds.noise[t, k, vis])
            assert np.isnan(ds.observations[t, k, ~vis]).all()


def test_noise_audit_matches_observations():
    config = make_config(noise_sigma_px=0.5, n_epochs=20)
    ds = simulate(config)
    clean = simulate(make_config(noise_sigma_px=0.0, n_epochs=20))
    vis = ds.visible
    assert np.allclose(ds.observations[vis],
                       clean.observations[vis] + ds.noise[vis], atol=1e-9)


def test_dropout_rate_binomial():
    config = make_config(
        n_epochs=500, seed=7,
        occlusion=OcclusionConfig(random_dropout_rate=0.2))
    ds = simulate(config)
    # exclude out-of-frame losses by comparing against the no-dropout render
    base = simulate(make_config(n_epochs=500, seed=7))
    candidates = base.visible.sum()
    dropped = candidates - ds.visible.sum()
    rate = dropped / candidates
    assert rate == pytest.approx(0.2, abs=0.02)


def test_heavy_dropout_creates_unsolvable_epochs():
    config = make_config(
        n_epochs=200, occlusion=OcclusionConfig(random_dropout_rate=0.9))
    ds = simulate(config)
    deficient = (ds.visible_part_counts() < 3).all(axis=1)
    assert deficient.any()


def test_render_order_independent_noise():
    # per-epoch derived RNG streams: epoch t draws are identical no matter
    # how many epochs precede it
    # (the final epoch is excluded: its gait speed falls back to the
    # previous step, so it legitimately differs between run lengths)
    a = simulate(make_config(n_epochs=30, seed=5))
    b = simulate(make_config(n_epochs=10, seed=5))
    assert np.array_equal(a.visible[:9], b.visible[:9])
    vis = b.visible[:9]
    assert np.allclose(a.observations[:9][vis], b.observations[:9][vis])


def test_deformation_disabled_matches_rigid():
    ds = simulate(make_config(deformation_enabled=False))
    assert np.allclose(ds.deform_offsets, 0.0)
    assert np.allclose(ds.deformable_world, ds.rigid_world)


def test_gait_phase_progression():
    ds = simulate(make_config(n_epochs=25, gait_cycle_length=10))
    # paw offsets return to zero at every cycle boundary (phase 0) and the
    # diagonal pairs stay exact negatives in between
    for t in (0, 10, 20):
        assert np.allclose(ds.deform_offsets[t, 3:7], 0.0, atol=1e-12)
    y = ds.deform_offsets[:, :, 1]
    assert np.allclose(y[:, mouse_model.LEFT_FRONT_PAW],
                       -y[:, mouse_model.RIGHT_FRONT_PAW], atol=1e-12)
    assert np.allclose(y[:, mouse_model.LEFT_FRONT_PAW],
                       y[:, mouse_model.RIGHT_HIND_PAW], atol=1e-12)


# -- dataset IO ---------------------------------------------------------------

def test_export_import_roundtrip(tmp_path):
    ds = simulate(make_config(
        n_epochs=40, occlusion=OcclusionConfig(random_dropout_rate=0.2)))
    path = tmp_path / "data.json"
    export_dataset(ds, path)
    loaded = import_dataset(path)
    assert loaded.n_epochs == ds.n_epochs
    assert np.array_equal(loaded.visible, ds.visible)
    vis = ds.visible
    assert np.allclose(loaded.observations[vis], ds.observations[vis])
    assert np.allclose(loaded.deform_offsets, ds.deform_offsets, atol=1e-9)
    for p, q in zip(ds.poses, loaded.poses):
        assert np.allclose(p.rodrigues, q.rodrigues)
        assert np.allclose(p.translation, q.translation)
    for a, b in zip(ds.cameras, loaded.cameras):
        assert np.allclose(a.calibration, b.calibration)
        assert np.allclose(a.pose_global.matrix(), b.pose_global.matrix())


def test_export_size_budget(tmp_path):
    ds = simulate(make_config(n_epochs=500))
    path = tmp_path / "big.json"
    export_dataset(ds, path)
    assert path.stat().st_size < 10 * 1024 * 1024


def test_import_missing_camera_field(tmp_path):
    ds = simulate(make_config(n_epochs=10))
    path = tmp_path / "data.json"
    export_dataset(ds, path)
    doc = json.loads(path.read_text())
    del doc["meta"]["cameras"][0]["K"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="K"):
        import_dataset(path)


def test_import_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text('{"not": "a dataset"}')
    with pytest.raises(SchemaError):
        import_dataset(path)


def _set_row(col, value):
    def mutate(doc):
        doc["observations"]["rows"][0][col] = value
    return mutate


def _del_pose_field(key):
    def mutate(doc):
        del doc["ground_truth"]["poses"][3][key]
    return mutate


def _set_pose_t(value):
    def mutate(doc):
        doc["ground_truth"]["poses"][4]["t"] = value
    return mutate


def _short_row(doc):
    doc["observations"]["rows"][0] = doc["observations"]["rows"][0][:6]


# (mutation of an exported 10-epoch dataset, expected message)
MALFORMED_DATASETS = {
    "negative_t": (_set_row(0, -1), "t = -1"),
    "t_past_end": (_set_row(0, 10), "t = 10"),
    "camera_out_of_range": (_set_row(1, 9), "k = 9"),
    "part_out_of_range": (_set_row(2, 8), "i = 8"),
    "fractional_index": (_set_row(2, 1.5), "integers"),
    "short_row": (_short_row, "7 numbers"),
    "pose_missing_rodrigues": (_del_pose_field("rodrigues"), "rodrigues"),
    "pose_missing_translation": (_del_pose_field("translation_mm"),
                                 "translation_mm"),
    "duplicate_pose_t": (_set_pose_t(3), "duplicate pose t = 3"),
    "pose_t_past_end": (_set_pose_t(10), "t = 10"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_import_rejects_malformed_dataset(tmp_path, case):
    path = tmp_path / "data.json"
    export_dataset(simulate(make_config(n_epochs=10)), path)
    doc = json.loads(path.read_text())
    mutate, message = MALFORMED_DATASETS[case]
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        import_dataset(path)


def test_import_accepts_shuffled_pose_records(tmp_path):
    ds = simulate(make_config(n_epochs=10))
    path = tmp_path / "data.json"
    export_dataset(ds, path)
    doc = json.loads(path.read_text())
    doc["ground_truth"]["poses"].reverse()
    doc["observations"]["rows"].reverse()
    path.write_text(json.dumps(doc))
    loaded = import_dataset(path)
    assert np.array_equal(loaded.visible, ds.visible)
    assert np.array_equal(loaded.observations, ds.observations, equal_nan=True)
    for p, q in zip(ds.poses, loaded.poses):
        assert np.array_equal(p.as_array(), q.as_array())
