import base64
import json
import tracemalloc

import numpy as np
import pytest

from mousetrack3d import geometry, mouse_model, simulator
from mousetrack3d.errors import CameraSeesNothing, SchemaError
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


def true_parts(ds):
    """(T, 8, 3) true world part positions of a dataset."""
    return mouse_model.world_part_positions(
        ds.poses, mouse_model.COORDS + ds.deform_offsets)


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


def test_default_rig_values():
    cams = default_cameras()
    assert np.allclose([c.center() for c in cams],
                       [[0.0, 0.0, 1200.0], [1200.0, 0.0, 300.0],
                        [0.0, -1200.0, 300.0]], rtol=0, atol=1e-9)
    for cam in cams:
        assert np.array_equal(cam.calibration, [[1500.0, 0.0, 640.0],
                                                [0.0, 1500.0, 512.0],
                                                [0.0, 0.0, 1.0]])
        assert cam.image_size == (1280, 1024)


def test_config_requires_two_cameras():
    with pytest.raises(ValueError):
        SceneConfig(cameras=default_cameras()[:1])


# -- track generation ---------------------------------------------------------

def test_zero_step_sigma_stationary():
    config = make_config(step_sigma_mm=0.0)
    track = generate_track(config)
    assert np.array_equal(track, np.broadcast_to(track[0], track.shape))


def test_track_determinism():
    a = generate_track(make_config(seed=42))
    b = generate_track(make_config(seed=42))
    assert np.array_equal(a, b)


def test_body_height_rests_paws_on_plane():
    track = generate_track(make_config())
    pts = mouse_model.world_part_positions(track[0])
    assert pts[:, 2].min() == pytest.approx(0.0, abs=1e-9)


def test_track_stays_inside_plane_extent(monkeypatch):
    monkeypatch.setattr(simulator, "PLANE_EXTENT_MM", 80.0)
    config = make_config(n_epochs=2000, step_sigma_mm=30.0)
    xy = generate_track(config)[:, 3:5]
    assert np.all(np.abs(xy) <= 80.0 + 1e-9)


def test_brownian_mean_squared_displacement_linear(monkeypatch):
    # MSD of an unconstrained 2D random walk grows linearly in lag time
    monkeypatch.setattr(simulator, "PLANE_EXTENT_MM", 1e7)
    config = make_config(n_epochs=10000, step_sigma_mm=1.0)
    xy = generate_track(config)[:, 3:5]
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
    epochs = np.arange(0, 30, 7)
    # (epochs, parts) points, each seen by the cameras that see it
    pixels = ds.observations[epochs].transpose(0, 2, 1, 3)
    visible = ds.visible[epochs].transpose(0, 2, 1)
    assert (visible.sum(axis=2) >= 2).all()
    X, ok = geometry.triangulate_batch(
        ds.cameras, pixels.reshape(-1, len(ds.cameras), 2),
        visible.reshape(-1, len(ds.cameras)))
    assert ok.all()
    assert np.allclose(X.reshape(len(epochs), 8, 3),
                       true_parts(ds)[epochs], atol=1e-6)


def redrawn_streams(config):
    """Pixel noise (T, K, 8, 2) and dropout (T, K, 8) drawn again from the
    per-epoch streams, as the simulator documents them: epoch t draws from
    default_rng([seed, t]) the standard normals, then the uniforms."""
    K = len(config.cameras)
    noise, drops = [], []
    for t in range(config.n_epochs):
        rng = np.random.default_rng([config.seed, t])
        noise.append(rng.normal(0.0, 1.0, size=(K, 8, 2))
                     * config.noise_sigma_px)
        drops.append(rng.random(size=(K, 8))
                     < config.occlusion.random_dropout_rate)
    return np.array(noise), np.array(drops)


def test_render_equals_per_epoch_projection():
    # one projection over all epochs equals projecting epoch by epoch, plus
    # the noise of the epoch's stream; its dropped parts are not seen
    config = make_config(n_epochs=12, seed=3,
                         occlusion=OcclusionConfig(random_dropout_rate=0.3))
    ds = simulate(config)
    noise, drops = redrawn_streams(config)
    assert drops.any()
    assert not ds.visible[drops].any()
    parts = true_parts(ds)
    for t in range(12):
        for k, cam in enumerate(ds.cameras):
            px, _ = geometry.project_many(cam, parts[t])
            vis = ds.visible[t, k]
            assert np.array_equal(ds.observations[t, k, vis],
                                  px[vis] + noise[t, k, vis])
            assert np.isnan(ds.observations[t, k, ~vis]).all()


def test_noise_audit_matches_observations():
    config = make_config(noise_sigma_px=0.5, n_epochs=20)
    ds = simulate(config)
    clean = simulate(make_config(noise_sigma_px=0.0, n_epochs=20))
    noise, _ = redrawn_streams(config)
    vis = ds.visible
    assert np.allclose(ds.observations[vis],
                       clean.observations[vis] + noise[vis], atol=1e-9)


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
    deficient = (ds.visible.sum(axis=2) < 3).all(axis=1)
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


def test_render_rejects_camera_facing_away():
    # camera 1 above the table at z = 1200 mm, looking up
    cams = list(default_cameras())
    cams[1] = geometry.CameraModel(
        cams[1].calibration,
        geometry.RigidTransform(np.eye(3), np.array([0.0, 0.0, -1200.0])),
        id=1, image_size=cams[1].image_size)
    with pytest.raises(CameraSeesNothing, match="camera 1 never images"):
        simulate(make_config(cameras=cams, n_epochs=10))


def test_deformation_disabled_matches_rigid():
    ds = simulate(make_config(deformation_enabled=False))
    assert not ds.deform_offsets.any()


def test_gait_phase_progression():
    ds = simulate(make_config(n_epochs=25))
    # paw offsets return to zero at every cycle boundary (phase 0) and the
    # diagonal pairs stay exact negatives in between
    for t in range(0, 25, simulator.GAIT_CYCLE_LENGTH):
        assert np.allclose(ds.deform_offsets[t, 3:7], 0.0, atol=1e-12)
    y = ds.deform_offsets[:, :, 1]
    assert np.allclose(y[:, mouse_model.LEFT_FRONT_PAW],
                       -y[:, mouse_model.RIGHT_FRONT_PAW], atol=1e-12)
    assert np.allclose(y[:, mouse_model.LEFT_FRONT_PAW],
                       y[:, mouse_model.RIGHT_HIND_PAW], atol=1e-12)


# -- dataset IO ---------------------------------------------------------------

def read_block(doc, *keys):
    """The array of the block at path `keys` of a dataset document, decoded
    as the README documents it: flat, in C order."""
    node = doc
    for key in keys:
        node = node[key]
    return np.frombuffer(base64.b64decode(node), "<f8")


def write_block(doc, *keys, array):
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = base64.b64encode(
        np.asarray(array, "<f8").tobytes()).decode()


def test_export_import_roundtrip(tmp_path):
    ds = simulate(make_config(
        n_epochs=40, occlusion=OcclusionConfig(random_dropout_rate=0.2)))
    path = tmp_path / "data.json"
    export_dataset(ds, path)
    loaded = import_dataset(path)
    for name in ("poses", "deform_offsets", "observations", "visible"):
        assert np.array_equal(getattr(loaded, name), getattr(ds, name),
                              equal_nan=True), name
    assert loaded.deform_offsets.any() and not ds.visible.all()
    # every array is a writable array of its own
    assert loaded.observations.flags.writeable
    for a, b in zip(ds.cameras, loaded.cameras):
        assert np.allclose(a.calibration, b.calibration)
        assert np.allclose(a.pose_global.rotation, b.pose_global.rotation)
        assert np.allclose(a.pose_global.translation, b.pose_global.translation)


def test_dataset_blocks_decode_with_numpy(tmp_path):
    ds = simulate(make_config(
        n_epochs=12, occlusion=OcclusionConfig(random_dropout_rate=0.3)))
    path = tmp_path / "data.json"
    export_dataset(ds, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert sorted(doc["observations"]) == ["pixels"]
    T, K = 12, len(doc["meta"]["cameras"])
    pixels = read_block(doc, "observations", "pixels").reshape(T, K, 8, 2)
    assert np.array_equal(pixels, ds.observations, equal_nan=True)
    assert np.array_equal(np.isfinite(pixels).all(axis=3), ds.visible)
    assert np.array_equal(
        read_block(doc, "ground_truth", "poses").reshape(T, 6), ds.poses)
    assert np.array_equal(
        read_block(doc, "ground_truth", "deform_offsets_mm").reshape(T, 8, 3),
        ds.deform_offsets)


def test_export_size_budget(tmp_path):
    ds = simulate(make_config(n_epochs=500))
    path = tmp_path / "big.json"
    export_dataset(ds, path)
    assert path.stat().st_size < 10 * 1024 * 1024


def test_import_memory_is_bounded_per_epoch(tmp_path):
    """import_dataset allocates about 3 KB per epoch on three cameras: the
    file's text and its parsed blocks (1.3 KB each), then the arrays. One
    JSON row per observation took 11.6 KB."""
    def peak(n_epochs):
        path = tmp_path / f"data{n_epochs}.json"
        export_dataset(simulate(make_config(n_epochs=n_epochs)), path)
        tracemalloc.start()
        try:
            import_dataset(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peak(1024) - peak(256)) / 768 < 5000


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


def _set(*keys, value):
    """Mutation that sets the field at path `keys` to `value`."""
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return mutate


def _edit_block(*keys, shape, edit):
    """Mutation that decodes the block at path `keys` to `shape`, passes it
    to `edit` and writes back what `edit` returns."""
    def mutate(doc):
        array = read_block(doc, *keys).reshape(shape).copy()
        write_block(doc, *keys, array=edit(array))
    return mutate


def _assign(index, value):
    def edit(array):
        array[index] = value
        return array
    return edit


def _rename(*keys, new):
    """Mutation that renames the field at path `keys` to `new`."""
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[new] = node.pop(keys[-1])
    return mutate


def _version_1(doc):
    # the layout of a version-1 file: no version, one row per observation
    del doc["format_version"]
    doc["observations"] = {"columns": ["t", "k", "i", "u", "v", "noise_u",
                                       "noise_v"], "rows": []}


# blocks of the exported 10-epoch, 3-camera dataset, by their shapes
POSES = ("ground_truth", "poses")
OFFSETS = ("ground_truth", "deform_offsets_mm")
PIXELS = ("observations", "pixels")
CELLS = (10, 3, 8, 2)


def _pixels(edit):
    return _edit_block(*PIXELS, shape=CELLS, edit=edit)


# (mutation of an exported 10-epoch dataset, expected message)
MALFORMED_DATASETS = {
    "version_1": (_version_1, "^unsupported dataset format version 1; "
                              "this version reads 3$"),
    # version 2 also held the pixel noise
    "version_2": (_set("format_version", value=2),
                  "^unsupported dataset format version 2; "
                  "this version reads 3$"),
    "version_4": (_set("format_version", value=4), "format version 4;"),
    "version_text": (_set("format_version", value="3"),
                     "format version '3';"),
    "missing_deform_offsets": (
        lambda doc: doc["ground_truth"].pop("deform_offsets_mm"),
        "dataset ground_truth missing field 'deform_offsets_mm'"),
    # a version-2 block in a version-3 file
    "noise_block": (_set("observations", "noise", value=""),
                    "dataset observations has unknown field 'noise'"),
    "misspelt_deform_offsets": (
        _rename(*OFFSETS, new="deform_offset_mm"),
        "dataset ground_truth has unknown field 'deform_offset_mm'"),
    "misspelt_observation_pixels": (
        _rename(*PIXELS, new="pixel"),
        "dataset observations has unknown field 'pixel'"),
    "misspelt_pose_field": (_rename(*POSES, new="pose"),
                            "dataset ground_truth has unknown field 'pose'"),
    "unknown_top_level_field": (_rename("meta", new="metadata"),
                                "dataset file has unknown field 'metadata'"),
    # a version-1 field in a version-3 file
    "nonsense_columns": (_set("observations", "columns", value="nonsense"),
                         "dataset observations has unknown field 'columns'"),
    # a block that is not a string
    "bool_part": (_set(*PIXELS, value=False),
                  "'observations.pixels' must be a base64 string"),
    "pose_list": (_set(*POSES, value=[[0.0] * 6] * 10),
                  "'ground_truth.poses' must be a base64 string"),
    # not base64
    "string_pixel": (_set(*PIXELS, value="640.06"),
                     "'observations.pixels' is not valid base64"),
    "non_ascii_block": (_set(*POSES, value="AAAAAAAAéAAA"),
                        "'ground_truth.poses' is not valid base64"),
    "unpadded_block": (_set(*OFFSETS, value="AAAAAAAAAAA"),
                       "'ground_truth.deform_offsets_mm' is not valid base64"),
    # blocks of another shape than meta gives
    "short_row": (_pixels(lambda a: a.ravel()[:-1]),
                  "'observations.pixels' holds 3832 bytes, not the 3840 of "
                  "10 x 3 x 8 x 2 float64 values"),
    "t_past_end": (_pixels(lambda a: np.concatenate([a, a[:1]])),
                   "'observations.pixels' holds 4224 bytes"),
    "camera_out_of_range": (_pixels(lambda a: np.concatenate([a, a[:, :1]],
                                                             axis=1)),
                            "'observations.pixels' holds 5120 bytes"),
    "part_out_of_range": (_pixels(lambda a: np.concatenate([a, a[:, :, :1]],
                                                           axis=2)),
                          "'observations.pixels' holds 4320 bytes"),
    "pose_t_past_end": (_edit_block(*POSES, shape=(10, 6),
                                    edit=lambda a: np.concatenate([a, a[:1]])),
                        "'ground_truth.poses' holds 528 bytes, not the 480"),
    "pose_missing_rodrigues": (_edit_block(*POSES, shape=(10, 6),
                                           edit=lambda a: a[:, 3:]),
                               "'ground_truth.poses' holds 240 bytes"),
    "pose_missing_translation": (_edit_block(*POSES, shape=(10, 6),
                                             edit=lambda a: a[:, :3]),
                                 "'ground_truth.poses' holds 240 bytes"),
    # non-finite values
    "nan_pose": (_edit_block(*POSES, shape=(10, 6),
                             edit=_assign((4, 2), np.nan)),
                 r"'ground_truth.poses' must be finite \(at t = 4, "
                 r"column = 2\)"),
    "inf_offset": (_edit_block(*OFFSETS, shape=(10, 8, 3),
                               edit=_assign((3, 5, 1), -np.inf)),
                   r"'ground_truth.deform_offsets_mm' must be finite \(at "
                   r"t = 3, i = 5, axis = 1\)"),
    "inf_pixel": (_pixels(_assign((5, 2, 4, 1), np.inf)),
                  r"'observations.pixels' holds an infinite value \(at "
                  r"t = 5, k = 2, i = 4\)"),
    # a pixel pair must be two numbers or two NaNs
    "nan_pixel": (_pixels(_assign((0, 0, 3, 0), np.nan)),
                  r"'observations.pixels' holds a pair of one NaN and one "
                  r"number \(at t = 0, k = 0, i = 3\)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_import_rejects_malformed_dataset(tmp_path, case):
    path = tmp_path / "data.json"
    ds = simulate(make_config(n_epochs=10))
    assert ds.visible.all()      # every mutated pixel above is a seen one
    export_dataset(ds, path)
    doc = json.loads(path.read_text())
    mutate, message = MALFORMED_DATASETS[case]
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        import_dataset(path)
