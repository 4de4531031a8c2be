"""Ground-truth scene simulator.

Generates a 2D Brownian body track on a table plane, deforms the mouse model
per epoch by model-frame offsets (pace gait + head nodding), poses its parts
as the solver and the evaluation do (`mouse_model.world_part_positions`),
projects every part into every camera, adds Gaussian pixel noise, and drops
observations (random dropout plus image-bounds test). Everything is
reproducible from the config seed. Epoch t's pixel noise and dropout come
from its own stream, `np.random.default_rng([seed, t])`: first the
(K, P, 2) standard normals that, times `noise_sigma_px`, are added to the
pixels, then the (K, P) uniforms that decide dropout, for the P parts of
`mouse_model.COORDS`. So epoch rendering is order-independent, and the
noise of a recording can be drawn again from its seed.

A dataset file (`export_dataset`, `import_dataset`) keeps the scene config
as JSON and the recording and its truth (poses and offsets) as base64
blocks of float64 values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geometry, mouse_model
from .errors import (CameraSeesNothing, SchemaError, check_cells,
                     check_object, check_version, decode_block, encode_block,
                     fields, read_json)
from .geometry import CameraModel, RigidTransform


PLANE_EXTENT_MM = 500.0    # the track stays in [-e, e]^2 on z = 0
HEADING_SMOOTHING = 0.3    # share of the turn toward the travel direction
GAIT_CYCLE_LENGTH = 10     # epochs per gait cycle


@dataclass(frozen=True)
class OcclusionConfig:
    random_dropout_rate: float = 0.0


@dataclass(frozen=True)
class SceneConfig:
    cameras: tuple
    seed: int = 0
    n_epochs: int = 100
    step_sigma_mm: float = 1.0
    noise_sigma_px: float = 0.5
    occlusion: OcclusionConfig = field(default_factory=OcclusionConfig)
    deformation_enabled: bool = True

    def __post_init__(self):
        if len(self.cameras) < 2:
            raise ValueError("scene needs at least 2 cameras")
        if self.n_epochs < 5:
            raise ValueError("n_epochs must be >= 5 (spline window)")
        object.__setattr__(self, "cameras", tuple(self.cameras))


@dataclass
class SimulatedDataset:
    """Per-epoch ground truth plus per-camera observations.

    poses is the (T, 6) ground-truth track: row t holds epoch t's Rodrigues
    rotation vector, then its translation in mm. The true world part
    positions are `mouse_model.world_part_positions(poses, COORDS +
    deform_offsets)`. observations[t, k, i] = (u, v); visible[t, k, i]
    boolean; pixels of invisible observations are NaN.
    """

    config: SceneConfig
    poses: np.ndarray                # (T, 6) ground-truth pose parameters
    deform_offsets: np.ndarray       # (T, P, 3) model-frame offsets
    observations: np.ndarray         # (T, K, P, 2) pixels, NaN if invisible
    visible: np.ndarray              # (T, K, P) bool

    @property
    def n_epochs(self):
        return len(self.poses)

    @property
    def cameras(self):
        return self.config.cameras


def default_cameras():
    """The three-camera rig at roughly 90 degree separation: top, side and
    front, centred at (0, 0, 1200), (1200, 0, 300) and (0, -1200, 300) mm.

    Every camera has a 1280 x 1024 px image, a focal length of 1500 px and
    the principal point at the image centre, and looks at the origin of the
    table plane (z = 0).
    """
    w, h = 1280, 1024
    K = np.array([[1500.0, 0.0, w / 2.0],
                  [0.0, 1500.0, h / 2.0],
                  [0.0, 0.0, 1.0]])
    centers = [
        np.array([0.0, 0.0, 1200.0]),       # top
        np.array([1200.0, 0.0, 300.0]),     # side
        np.array([0.0, -1200.0, 300.0]),    # front
    ]
    cams = []
    for k, c in enumerate(centers):
        z_axis = -c / np.linalg.norm(c)  # look at the origin
        up = np.array([0.0, 1.0, 0.0]) if abs(z_axis[2]) > 0.9 else np.array([0.0, 0.0, 1.0])
        x_axis = np.cross(up, z_axis)
        x_axis /= np.linalg.norm(x_axis)
        y_axis = np.cross(z_axis, x_axis)
        R = np.vstack([x_axis, y_axis, z_axis])
        t = -R @ c
        cams.append(CameraModel(K, RigidTransform(R, t), id=k, image_size=(w, h)))
    return tuple(cams)


def _reflect(value, lo, hi):
    """Reflect a scalar into [lo, hi]."""
    span = hi - lo
    v = (value - lo) % (2 * span)
    return lo + (span - abs(v - span))


def generate_track(config: SceneConfig):
    """Ground-truth body poses as a (T, 6) array (Rodrigues vector, then
    translation in mm): 2D Brownian positions reflected at the plane borders,
    yaw-only heading smoothed from the motion direction, and a fixed z so the
    resting paws touch the plane."""
    rng = np.random.default_rng(config.seed)
    T = config.n_epochs
    e = PLANE_EXTENT_MM
    steps = rng.normal(0.0, config.step_sigma_mm, size=(T - 1, 2))
    xy = np.zeros((T, 2))
    for t in range(1, T):
        raw = xy[t - 1] + steps[t - 1]
        xy[t] = [_reflect(raw[0], -e, e), _reflect(raw[1], -e, e)]

    # paw rest height is the minimum model z; body origin sits above the plane
    z_body = -mouse_model.COORDS[:, 2].min()

    # heading: smoothed motion direction, yaw about z; model anterior is +Y
    alpha = HEADING_SMOOTHING
    heading = np.zeros(T)
    for t in range(1, T):
        heading[t] = heading[t - 1]
        d = xy[t] - xy[t - 1]
        dist = np.linalg.norm(d)
        if dist > 1e-12:
            target = math.atan2(d[1], d[0]) - math.pi / 2.0
            delta = (target - heading[t] + math.pi) % (2 * math.pi) - math.pi
            # turn toward the travel direction at a rate proportional to
            # distance covered (capped), so short steps barely steer
            heading[t] += alpha * min(1.0, dist) * delta
    return np.column_stack([np.zeros((T, 2)), heading, xy, np.full(T, z_body)])


def render(config: SceneConfig, track) -> SimulatedDataset:
    """Project the deformed model at the poses of track, a (T, 6) array
    (Rodrigues vector, then translation in mm), into every camera with noise
    and dropout."""
    params = np.array(track, dtype=float)
    T = len(params)
    cams = config.cameras
    K, P = len(cams), len(mouse_model.COORDS)

    # sanity: every camera must image some of the plane
    for cam in cams:
        probe = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        px, depth = geometry.project_many(cam, probe)
        if np.all(depth <= 0):
            raise CameraSeesNothing(f"camera {cam.id} never images the plane")

    offsets = np.zeros((T, P, 3))
    if config.deformation_enabled:
        # body speed over the step to the next epoch (the last epoch reuses
        # the step before it)
        d = np.diff(params[:, 3:5], axis=0)
        speed = np.sqrt(np.vecdot(d, d))
        cycle = GAIT_CYCLE_LENGTH
        offsets = mouse_model.deform((np.arange(T) % cycle) / cycle,
                                     np.append(speed, speed[-1]), cycle)
    deform_world = mouse_model.world_part_positions(
        params, mouse_model.COORDS + offsets)

    # derived per-epoch streams keep epoch rendering order-independent
    eps = np.empty((T, K, P, 2))
    drops = np.empty((T, K, P), dtype=bool)
    for t in range(T):
        rng = np.random.default_rng([config.seed, t])
        eps[t] = rng.normal(0.0, 1.0, size=(K, P, 2)) * config.noise_sigma_px
        drops[t] = rng.random(size=(K, P)) < config.occlusion.random_dropout_rate

    keep = ~drops
    noisy = np.empty((T, K, P, 2))
    for k, cam in enumerate(cams):
        px, depth = geometry.project_many(cam, deform_world.reshape(-1, 3))
        noisy[:, k] = px.reshape(T, P, 2) + eps[:, k]
        keep[:, k] &= depth.reshape(T, P) > geometry.EPS_DEPTH
        if cam.image_size is not None:
            w, h = cam.image_size
            u, v = noisy[:, k, :, 0], noisy[:, k, :, 1]
            keep[:, k] &= (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return SimulatedDataset(config=config, poses=params,
                            deform_offsets=offsets,
                            observations=np.where(keep[..., None], noisy, np.nan),
                            visible=keep)


def simulate(config: SceneConfig) -> SimulatedDataset:
    return render(config, generate_track(config))


# ---------------------------------------------------------------------------
# Dataset file IO: JSON with every array as one base64 float64 block
# ---------------------------------------------------------------------------

def _config_to_dict(config: SceneConfig) -> dict:
    d = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    d["cameras"] = [geometry.camera_to_dict(c) for c in config.cameras]
    d["occlusion"] = asdict(config.occlusion)
    return d


# field specs for `errors.fields`, with the config classes' defaults
_SCENE_FIELDS = {
    "cameras": (None, list, lambda v: len(v) >= 2, "a list of >= 2 cameras"),
    "seed": (None, int, lambda v: v >= 0, "an integer >= 0"),
    "n_epochs": (None, int, lambda v: v >= 5, "an integer >= 5"),
    "step_sigma_mm": (SceneConfig.step_sigma_mm, float, lambda v: v >= 0,
                      "a number >= 0"),
    "noise_sigma_px": (SceneConfig.noise_sigma_px, float, lambda v: v >= 0,
                       "a number >= 0"),
    "occlusion": ({}, dict, None, "an object"),
    "deformation_enabled": (SceneConfig.deformation_enabled, bool, None,
                            "true or false"),
}
_OCCLUSION_FIELDS = {
    "random_dropout_rate": (OcclusionConfig.random_dropout_rate, float,
                            lambda v: 0 <= v <= 1, "a number in [0, 1]"),
}


def _config_from_dict(d: dict) -> SceneConfig:
    f = fields(d, _SCENE_FIELDS, "scene config")
    cams = tuple(geometry.camera_from_dict(c) for c in f["cameras"])
    if [c.id for c in cams] != list(range(len(cams))):
        raise SchemaError("scene config cameras must have ids 0..K-1 in order")
    f["cameras"] = cams
    f["occlusion"] = OcclusionConfig(**fields(f["occlusion"], _OCCLUSION_FIELDS,
                                               "scene config occlusion"))
    return SceneConfig(**f)


FORMAT_VERSION = 3


def export_dataset(dataset: SimulatedDataset, path):
    """Write a dataset file (format version 3): one JSON object whose `meta`
    is the scene config as JSON and whose arrays are blocks, each one base64
    string of little-endian float64 in C order with its shape given by
    `meta` (T epochs, K cameras) and by the P parts of
    `mouse_model.COORDS`:

    - `ground_truth.poses` (T, 6) and `ground_truth.deform_offsets_mm`
      (T, P, 3);
    - `observations.pixels` (T, K, P, 2), NaN where a part is not seen.

    `import_dataset` reads back every array bit for bit."""
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": _config_to_dict(dataset.config),
        "ground_truth": {
            "poses": encode_block(dataset.poses),
            "deform_offsets_mm": encode_block(dataset.deform_offsets),
        },
        "observations": {"pixels": encode_block(dataset.observations)},
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def import_dataset(path) -> SimulatedDataset:
    """Dataset written by `export_dataset`, with `visible` where a pixel
    pair is a pair of numbers. Anything malformed raises SchemaError naming
    its field:

    - a file without `format_version` 3 (version 1 listed each observation
      as a JSON row, version 2 also held the pixel noise; both are refused
      by their version);
    - a missing or unknown field, or a bad `meta`;
    - a block that is not a base64 string or does not hold the shape that
      `meta` gives;
    - a non-finite pose or offset, an infinite pixel, or a pixel pair with
      one NaN and one number."""
    doc = read_json(path, "dataset")
    check_version(doc, FORMAT_VERSION, "dataset")
    check_object(doc, ("format_version", "meta", "ground_truth",
                       "observations"), (), "dataset file")
    gt, observations = doc["ground_truth"], doc["observations"]
    check_object(gt, ("poses", "deform_offsets_mm"), (), "dataset ground_truth")
    check_object(observations, ("pixels",), (), "dataset observations")
    config = _config_from_dict(doc["meta"])
    T, Kn, P = config.n_epochs, len(config.cameras), len(mouse_model.COORDS)
    params = decode_block(gt["poses"], (T, 6), "dataset", "ground_truth.poses")
    offsets = decode_block(gt["deform_offsets_mm"], (T, P, 3), "dataset",
                           "ground_truth.deform_offsets_mm")
    obs = decode_block(observations["pixels"], (T, Kn, P, 2), "dataset",
                       "observations.pixels")

    def check(bad, field, rule, names=("t", "k", "i")):
        check_cells(bad, "dataset", field, rule, names)

    check(~np.isfinite(params), "ground_truth.poses", "must be finite",
          ("t", "column"))
    check(~np.isfinite(offsets), "ground_truth.deform_offsets_mm",
          "must be finite", ("t", "i", "axis"))
    check(np.isinf(obs).any(axis=3), "observations.pixels",
          "holds an infinite value")
    seen = ~np.isnan(obs)
    vis = seen[..., 0]
    check(seen[..., 1] != vis, "observations.pixels",
          "holds a pair of one NaN and one number")
    return SimulatedDataset(config=config, poses=params,
                            deform_offsets=offsets, observations=obs,
                            visible=vis)
