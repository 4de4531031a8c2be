"""Ground-truth scene simulator.

Generates a 2D Brownian body track on a table plane, deforms the mouse model
per epoch (pace gait + head nodding), projects every part into every camera,
adds Gaussian pixel noise, and drops observations (random dropout plus
image-bounds test). Everything is reproducible from the config seed; pixel
noise and dropout use per-epoch derived RNG streams so epoch rendering is
order-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geometry, mouse_model
from .errors import CameraSeesNothing, SchemaError, fields, numbers, read_json
from .geometry import CameraModel, PoseVector, RigidTransform


@dataclass(frozen=True)
class OcclusionConfig:
    random_dropout_rate: float = 0.0
    min_visible_floor: int = 0  # informational; no artificial rescue


@dataclass(frozen=True)
class SceneConfig:
    cameras: tuple
    plane_extent_mm: float = 500.0   # track confined to [-e, e]^2 on z = 0
    seed: int = 0
    n_epochs: int = 100
    step_sigma_mm: float = 1.0
    heading_smoothing: float = 0.3
    noise_sigma_px: float = 0.5
    occlusion: OcclusionConfig = field(default_factory=OcclusionConfig)
    gait_cycle_length: int = 10
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

    observations[t, k, i] = (u, v); visible[t, k, i] boolean; pixels of
    invisible observations are NaN (never stored on export). noise holds the
    exact Gaussian perturbation applied to each visible pixel for audit.
    """

    config: SceneConfig
    poses: list                      # n_epochs PoseVectors (ground truth)
    rigid_world: np.ndarray          # (T, 8, 3) world rigid part positions
    deformable_world: np.ndarray     # (T, 8, 3) world deformed part positions
    deform_offsets: np.ndarray       # (T, 8, 3) model-frame offsets
    observations: np.ndarray         # (T, K, 8, 2) pixels, NaN if invisible
    visible: np.ndarray              # (T, K, 8) bool
    noise: np.ndarray                # (T, K, 8, 2) applied pixel noise

    @property
    def n_epochs(self):
        return len(self.poses)

    @property
    def cameras(self):
        return self.config.cameras

    def visible_part_counts(self):
        """(T, K) number of visible parts per epoch and camera."""
        return self.visible.sum(axis=2)


def default_cameras(distance_mm=1200.0, focal_px=1500.0,
                    image_size=(1280, 1024)):
    """Three-camera rig at roughly 90 degree separation: top, side, front.

    All cameras look at the origin of the table plane (z = 0).
    """
    w, h = image_size
    K = np.array([[focal_px, 0.0, w / 2.0],
                  [0.0, focal_px, h / 2.0],
                  [0.0, 0.0, 1.0]])
    centers = [
        np.array([0.0, 0.0, distance_mm]),       # top
        np.array([distance_mm, 0.0, 300.0]),     # side
        np.array([0.0, -distance_mm, 300.0]),    # front
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
    """Ground-truth body poses: 2D Brownian positions reflected at the plane
    borders, yaw-only heading smoothed from the motion direction, and a fixed
    z so the resting paws touch the plane."""
    rng = np.random.default_rng(config.seed)
    T = config.n_epochs
    e = config.plane_extent_mm
    steps = rng.normal(0.0, config.step_sigma_mm, size=(T - 1, 2))
    xy = np.zeros((T, 2))
    for t in range(1, T):
        raw = xy[t - 1] + steps[t - 1]
        xy[t] = [_reflect(raw[0], -e, e), _reflect(raw[1], -e, e)]

    # paw rest height is the minimum model z; body origin sits above the plane
    z_body = -mouse_model.RigidMouseModel().rigid_part_positions()[:, 2].min()

    # heading: smoothed motion direction, yaw about z; model anterior is +Y
    alpha = config.heading_smoothing
    heading = 0.0
    poses = []
    for t in range(T):
        if t > 0:
            d = xy[t] - xy[t - 1]
            dist = np.linalg.norm(d)
            if dist > 1e-12:
                target = math.atan2(d[1], d[0]) - math.pi / 2.0
                delta = (target - heading + math.pi) % (2 * math.pi) - math.pi
                # turn toward the travel direction at a rate proportional to
                # distance covered (capped), so short steps barely steer
                heading = heading + alpha * min(1.0, dist) * delta
        poses.append(PoseVector(np.array([0.0, 0.0, heading]),
                                np.array([xy[t][0], xy[t][1], z_body])))
    return poses


def _world_parts(params, offsets):
    """(rigid_world, deformable_world), each (T, 8, 3), of the rigid model
    at pose parameters (T, 6) and with model-frame offsets (T, 8, 3)."""
    rigid_world = mouse_model.world_part_positions(params)
    R = geometry.rodrigues_to_matrix(params[:, :3])
    return rigid_world, rigid_world + offsets @ R.transpose(0, 2, 1)


def render(config: SceneConfig, track) -> SimulatedDataset:
    """Project the deformed model into every camera with noise and dropout."""
    T = len(track)
    cams = config.cameras
    K = len(cams)
    model = mouse_model.RigidMouseModel()

    # sanity: every camera must image some of the plane
    for cam in cams:
        probe = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        px, depth = geometry.project_many(cam, probe)
        if np.all(depth <= 0):
            raise CameraSeesNothing(f"camera {cam.id} never images the plane")

    params = np.array([p.as_array() for p in track])
    offsets = np.zeros((T, 8, 3))
    if config.deformation_enabled:
        # body speed over the step to the next epoch (the last epoch reuses
        # the step before it)
        d = np.diff(params[:, 3:5], axis=0)
        speed = np.sqrt(np.vecdot(d, d))
        cycle = config.gait_cycle_length
        for t in range(T):
            offsets[t] = mouse_model.deform(
                model, (t % cycle) / cycle, float(speed[min(t, T - 2)]),
                cycle_length=cycle).offsets
    rigid_world, deform_world = _world_parts(params, offsets)

    # derived per-epoch streams keep epoch rendering order-independent
    eps = np.empty((T, K, 8, 2))
    drops = np.empty((T, K, 8), dtype=bool)
    for t in range(T):
        rng = np.random.default_rng([config.seed, t])
        eps[t] = rng.normal(0.0, 1.0, size=(K, 8, 2)) * config.noise_sigma_px
        drops[t] = rng.random(size=(K, 8)) < config.occlusion.random_dropout_rate

    keep = ~drops
    noisy = np.empty((T, K, 8, 2))
    for k, cam in enumerate(cams):
        px, depth = geometry.project_many(cam, deform_world.reshape(-1, 3))
        noisy[:, k] = px.reshape(T, 8, 2) + eps[:, k]
        keep[:, k] &= depth.reshape(T, 8) > geometry.EPS_DEPTH
        if cam.image_size is not None:
            w, h = cam.image_size
            u, v = noisy[:, k, :, 0], noisy[:, k, :, 1]
            keep[:, k] &= (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return SimulatedDataset(config=config, poses=list(track),
                            rigid_world=rigid_world,
                            deformable_world=deform_world,
                            deform_offsets=offsets,
                            observations=np.where(keep[..., None], noisy, np.nan),
                            visible=keep,
                            noise=np.where(keep[..., None], eps, 0.0))


def simulate(config: SceneConfig) -> SimulatedDataset:
    return render(config, generate_track(config))


# ---------------------------------------------------------------------------
# Dataset file IO (lossless JSON round-trip incl. ground truth + noise audit)
# ---------------------------------------------------------------------------

def _config_to_dict(config: SceneConfig) -> dict:
    d = {
        "cameras": [geometry.camera_to_dict(c) for c in config.cameras],
        "plane_extent_mm": config.plane_extent_mm,
        "seed": config.seed,
        "n_epochs": config.n_epochs,
        "step_sigma_mm": config.step_sigma_mm,
        "heading_smoothing": config.heading_smoothing,
        "noise_sigma_px": config.noise_sigma_px,
        "occlusion": asdict(config.occlusion),
        "gait_cycle_length": config.gait_cycle_length,
        "deformation_enabled": config.deformation_enabled,
    }
    return d


# field specs for `errors.fields`
_SCENE_FIELDS = {
    "cameras": (None, list, lambda v: len(v) >= 2, "a list of >= 2 cameras"),
    "seed": (None, int, lambda v: v >= 0, "an integer >= 0"),
    "n_epochs": (None, int, lambda v: v >= 5, "an integer >= 5"),
    "plane_extent_mm": (500.0, float, lambda v: v > 0, "a number > 0"),
    "step_sigma_mm": (1.0, float, lambda v: v >= 0, "a number >= 0"),
    "heading_smoothing": (0.3, float, None, "a number"),
    "noise_sigma_px": (0.5, float, lambda v: v >= 0, "a number >= 0"),
    "occlusion": ({}, dict, None, "an object"),
    "gait_cycle_length": (10, int, lambda v: v >= 1, "an integer >= 1"),
    "deformation_enabled": (True, bool, None, "true or false"),
}
_OCCLUSION_FIELDS = {
    "random_dropout_rate": (0.0, float, lambda v: 0 <= v <= 1,
                            "a number in [0, 1]"),
    "min_visible_floor": (0, int, lambda v: v >= 0, "an integer >= 0"),
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


def export_dataset(dataset: SimulatedDataset, path):
    """Write a dataset to JSON. Invisible observations are not stored."""
    index = np.argwhere(dataset.visible)            # (t, k, i) in C order
    t, k, i = index.T
    values = np.concatenate([dataset.observations[t, k, i],
                             dataset.noise[t, k, i]], axis=1)
    params = np.array([p.as_array() for p in dataset.poses]).tolist()
    doc = {
        "meta": _config_to_dict(dataset.config),
        "ground_truth": {
            "poses": [{"t": n, "rodrigues": p[:3], "translation_mm": p[3:]}
                      for n, p in enumerate(params)],
            "deform_offsets_mm": np.round(dataset.deform_offsets, 9).tolist(),
        },
        "observations": {
            "columns": ["t", "k", "i", "u", "v", "noise_u", "noise_v"],
            "rows": [a + b for a, b in zip(index.tolist(), values.tolist())],
        },
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _observation_table(rows, T, Kn):
    """Observation rows as one (n, 7) array with checked integer indices
    0 <= t < T, 0 <= k < Kn and 0 <= i < 8."""
    try:
        table = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("observation rows must be lists of 7 numbers")
    if table.size == 0:
        return np.zeros((0, 7))
    if table.ndim != 2 or table.shape[1] != 7:
        raise SchemaError(f"observation rows must be lists of 7 numbers, "
                          f"got an array of shape {table.shape}")
    idx = table[:, :3]
    bad = ~np.isfinite(idx) | (idx != np.round(idx))
    if bad.any():
        raise SchemaError(f"observation row {int(np.flatnonzero(bad.any(axis=1))[0])}: "
                          f"t, k and i must be integers")
    for col, (name, limit) in enumerate((("t", T), ("k", Kn), ("i", 8))):
        out = (idx[:, col] < 0) | (idx[:, col] >= limit)
        if out.any():
            row = int(np.flatnonzero(out)[0])
            raise SchemaError(f"observation row {row}: {name} = "
                              f"{int(idx[row, col])} outside 0..{limit - 1}")
    return table


def import_dataset(path) -> SimulatedDataset:
    doc = read_json(path, "dataset")
    if not isinstance(doc, dict):
        raise SchemaError("dataset file must be a JSON object")
    for key in ("meta", "ground_truth", "observations"):
        if not isinstance(doc.get(key), dict):
            raise SchemaError(f"dataset file missing object field '{key}'")
    config = _config_from_dict(doc["meta"])
    gt = doc["ground_truth"]
    if "poses" not in gt:
        raise SchemaError("dataset ground_truth missing field 'poses'")
    params = geometry.pose_table(gt["poses"])
    poses = [PoseVector(p[:3], p[3:]) for p in params]
    T = len(poses)
    if T != config.n_epochs:
        raise SchemaError(f"meta n_epochs = {config.n_epochs}, but ground_truth "
                          f"has {T} poses")
    Kn = len(config.cameras)
    offsets = np.zeros((T, 8, 3))
    if "deform_offsets_mm" in gt:
        offsets = numbers(gt["deform_offsets_mm"], (T, 8, 3), "deform_offsets_mm")

    rigid_world, deform_world = _world_parts(params, offsets)
    table = _observation_table(doc["observations"].get("rows", []), T, Kn)
    t, k, i = table[:, :3].astype(int).T
    obs = np.full((T, Kn, 8, 2), np.nan)
    vis = np.zeros((T, Kn, 8), dtype=bool)
    noise = np.zeros((T, Kn, 8, 2))
    obs[t, k, i] = table[:, 3:5]
    noise[t, k, i] = table[:, 5:7]
    vis[t, k, i] = True
    return SimulatedDataset(config=config, poses=poses,
                            rigid_world=rigid_world,
                            deformable_world=deform_world,
                            deform_offsets=offsets,
                            observations=obs, visible=vis, noise=noise)
