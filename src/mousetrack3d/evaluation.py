"""Evaluation against simulator ground truth, plus SVG/CSV plot emission."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import geometry, mouse_model
from .errors import EpochMismatch


@dataclass
class EvaluationReport:
    n_epochs: int
    position_error_mm: np.ndarray      # per epoch
    rotation_error_deg: np.ndarray     # per epoch, geodesic angle
    completeness_input: float          # fraction of epochs posable per frame
    completeness_output: float         # fraction of epochs with a pose
    per_part_rmse_mm: np.ndarray       # (P,) 3D reconstruction RMSE
    position_rmse_mm: float
    rotation_rmse_deg: float
    percentiles: dict                  # p50/p90/p95 of position error

    def to_dict(self):
        d = asdict(self)
        d["position_error_mm"] = [round(float(v), 9) for v in self.position_error_mm]
        d["rotation_error_deg"] = [round(float(v), 9) for v in self.rotation_error_deg]
        d["per_part_rmse_mm"] = [round(float(v), 9) for v in self.per_part_rmse_mm]
        d["position_rmse_mm"] = round(float(self.position_rmse_mm), 9)
        d["rotation_rmse_deg"] = round(float(self.rotation_rmse_deg), 9)
        d["percentiles"] = {k: round(float(v), 9) for k, v in self.percentiles.items()}
        return d


def geodesic_angle(Ra, Rb):
    """Angle (rad) of the relative rotation between rotation matrices
    (..., 3, 3)."""
    c = np.clip((np.trace(np.swapaxes(Ra, -1, -2) @ Rb, axis1=-2, axis2=-1)
                 - 1.0) / 2.0, -1.0, 1.0)
    return np.arccos(c)


def _check_epochs(track, dataset):
    if track.n_epochs != len(dataset.visible):
        raise EpochMismatch(f"track has {track.n_epochs} epochs, "
                            f"dataset {len(dataset.visible)}")


def _world_parts(poses, offsets):
    """(T, P, 3) world part positions of the model at poses, deformed by
    model-frame offsets when given."""
    pts = mouse_model.COORDS
    if offsets is not None:
        pts = pts + offsets
    return mouse_model.world_part_positions(poses, pts)


def evaluate(track, dataset, deform_offsets_est=None) -> EvaluationReport:
    """Compare an estimated track with the dataset's ground truth.

    deform_offsets_est : optional (T, P, 3) model-frame offsets used by the
        solver; when given, part reconstruction uses the deformed model.

    completeness_input is the share of epochs that `adjustment.initialize`
    can pose, with >= 3 parts seen by >= 2 cameras; an upper bound, since
    triangulation also rejects near-parallel rays.
    """
    _check_epochs(track, dataset)
    T = dataset.n_epochs
    est, gt = track.poses, dataset.poses

    d = est[:, 3:] - gt[:, 3:]
    pos_err = np.sqrt(np.vecdot(d, d))
    rot_err = np.degrees(geodesic_angle(geometry.rodrigues_to_matrix(est[:, :3]),
                                        geometry.rodrigues_to_matrix(gt[:, :3])))
    world = _world_parts(est, deform_offsets_est)
    truth = _world_parts(gt, dataset.deform_offsets)
    part_sq = ((world - truth) ** 2).sum(axis=2)

    completeness_in = float(np.mean(
        (dataset.visible.sum(axis=1) >= 2).sum(axis=1) >= 3))
    # an output epoch counts only when its pose is actually constrained by
    # the solve (not a mere gap-filling interpolation)
    completeness_out = float(np.mean(
        [f != "interpolated" for f in track.solved_from]))

    return EvaluationReport(
        n_epochs=T,
        position_error_mm=pos_err,
        rotation_error_deg=rot_err,
        completeness_input=completeness_in,
        completeness_output=completeness_out,
        per_part_rmse_mm=np.sqrt(part_sq.mean(axis=0)),
        position_rmse_mm=float(np.sqrt((pos_err ** 2).mean())),
        rotation_rmse_deg=float(np.sqrt((rot_err ** 2).mean())),
        percentiles={"p50": np.percentile(pos_err, 50),
                     "p90": np.percentile(pos_err, 90),
                     "p95": np.percentile(pos_err, 95)},
    )


def save_report(report: EvaluationReport, path, extra=None):
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Plot artifacts (static SVG + CSV; inspected post hoc)
# ---------------------------------------------------------------------------

def _track_svg(track):
    size, margin = 640, 20      # px
    xy = track.poses[:, 3:5]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = max((hi - lo).max(), 1e-9)
    q = (xy - lo) * ((size - 2 * margin) / span) + margin
    path = " ".join(f"{'M' if j == 0 else 'L'} {u:.2f} {size - v:.2f}"  # y up
                    for j, (u, v) in enumerate(q))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f'<path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        f"</svg>\n"
    )


def plot(track, dataset, out_dir, deform_offsets_est=None):
    """Write the top-down track SVG, per-parameter time-series CSV, and the
    per-camera reprojection overlay CSVs. Returns the list of files written.
    EpochMismatch when the track and the dataset differ in length. Reads
    only the dataset's `cameras`, `observations` and `visible`.

    deform_offsets_est : optional (T, P, 3) model-frame offsets used by the
        solver; when given, the overlay projects the deformed model, as
        `evaluate` scores it, and else the rigid model, as the CLI `plot`
        command always does."""
    _check_epochs(track, dataset)
    os.makedirs(out_dir, exist_ok=True)
    written = []

    svg_path = os.path.join(out_dir, "track_topdown.svg")
    with open(svg_path, "w") as f:
        f.write(_track_svg(track))
    written.append(svg_path)

    ts_path = os.path.join(out_dir, "track_parameters.csv")
    with open(ts_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "rx", "ry", "rz", "tx_mm", "ty_mm", "tz_mm", "solved_from"])
        w.writerows([t, *[f"{v:.9g}" for v in p], flag]
                    for t, (p, flag) in enumerate(zip(track.poses,
                                                      track.solved_from)))
    written.append(ts_path)

    world = _world_parts(track.poses, deform_offsets_est)
    for k, cam in enumerate(dataset.cameras):
        proj, depth = geometry.project_many(cam, world.reshape(-1, 3))
        proj = proj.reshape(*world.shape[:2], 2)
        obs = dataset.observations[:, k]
        path = os.path.join(out_dir, f"reprojection_cam{k}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "part", "u_obs", "v_obs", "u_proj", "v_proj"])
            shown = (dataset.visible[:, k]
                     & (depth.reshape(proj.shape[:2]) > geometry.EPS_DEPTH))
            w.writerows([t, i, *[f"{v:.4f}" for v in (*obs[t, i], *proj[t, i])]]
                        for t, i in zip(*np.nonzero(shown)))
        written.append(path)
    return written
