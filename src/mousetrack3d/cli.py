"""Command-line orchestration.

Subcommands: simulate, train-deform, solve, evaluate, plot, pipeline.
Exit codes: 0 success, 2 validation/schema error, 3 numerical failure,
4 acceptance-check failure (pipeline --check only).
All commands are deterministic under a fixed seed; emitted reports carry the
hash of the effective config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import adjustment, deform_predictor, evaluation, geometry, simulator
from .errors import (
    DivergedLoss,
    MouseTrackError,
    NonFiniteCost,
    NoSolvableEpoch,
    SchemaError,
    fields,
    read_json,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


def _config_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path):
    """JSON object of a config file; an absent path gives an empty config."""
    doc = read_json(path, "config") if path else {}
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return doc


def _scene_config(doc, seed=None):
    d = dict(doc)
    if seed is not None:
        d["seed"] = seed
    if "cameras" not in d:
        d["cameras"] = [geometry.camera_to_dict(c)
                        for c in simulator.default_cameras()]
    return simulator._config_from_dict(d)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    doc = _load_config(args.config)
    doc.setdefault("n_epochs", 100)
    doc.setdefault("seed", 0)
    config = _scene_config(doc, seed=args.seed)
    dataset = simulator.simulate(config)
    simulator.export_dataset(dataset, args.out)
    print(f"simulate: wrote {dataset.n_epochs} epochs to {args.out}")
    return EXIT_OK


def _flags(args, spec):
    """The values of the flags named by the fields of a config spec, checked
    by the spec's rules; unset flags take the spec's defaults. SchemaError
    names the flag as written."""
    given = {f"--{key}": getattr(args, key) for key in spec
             if getattr(args, key) is not None}
    checked = fields(given, {f"--{key}": rule for key, rule in spec.items()},
                     "command line")
    return {key[2:]: value for key, value in checked.items()}


def cmd_train_deform(args):
    train = _flags(args, _TRAIN_FIELDS)
    datasets = [simulator.import_dataset(p) for p in args.data]
    model, losses = deform_predictor.train(
        datasets, epochs=train["epochs"], lr=train["lr"], seed=train["seed"],
        hidden_size=train["hidden"])
    deform_predictor.save_model(model, args.out)
    print(f"train-deform: final loss {losses[-1]:.6g} after {len(losses)} epochs, "
          f"model written to {args.out}")
    return EXIT_OK


def cmd_solve(args):
    solve = _flags(args, _SOLVE_FIELDS)
    dataset = simulator.import_dataset(args.data)
    cameras = dataset.cameras
    if args.cameras:
        cameras = geometry.load_cameras(args.cameras)
        if sorted(c.id for c in cameras) != list(range(len(dataset.cameras))):
            raise SchemaError(f"{args.cameras}: camera ids must be 0.."
                              f"{len(dataset.cameras) - 1}, one per dataset camera")
    deform_model = deform_predictor.load_model(args.deform) if args.deform else None
    stochastic = adjustment.StochasticConfig(smoothness_weight=solve["ws"])
    mode = solve["mode"]
    if mode == "deformed" and deform_model is None:
        raise SchemaError("--mode deformed requires --deform MODEL")
    track, report = adjustment.solve_dataset(
        dataset, cameras, mode=mode, deform_model=deform_model,
        stochastic=stochastic)
    adjustment.save_track(track, args.out)
    print(f"solve: {report.status} in {report.iterations} iterations, "
          f"cost {report.initial_cost:.6g} -> {report.final_cost:.6g}, "
          f"reprojection rms {report.reprojection_rms_px:.4f} px")
    return EXIT_OK


def cmd_evaluate(args):
    dataset = simulator.import_dataset(args.data)
    track = adjustment.load_track(args.track)
    report = evaluation.evaluate(track, dataset)
    extra = {"config_hash": _config_hash(simulator._config_to_dict(dataset.config))}
    evaluation.save_report(report, args.out, extra=extra)
    print(f"evaluate: position rmse {report.position_rmse_mm:.4f} mm, "
          f"completeness {report.completeness_input:.3f} -> "
          f"{report.completeness_output:.3f}")
    return EXIT_OK


def cmd_plot(args):
    dataset = simulator.import_dataset(args.data)
    track = adjustment.load_track(args.track)
    written = evaluation.plot(track, dataset, args.out_dir)
    print("plot: wrote " + ", ".join(written))
    return EXIT_OK


# pipeline config sections, as specs for `errors.fields`; the pipeline's
# train.seed defaults to the scene seed. The train-deform and solve flags of
# the same names follow the same rules and defaults.
_PIPELINE_FIELDS = {key: ({}, dict, None, "an object")
                    for key in ("scene", "train", "solve", "check")}
_TRAIN_FIELDS = {
    "seed": (0, int, lambda v: v >= 0, "an integer >= 0"),
    "epochs": (150, int, lambda v: v >= 1, "an integer >= 1"),
    "lr": (1e-2, float, lambda v: v > 0, "a number > 0"),
    "hidden": (48, int, lambda v: v >= 1, "an integer >= 1"),
}
_SOLVE_FIELDS = {
    "mode": ("rigid", str, lambda v: v in ("rigid", "deformed"),
             "'rigid' or 'deformed'"),
    "ws": (adjustment.StochasticConfig().smoothness_weight, float,
           lambda v: v >= 0, "a number >= 0"),
}
_CHECK_FIELDS = {
    "max_position_rmse_mm": (5.0, float, lambda v: v >= 0, "a number >= 0"),
    "min_completeness_gain": (0.0, float, lambda v: -1 <= v <= 1,
                              "a number in [-1, 1]"),
}


def cmd_pipeline(args):
    cfg = fields(_load_config(args.config), _PIPELINE_FIELDS, "pipeline config")
    scene_doc = dict(cfg["scene"])
    scene_doc.setdefault("n_epochs", 100)
    scene_doc.setdefault("seed", 0)
    if args.seed is not None:
        scene_doc["seed"] = args.seed
    train_cfg, solve_cfg = cfg["train"], cfg["solve"]
    config = _scene_config(scene_doc)
    train = fields({"seed": config.seed, **train_cfg}, _TRAIN_FIELDS,
                   "pipeline config train")
    solve = fields(solve_cfg, _SOLVE_FIELDS, "pipeline config solve")
    check = fields(cfg["check"], _CHECK_FIELDS, "pipeline config check")

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    effective = {"scene": scene_doc, "train": train_cfg, "solve": solve_cfg}
    cfg_hash = _config_hash(effective)

    dataset = simulator.simulate(config)
    data_path = os.path.join(out, "data.json")
    simulator.export_dataset(dataset, data_path)

    mode = solve["mode"]
    deform_model = None
    if mode == "deformed":
        deform_model, _ = deform_predictor.train(
            [dataset], epochs=train["epochs"], lr=float(train["lr"]),
            seed=train["seed"], hidden_size=train["hidden"])
        deform_predictor.save_model(deform_model,
                                    os.path.join(out, "deform_model.json"))

    stochastic = adjustment.StochasticConfig(smoothness_weight=float(solve["ws"]))
    track, solve_report = adjustment.solve_dataset(
        dataset, config.cameras, mode=mode, deform_model=deform_model,
        stochastic=stochastic)
    adjustment.save_track(track, os.path.join(out, "track.json"))

    report = evaluation.evaluate(track, dataset)
    evaluation.save_report(report, os.path.join(out, "report.json"),
                           extra={"config_hash": cfg_hash,
                                  "solver_status": solve_report.status})
    evaluation.plot(track, dataset, out)
    print(f"pipeline: completeness {report.completeness_input:.3f} -> "
          f"{report.completeness_output:.3f}, position rmse "
          f"{report.position_rmse_mm:.4f} mm (config {cfg_hash})")

    if args.check:
        failures = []
        if report.completeness_output < 1.0:
            failures.append("completeness: output track does not cover every epoch")
        max_rmse = float(check["max_position_rmse_mm"])
        if report.position_rmse_mm > max_rmse:
            failures.append(f"position rmse {report.position_rmse_mm:.3f} mm "
                            f"> {max_rmse} mm")
        min_gain = float(check["min_completeness_gain"])
        if report.completeness_output - report.completeness_input < min_gain:
            failures.append("completeness criterion: gain "
                            f"{report.completeness_output - report.completeness_input:.3f}"
                            f" < {min_gain}")
        if failures:
            for msg in failures:
                print(f"check failed: {msg}", file=sys.stderr)
            return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mousetrack3d",
        description="Multi-view 3D body-part track reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="scene config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-deform", help="train the deformation predictor")
    p.add_argument("--data", action="append", required=True,
                   help="dataset JSON (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.set_defaults(func=cmd_train_deform)

    p = sub.add_parser("solve", help="run the bundle adjustment")
    p.add_argument("--data", required=True)
    p.add_argument("--cameras", help="camera JSON (default: dataset cameras)")
    p.add_argument("--deform", help="trained deformation model")
    p.add_argument("--ws", type=float, default=None, help="smoothness weight")
    p.add_argument("--mode", choices=["rigid", "deformed"], default="rigid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="compare a track against ground truth")
    p.add_argument("--data", required=True)
    p.add_argument("--track", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="emit SVG/CSV track artifacts")
    p.add_argument("--data", required=True)
    p.add_argument("--track", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("pipeline",
                       help="simulate -> train -> solve -> evaluate -> plot")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="nonzero exit on acceptance-threshold violation")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NonFiniteCost, NoSolvableEpoch, DivergedLoss) as e:
        print(f"{args.command}: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MouseTrackError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
