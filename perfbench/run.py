"""Benchmark of mousetrack3d, timed from outside through its public calls.

    python3 perfbench/run.py --workload rigid-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. One run of one workload:

1. sets up three times: imports `mousetrack3d` in a fresh interpreter, then
   simulates the workload's scenes and exports them to dataset files
   (`setup_s` is the median, at reference speed);
2. trains the deformation model once, if the workload needs one (`train_s`);
3. runs passes while the next one is expected to end within `--seconds`,
   and at least one. A pass does what a user of `mousetrack3d solve` waits
   for, recording after recording: `simulator.import_dataset`,
   `adjustment.solve_dataset`, `adjustment.save_track` (`track_s` sums each
   recording's fastest time over the passes, at reference speed);
4. checks every solve after its pass, outside the timed region: the
   imported dataset equals the simulated one on `visible` and
   `observations`, and the saved track loads back with T finite poses and
   legal `solved_from` flags. It then scores the track against ground truth
   with `evaluation.evaluate`.

Timed sections are scaled to a reference host speed by a pure-Python speed
probe run around them (see `speed_probe_seconds`); wall times are printed
beside the scaled ones and kept in the results file.

With `--trace 1` the first pass runs untraced and later passes run with
spans around the library's public functions (see tracing.py); the run
reports per-layer metrics instead of end-to-end ones. Per-layer times are
wall times; `trace_overhead` compares one untraced pass with the traced
ones at reference speed, so host noise shows in it. `--smoke` shrinks the
scenes to a tiny size for the benchmark's own tests.

`failed` in the result object counts solves that raised a
`MouseTrackError` or failed the output check. The printed `failure_rate`
also counts solves that stopped without converging (the iteration cap).

Human-readable lines come first on standard output; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Each run
also writes its samples, environment and spans to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N_SETUPS = 3
LEGAL_FLAGS = {"local", "interpolated", "adjusted"}
ACCURACY_UNITS = {"position_rmse_mm": "mm", "rotation_rmse_deg": "deg",
                  "part_rmse_mm": "mm", "completeness_output": "fraction"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mousetrack3d; "
                "print(time.perf_counter() - t)")
# host-speed probe: a fixed pure-Python loop and its time on an unloaded host
SPEED_PROBE_LOOPS = 400_000
SPEED_PROBE_REFERENCE_S = 0.03


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("rigid-long", "occluded-batch", "deformed-gait"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny scenes, for the benchmark's own tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Phases of a run
# ---------------------------------------------------------------------------

def speed_probe_seconds():
    """Time of a fixed pure-Python loop, run between timed sections.

    This host's speed swings by up to 2x for tens of seconds to minutes at
    a time: the same 0.8 s solve read 0.75 s to 1.52 s within four minutes,
    and a pure-Python loop slowed by a similar factor at the same moments.
    Timed sections are scaled by SPEED_PROBE_REFERENCE_S over the probe's
    time around them, which puts them in seconds at the reference speed.
    Over ten runs per workload it cut the quartile spread of track_s on
    rigid-long from 0.13 to 0.07, left deformed-gait at 0.12 and moved
    occluded-batch from 0.13 to 0.16, whose 10-15 s capped solve outlasts
    the host's speed swings. The probe does not touch the library, so it
    cannot absorb a change in the library's own cost.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(SPEED_PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds, probe_before, probe_after):
    return seconds * 2.0 * SPEED_PROBE_REFERENCE_S / (probe_before + probe_after)


def import_seconds():
    """Seconds `import mousetrack3d` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload, workdir, tracer, unit):
    """Simulate and export every scene.

    Returns ({"seconds", "at_reference_s"}, datasets, paths).
    """
    from mousetrack3d import simulator
    probe = speed_probe_seconds()
    seconds = import_seconds()
    datasets, paths = {}, {}
    t0 = time.perf_counter()
    for label, config in workload.training + workload.recordings:
        if tracer:
            tracer.recording = f"setup:{unit}:{label}"
        datasets[label] = simulator.simulate(config)
        paths[label] = os.path.join(workdir, f"{label}.json")
        simulator.export_dataset(datasets[label], paths[label])
    seconds += time.perf_counter() - t0
    timing = {"seconds": seconds, "at_reference_s": at_reference_speed(
        seconds, probe, speed_probe_seconds())}
    return timing, datasets, paths


def run_pass(order, paths, workdir, workload, model, tracer, unit):
    """Import, solve and save every recording; returns (seconds, solves).

    The speed probe runs between recordings, outside their timings.
    """
    from mousetrack3d import adjustment, simulator
    from mousetrack3d.errors import MouseTrackError
    solves = []
    probe = speed_probe_seconds()
    for label, _ in order:
        if tracer:
            tracer.recording = f"pass:{unit}:{label}"
        out = os.path.join(workdir, f"{label}-track.json")
        solve = {"label": label, "track_path": out}
        t1 = time.perf_counter()
        try:
            ds = simulator.import_dataset(paths[label])
            track, report = adjustment.solve_dataset(
                ds, mode=workload.mode, deform_model=model,
                stochastic=workload.stochastic)
            adjustment.save_track(track, out)
            solve.update(dataset=ds, track=track, report=report)
        except MouseTrackError as e:
            solve["error"] = f"{type(e).__name__}: {e}"
        solve["seconds"] = time.perf_counter() - t1
        probe_before, probe = probe, speed_probe_seconds()
        solve["at_reference_s"] = at_reference_speed(solve["seconds"],
                                                     probe_before, probe)
        solves.append(solve)
    return sum(s["seconds"] for s in solves), solves


def output_problems(solve, simulated):
    """Reasons the solve's output is wrong; empty when it passes the check."""
    import numpy as np
    from mousetrack3d import adjustment
    from mousetrack3d.errors import MouseTrackError
    ds, sim = solve["dataset"], simulated[solve["label"]]
    problems = []
    if not (np.array_equal(ds.visible, sim.visible)
            and np.array_equal(ds.observations, sim.observations,
                               equal_nan=True)):
        problems.append("dataset round-trip is not exact")
    try:
        saved = adjustment.load_track(solve["track_path"])
    except MouseTrackError as e:
        return problems + [f"saved track does not load: {e}"]
    if saved.n_epochs != ds.n_epochs:
        problems.append(f"{saved.n_epochs} poses for {ds.n_epochs} epochs")
    elif not np.all(np.isfinite(saved.as_array())):
        problems.append("non-finite pose")
    if not set(saved.solved_from) <= LEGAL_FLAGS:
        problems.append(f"illegal solved_from flags "
                        f"{sorted(set(saved.solved_from) - LEGAL_FLAGS)}")
    return problems


def check_pass(solves, simulated, model):
    """Check and score each solve; returns (evaluate seconds, accuracy)."""
    from mousetrack3d import adjustment, evaluation
    evaluate_s, scores = 0.0, []
    for solve in solves:
        if "error" in solve:
            continue
        solve["problems"] = output_problems(solve, simulated)
        ds, track = solve.pop("dataset"), solve.pop("track")
        report = solve.pop("report")
        solve.update(iterations=report.iterations, converged=report.converged,
                     status=report.status)
        offsets = (adjustment.predict_offsets(ds, ds.cameras, track, model)
                   if model is not None else None)
        t0 = time.perf_counter()
        ev = evaluation.evaluate(track, ds, deform_offsets_est=offsets)
        evaluate_s += time.perf_counter() - t0
        scores.append({"position_rmse_mm": ev.position_rmse_mm,
                       "rotation_rmse_deg": ev.rotation_rmse_deg,
                       "part_rmse_mm": float(ev.per_part_rmse_mm.mean()),
                       "completeness_output": ev.completeness_output})
    accuracy = ({k: statistics.fmean(s[k] for s in scores)
                 for k in ACCURACY_UNITS} if scores else {})
    return evaluate_s, accuracy


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, q[int(round(p * 10)) - 1]
    return None


def describe_timing(samples):
    tail = tail_percentile(samples)
    extra = (f"p{tail[0]:g} {tail[1]:.4f}" if tail
             else "no percentile has >=10 samples beyond it")
    return (f"median {statistics.median(samples):.4f} of {len(samples)} "
            f"samples; {extra}")


def _with_units(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def failure_summary(solves):
    raised = sum("error" in s for s in solves)
    bad = sum(bool(s.get("problems")) for s in solves)
    not_conv = sum("error" not in s and not s["problems"] and not s["converged"]
                   for s in solves)
    return raised, bad, not_conv


def layer_metrics(tracer, units, evaluate_s, unattributed, overhead):
    names, layers, counters = tracer.per_unit(units)

    def name(key, field="total_s"):
        return names[key][field] if key in names else 0.0

    jac_calls = name("adjustment.Problem.jacobian", "calls")
    trials = counters["trial_steps"]
    epochs = counters["train_epochs"]
    m = {
        "simulator.simulate_s": (name("simulator.simulate"), "s"),
        "simulator.export_dataset_s": (name("simulator.export_dataset"), "s"),
        "simulator.import_dataset_s": (name("simulator.import_dataset"), "s"),
        "adjustment.save_track_s": (name("adjustment.save_track"), "s"),
        "adjustment.initialize_s": (name("adjustment.initialize", "self_s"), "s"),
        "adjustment.initialize.local_fraction": (
            counters["local_epochs"] / counters["epochs"]
            if counters["epochs"] else 0.0, "ratio"),
        "geometry.triangulate_linear.calls": (
            name("geometry.triangulate_linear", "calls"), "count"),
        "geometry.triangulate_linear_s": (
            name("geometry.triangulate_linear"), "s"),
        "adjustment.build_problem_s": (
            name("adjustment.build_problem", "self_s"), "s"),
        "adjustment.Problem.jacobian_s": (
            name("adjustment.Problem.jacobian"), "s"),
        "adjustment.Problem.jacobian.calls": (jac_calls, "count"),
        "adjustment.Problem.jacobian.s_per_call": (
            name("adjustment.Problem.jacobian") / jac_calls
            if jac_calls else 0.0, "s"),
        "geometry.rotation_point_jacobians.calls": (
            name("geometry.rotation_point_jacobians", "calls"), "count"),
        "geometry.rotation_point_jacobians_s": (
            name("geometry.rotation_point_jacobians"), "s"),
        "adjustment.Problem.residuals_s": (
            name("adjustment.Problem.residuals"), "s"),
        "adjustment.Problem.residuals.calls": (
            name("adjustment.Problem.residuals", "calls"), "count"),
        "adjustment.solve.self_s": (name("adjustment.solve", "self_s"), "s"),
        "adjustment.solve.iterations": (counters["iterations"], "count"),
        "adjustment.solve.accept_ratio": (
            counters["accepted_steps"] / trials if trials else 0.0, "ratio"),
        "adjustment.solve.not_converged": (counters["not_converged"], "count"),
        "adjustment.predict_offsets_s": (
            name("adjustment.predict_offsets"), "s"),
        "adjustment.predict_offsets.calls": (
            name("adjustment.predict_offsets", "calls"), "count"),
        "deform_predictor.SequenceModel.forward.calls": (
            name("deform_predictor.SequenceModel.forward", "calls"), "count"),
        "deform_predictor.SequenceModel.forward_s": (
            name("deform_predictor.SequenceModel.forward"), "s"),
        "deform_predictor.SequenceModel.backward_s": (
            name("deform_predictor.SequenceModel.backward"), "s"),
        "deform_predictor.train.epoch_s": (
            name("deform_predictor.train") / epochs if epochs else 0.0, "s"),
        "deform_predictor.train.windows": (
            counters["training_windows"], "count"),
        "evaluation.evaluate_s": (evaluate_s, "s"),
        "unattributed": (unattributed, "ratio"),
        "trace_overhead": (overhead, "ratio"),
    }
    for layer in ("simulator", "geometry", "adjustment", "deform_predictor"):
        for field, unit in (("total_s", "s"), ("self_s", "s"),
                            ("calls", "count")):
            m[f"layer.{layer}.{field}"] = (layers[layer][field]
                                           if layer in layers else 0.0, unit)
    return _with_units(m)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def tracing_on(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


def measure(args, workload, tracer, workdir):
    """Set up, train and run passes; returns the raw samples of the run."""
    from mousetrack3d import deform_predictor
    order = workload.ordered(args.seed)
    print(f"workload {workload.name}, seed {args.seed}, pass order "
          f"{[label for label, _ in order]}")
    run = {"setup_s": [], "train_s": [], "passes": [], "solves": [],
           "evaluate_s": [], "accuracy": [], "covered_s": []}
    for unit in range(N_SETUPS):
        with tracing_on(tracer):
            timing, simulated, paths = set_up(workload, workdir, tracer, unit)
        run["setup_s"].append(timing)

    window = time.perf_counter()
    model = None
    if workload.training:
        data = [simulated[label] for label, _ in workload.training]
        if tracer:
            tracer.recording = "train:0"
        t0 = time.perf_counter()
        with tracing_on(tracer):
            model, _ = deform_predictor.train(
                data, epochs=workload.train_epochs, seed=0)
        run["train_s"].append(time.perf_counter() - t0)

    while True:
        unit = len(run["passes"])
        # a traced run leaves its first pass untraced, as the reference for
        # the tracing overhead
        traced = tracer if unit > 0 else None
        t0 = time.perf_counter()
        with tracing_on(traced):
            pass_s, solves = run_pass(order, paths, workdir, workload, model,
                                      traced, unit)
        if traced:
            run["covered_s"].append(tracer.root_seconds(f"pass:{unit}:"))
        evaluate_s, accuracy = check_pass(solves, simulated, model)
        run["passes"].append({
            "track_s": pass_s, "traced": bool(traced),
            "at_reference_s": sum(s["at_reference_s"] for s in solves),
            "with_check_s": time.perf_counter() - t0})
        run["solves"].extend(solves)
        run["evaluate_s"].append(evaluate_s)
        run["accuracy"].append(accuracy)
        elapsed = time.perf_counter() - window
        expected = statistics.median(p["with_check_s"] for p in run["passes"])
        # a traced run needs a traced pass besides the untraced one
        if elapsed + expected > args.seconds and (tracer is None or unit > 0):
            return run


def fastest_track_s(solves):
    """Sum over recordings of each recording's fastest time in the run, at
    reference speed. Load from elsewhere only ever adds time, so, as with
    `timeit`, the fastest repeat is the steadiest estimate of the cost."""
    fastest = {}
    for s in solves:
        t = s["at_reference_s"]
        fastest[s["label"]] = min(fastest.get(s["label"], t), t)
    return sum(fastest.values())


def end_to_end(run, failures):
    """End-to-end metrics of an untraced run, plus the two that are not
    gated: train_s exists only where the workload trains and failure_rate
    is 0 on a clean workload."""
    accuracy = {k: statistics.median(a[k] for a in run["accuracy"] if a)
                for k in ACCURACY_UNITS} if any(run["accuracy"]) else {}
    metrics = {
        "setup_s": (statistics.median(t["at_reference_s"]
                                      for t in run["setup_s"]), "s"),
        "track_s": (fastest_track_s(run["solves"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    for key, unit in ACCURACY_UNITS.items():
        metrics[key] = (accuracy.get(key), unit)
    ungated = {"failure_rate": (sum(failures) / len(run["solves"]), "fraction"),
               "train_s": (statistics.median(run["train_s"])
                           if run["train_s"] else None, "s")}
    return _with_units(metrics), _with_units(ungated)


def print_end_to_end(run, metrics, ungated, failures):
    notes = {
        "setup_s": ("median at reference speed; wall time " + describe_timing(
            [t["seconds"] for t in run["setup_s"]])),
        "track_s": ("each recording's fastest pass at reference speed, "
                    "summed; wall time per pass " + describe_timing(
                        [p["track_s"] for p in run["passes"]])),
        "train_s": ("median of 1 sample, one training per run"
                    if run["train_s"] else "no training in this workload"),
        "failure_rate": (f"{failures[0]} raised, {failures[1]} failed the "
                         f"output check, {failures[2]} did not converge, of "
                         f"{len(run['solves'])} solves"),
    }
    for key, m in {**metrics, **ungated}.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{key:22s} {value:>12s} {m['unit']:9s} {notes.get(key, '')}")


def main_run(args):
    import workloads
    from tracing import Tracer

    workload = workloads.build(args.workload, smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-",
                               dir=os.path.join(OUT, "work"))
    try:
        run = measure(args, workload, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solves = run["solves"]
    failures = failure_summary(solves)
    failed = failures[0] + failures[1]
    print(f"{len(run['setup_s'])} setups, {len(run['passes'])} passes, "
          f"{len(solves)} solves")
    for s in solves:
        state = (s.get("error") or "; ".join(s["problems"])
                 or f"{s['status']} after {s['iterations']} iterations")
        print(f"  {s['label']}: {state}")
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env,
              **{k: v for k, v in run.items() if k != "solves"},
              "solves": [{k: v for k, v in s.items() if k != "track_path"}
                         for s in solves]}

    if tracer:
        traced = [p for p in run["passes"] if p["traced"]]
        units = {"setup": N_SETUPS, "train": 1, "pass": len(traced)}
        overhead = (statistics.fmean(p["at_reference_s"] for p in traced)
                    / run["passes"][0]["at_reference_s"])
        metrics = layer_metrics(
            tracer, units, statistics.median(run["evaluate_s"]),
            1.0 - sum(run["covered_s"]) / sum(p["track_s"] for p in traced),
            overhead)
        for key, m in metrics.items():
            print(f"{key:46s} {m['value']:14.6f} {m['unit']}")
        result["spans"] = tracer.spans
    else:
        metrics, ungated = end_to_end(run, failures)
        print_end_to_end(run, metrics, ungated, failures)
        result["metrics"] = {**metrics, **ungated}

    name = (f"{workload.name}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    with open(os.path.join(OUT, "results", name), "w") as f:
        json.dump(result, f)
    correct = failed == 0 and all(m["value"] is not None
                                  for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(solves),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mousetrack3d")):
        print(f"perfbench: no mousetrack3d sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    # pin BLAS to one thread before numpy loads, here and in child processes
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
