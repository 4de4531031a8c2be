"""Print the CPU time and memory of one Levenberg-Marquardt linearization
per workload.

    python3 tools/time_linearization.py [-n SAMPLES]

Run from any directory; the library is imported from the checkout's `src/`.
For the first recording of each benchmark workload (named in BENCHMARK.json,
built by `perfbench/workloads.py`) it times, at the initialized track:

* `Problem.residuals` alone, as LM evaluates every trial step;
* `Problem.residuals` then `Problem.normal_equations` at the same x, as LM
  evaluates a start point or an accepted step and linearizes there (the
  normal-matrix assembly that the benchmark's tracer does not see);
* `adjustment.triangulate_parts`, which runs once per solve, with the
  number of points it triangulated;
* `adjustment.initialize` given those parts, the rest of the front end
  before LM.

Deformed workloads are timed with the recording's ground-truth offsets as
the model points, which gives the deformed mode's problem without training
the deformation model. Each time is the minimum and the median over
SAMPLES calls (default 200) of the process CPU time, in ms. Each line ends
with the peak of the memory that one `residuals` + `normal_equations` pair
and one `triangulate_parts` call allocate (`tracemalloc`), in MiB. One line
per workload. BLAS is pinned to one thread, as in the benchmark. `main`
also returns the figures, one dict per workload name.

The figures of one process move by up to 2x between processes on a busy
host, even as minima. To compare two trees, run the tool in at least six
alternating pairs of processes (tree A, tree B, tree A, ...) and compare
the medians over the pairs.
"""

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from mousetrack3d import adjustment, simulator
import workloads


def cpu_ms(fn, samples):
    """(smallest, median) process CPU time of `samples` calls of fn, in ms."""
    times = []
    for _ in range(samples):
        start = time.process_time()
        fn()
        times.append(1e3 * (time.process_time() - start))
    return min(times), statistics.median(times)


def peak_mib(fn):
    """Peak of the memory that one call of fn allocates, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def first_recording_problem(workload):
    """(dataset, its triangulated parts, Problem, x at the initialized track)
    of the workload's first recording, solved in the workload's mode."""
    _, config = workload.recordings[0]
    ds = simulator.simulate(config)
    offsets = ds.deform_offsets if workload.mode == "deformed" else None
    problem = adjustment.build_problem(ds, ds.cameras, offsets,
                                       workload.stochastic)
    parts = adjustment.triangulate_parts(ds, ds.cameras)
    return ds, parts, problem, adjustment.initialize(parts).poses.ravel()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("-n", "--samples", type=int, default=200,
                   help="calls timed per figure (default 200)")
    args = p.parse_args(argv)
    if args.samples < 1:
        p.error("--samples must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    figures = {}
    for name in names:
        ds, parts, problem, x = first_recording_problem(workloads.build(name))

        def linearize():
            problem.residuals(x)
            problem.normal_equations(x)

        def triangulate():
            adjustment.triangulate_parts(ds, ds.cameras)

        res = cpu_ms(lambda: problem.residuals(x), args.samples)
        lin = cpu_ms(linearize, args.samples)
        tri = cpu_ms(triangulate, args.samples)
        ini = cpu_ms(lambda: adjustment.initialize(parts), args.samples)
        fig = figures[name] = {
            "epochs": ds.n_epochs, "observations": problem.n_obs,
            "points": int(parts[1].sum()),
            "residuals_ms": res, "linearize_ms": lin, "triangulate_ms": tri,
            "initialize_ms": ini, "linearize_mib": peak_mib(linearize),
            "triangulate_mib": peak_mib(triangulate)}
        print(f"{name}: T = {ds.n_epochs}, {problem.n_obs} observations; "
              f"residuals {res[0]:.3f} / {res[1]:.3f} ms, residuals + "
              f"normal_equations {lin[0]:.3f} / {lin[1]:.3f} ms, "
              f"triangulate_parts {tri[0]:.3f} / {tri[1]:.3f} ms for "
              f"{fig['points']} points, initialize {ini[0]:.3f} / "
              f"{ini[1]:.3f} ms (min / median of {args.samples} CPU times); "
              f"residuals + normal_equations allocate "
              f"{fig['linearize_mib']:.2f} MiB at peak, triangulate_parts "
              f"{fig['triangulate_mib']:.2f} MiB")
    return figures


if __name__ == "__main__":
    main()
