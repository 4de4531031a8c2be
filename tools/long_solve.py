"""Print the peak memory and wall time of one long rigid solve, and of the
dataset file IO before it.

    python3 tools/long_solve.py [-T EPOCHS]

Run from any directory; the library is imported from the checkout's `src/`.
The tool simulates a criterion-9-type scene of EPOCHS epochs (default 20000,
about 11 minutes of 30 fps video): the default cameras, 0.5 px noise, 20%
random dropout and seed 0, as in the benchmark's rigid-long recording. As
`mousetrack3d simulate` and `mousetrack3d solve` do, it writes the recording
to a dataset file in a temporary directory with `simulator.export_dataset`,
reads it back with `simulator.import_dataset` and runs
`adjustment.solve_dataset` on what it read, in rigid mode. It prints two
lines: the wall time of the export and of the import, with the file's size;
then the process peak RSS (`getrusage` ru_maxrss) before and after the
solve, in MiB, the solve's wall time, and its LM iterations and stop status.
It exits with code 1 when the solve stops without converging (a status other
than `cost` or `gradient`), so that a script or CI step running it fails.

Peak RSS is a high-water mark of the whole process, so each figure needs a
process of its own, which one run of the tool is. To compare two trees, run
the tool in alternating pairs of processes (tree A, tree B, tree A, ...).
BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

from mousetrack3d import adjustment, simulator


def peak_rss_mib():
    """Peak resident set size of this process so far, in MiB (Linux
    reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("-T", "--epochs", type=int, default=20000,
                   help="epochs of the recording (default 20000)")
    args = p.parse_args(argv)
    if args.epochs < 5:
        p.error("--epochs must be at least 5")
    simulated = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=0, n_epochs=args.epochs,
        noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2)))
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "data.json")
        start = time.perf_counter()
        simulator.export_dataset(simulated, path)
        export_s = time.perf_counter() - start
        del simulated
        start = time.perf_counter()
        ds = simulator.import_dataset(path)
        import_s = time.perf_counter() - start
        size = os.path.getsize(path) / 2 ** 20
    print(f"T = {args.epochs}: export_dataset {export_s:.2f} s, "
          f"import_dataset {import_s:.2f} s, file {size:.1f} MiB")
    before = peak_rss_mib()
    start = time.perf_counter()
    _, report = adjustment.solve_dataset(ds)
    seconds = time.perf_counter() - start
    print(f"T = {args.epochs}: peak RSS {before:.1f} MiB before the solve, "
          f"{peak_rss_mib():.1f} MiB after; solve_dataset {seconds:.2f} s, "
          f"{report.iterations} iterations, status {report.status}")
    return 0 if report.converged else 1


if __name__ == "__main__":
    sys.exit(main())
