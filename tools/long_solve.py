"""Print the peak memory and wall time of one long rigid solve.

    python3 tools/long_solve.py [-T EPOCHS]

Run from any directory; the library is imported from the checkout's `src/`.
The tool simulates a criterion-9-type scene of EPOCHS epochs (default 20000,
about 11 minutes of 30 fps video): the default cameras, 0.5 px noise, 20%
random dropout and seed 0, as in the benchmark's rigid-long recording. It
then runs `adjustment.solve_dataset` on it in rigid mode. It prints the
process peak RSS (`getrusage` ru_maxrss) before and after the solve, in MiB,
the solve's wall time, and its LM iterations and stop status. It exits with
code 1 when the solve stops without converging (a status other than `cost`
or `gradient`), so that a script or CI step running it fails.

Peak RSS is a high-water mark of the whole process, so each figure needs a
process of its own, which one run of the tool is. To compare two trees, run
the tool in alternating pairs of processes (tree A, tree B, tree A, ...).
BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import os
import resource
import sys
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
    ds = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=0, n_epochs=args.epochs,
        noise_sigma_px=0.5,
        occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2)))
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
