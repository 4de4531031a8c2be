"""Print the SHA-256 of the files the library writes, for the current checkout.

    python3 tools/output_digests.py [DIR]

Run from any directory; the library is imported from the checkout's `src/`.
Two sets of files are hashed:

* for every workload of the benchmark (named in BENCHMARK.json, built by
  `perfbench/workloads.py`), the files its recordings are solved from and
  to, made as the benchmark makes them:
  - the deformation model, trained once when the workload trains one and
    written with `deform_predictor.save_model`;
  - every full-size recording's dataset file, simulated and written with
    `simulator.export_dataset`;
  - the track file that `adjustment.save_track` writes (format version 2:
    one JSON object whose poses and residual RMS are base64 float64 blocks)
    after `solve_dataset`, in the workload's mode, has solved the dataset
    read back from that file;
* `data.json`, `report.json` and `track.json` of the criterion-8
  `pipeline` run of tests/test_acceptance.py.

So the lines check the simulator and the training as well as the solve. Each
line is "<sha256>  <file>". Run it on two checkouts and `diff` the outputs:
a change that keeps every one of these files byte-identical prints the same
lines. With DIR, every saved track is also kept there, at the path its line
names (for example DIR/rigid-long/c9-seed0/track.json), so that
`tools/compare_tracks.py` can say by how much two checkouts' tracks differ
where the digests do. BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from mousetrack3d import adjustment, cli, deform_predictor, simulator
import workloads

# the criterion-8 pipeline config (tests/test_acceptance.py)
PIPELINE_CONFIG = {"scene": {"n_epochs": 60, "seed": 3, "noise_sigma_px": 0.5},
                   "solve": {"mode": "rigid"}}


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def workload_files(name, workdir, trackdir):
    """(line name, path) of every file of the named workload: its model,
    when it trains one, then each recording's dataset and saved track.
    The model and the datasets go to workdir, the tracks to
    trackdir/<name>/<label>/track.json."""
    workload = workloads.build(name)
    model = None
    if workload.training:
        model, _ = deform_predictor.train(
            [simulator.simulate(config) for _, config in workload.training],
            epochs=workload.train_epochs, seed=0)
        path = os.path.join(workdir, f"{name}-model.json")
        deform_predictor.save_model(model, path)
        yield f"{name}/model.json", path
    for label, config in workload.recordings:
        data = os.path.join(workdir, f"{name}-{label}.json")
        simulator.export_dataset(simulator.simulate(config), data)
        yield f"{name}/{label}/data.json", data
        track, _ = adjustment.solve_dataset(
            simulator.import_dataset(data), mode=workload.mode,
            deform_model=model, stochastic=workload.stochastic)
        out = os.path.join(trackdir, name, label, "track.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        adjustment.save_track(track, out)
        yield f"{name}/{label}/track.json", out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("dir", nargs="?",
                   help="directory to keep the saved tracks in")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    with tempfile.TemporaryDirectory() as workdir:
        trackdir = args.dir or workdir
        for name in names:
            for line, path in workload_files(name, workdir, trackdir):
                print(f"{digest(path)}  {line}")
        config = os.path.join(workdir, "pipeline.json")
        with open(config, "w") as f:
            json.dump(PIPELINE_CONFIG, f)
        out = os.path.join(workdir, "pipeline")
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["pipeline", "--config", config, "--out-dir", out])
        if code != 0:
            sys.exit(f"pipeline exited with {code}")
        for file in ("data.json", "report.json", "track.json"):
            print(f"{digest(os.path.join(out, file))}  pipeline/{file}")
        if args.dir:
            os.makedirs(os.path.join(args.dir, "pipeline"), exist_ok=True)
            shutil.copy(os.path.join(out, "track.json"),
                        os.path.join(args.dir, "pipeline", "track.json"))


if __name__ == "__main__":
    main()
