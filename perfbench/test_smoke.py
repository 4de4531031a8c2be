"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs twice untraced and twice traced with `--smoke`. The test
checks the result object on the last line, that every metric BENCHMARK.json
names is there with its unit, that the end-to-end metrics which are not
gated are printed too, and that the exact counts repeat between two runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# printed by every untraced run; train_s and failure_rate are not gated
PRINTED = ("setup_s", "track_s", "train_s", "peak_rss_mb", "position_rmse_mm",
           "rotation_rmse_deg", "part_rmse_mm", "completeness_output",
           "failure_rate")
EXACT = ("adjustment.solve.iterations", "geometry.triangulate_linear.calls",
         "deform_predictor.SequenceModel.forward.calls")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        outs = [bench(workload, trace, seed) for seed in (0, 1)]
        runs = [result(out) for out in outs]
        for res in runs:
            assert set(res["metrics"]) == {m["name"] for m in SPEC[kind]}
            for m in SPEC[kind]:
                assert res["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            for name in EXACT:
                assert (runs[0]["metrics"][name]["value"]
                        == runs[1]["metrics"][name]["value"]), name
        else:
            lines = outs[0].stdout.splitlines()
            for name in PRINTED:
                assert any(line.split()[:1] == [name] for line in lines), name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("rigid-long", 0, 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
