"""The scripts in `tools/`, loaded as modules and run in this process on
small inputs."""

import importlib.util
import os
import re
import sys

import numpy as np
import pytest

from mousetrack3d import adjustment, geometry

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")


def load_tool(name, monkeypatch):
    """tools/<name>.py as a module. The environment variables and the
    import path it sets on import are restored after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_long_solve_exits_1_unless_converged(monkeypatch, capsys):
    tool = load_tool("long_solve", monkeypatch)
    assert tool.main(["-T", "30"]) == 0
    io, solve = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"T = 30: export_dataset \d+\.\d\d s, import_dataset "
                        r"\d+\.\d\d s, file \d+\.\d MiB", io)
    assert "status cost" in solve
    monkeypatch.setattr(adjustment, "MAX_ITERATIONS", 1)
    assert tool.main(["-T", "30"]) == 1
    assert "status max_iterations" in capsys.readouterr().out


def saved_tracks(root, poses):
    """One track.json per (name, (T, 6) poses) under root/name."""
    for name, x in poses.items():
        os.makedirs(root / name)
        adjustment.save_track(
            adjustment.MouseStateTrack(x, ["adjusted"] * len(x)),
            root / name / "track.json")


@pytest.fixture
def compare(tmp_path, monkeypatch, capsys):
    """Two random tracks saved under tmp_path/a, and a function that saves
    the given tracks under tmp_path/b and returns compare_tracks' exit code
    and output lines for a against b."""
    tool = load_tool("compare_tracks", monkeypatch)
    rng = np.random.default_rng(0)
    poses = {name: rng.normal(scale=[0.5] * 3 + [50.0] * 3, size=(12, 6))
             for name in ("one", "two")}
    saved_tracks(tmp_path / "a", poses)

    def run(other):
        saved_tracks(tmp_path / "b", other)
        code = tool.main([str(tmp_path / "a"), str(tmp_path / "b")])
        return code, capsys.readouterr().out.splitlines()
    return poses, run


def test_compare_tracks_identical(compare):
    poses, run = compare
    assert run(poses) == (0, [
        "one/track.json: rotation 0 rad, translation 0 mm",
        "two/track.json: rotation 0 rad, translation 0 mm"])


def test_compare_tracks_perturbed(compare):
    # one epoch of one track turned by 1e-3 rad about z and moved 0.25 mm
    poses, run = compare
    turned = poses["two"].copy()
    R = geometry.rodrigues_to_matrix(turned[5, :3])
    turned[5, :3] = geometry.matrix_to_rodrigues(
        R @ geometry.rodrigues_to_matrix(np.array([0.0, 0.0, 1e-3])))
    turned[5, 3:] += [0.0, 0.15, 0.2]
    assert run({"one": poses["one"], "two": turned}) == (1, [
        "one/track.json: rotation 0 rad, translation 0 mm",
        "two/track.json: rotation 0.001 rad, translation 0.25 mm"])


def test_compare_tracks_different_sets(compare, tmp_path):
    poses, run = compare
    assert run({"one": poses["one"]}) == (1, [
        f"{tmp_path / 'a'} and {tmp_path / 'b'} hold different sets of "
        f"tracks"])
