"""The scripts in `tools/`, loaded as modules and run in this process on
small inputs."""

import importlib.util
import os
import sys

from mousetrack3d import adjustment

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
    assert "status cost" in capsys.readouterr().out
    monkeypatch.setattr(adjustment, "MAX_ITERATIONS", 1)
    assert tool.main(["-T", "30"]) == 1
    assert "status max_iterations" in capsys.readouterr().out
