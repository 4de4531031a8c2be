"""What the package imports: scipy only where the solver needs it, no
import that nothing uses, and every name the benchmark's tracer wraps."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import mousetrack3d

ROOT = pathlib.Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """Nodes of `scope`, not descending into the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _used_names(scope):
    """Every name and dotted attribute chain in `scope`, nested functions
    included: `a.b.c` gives 'a', 'a.b' and 'a.b.c'."""
    used = set()
    for node in ast.walk(scope):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            used.add(".".join([node.id] + parts[::-1]))
    return used


def unused_imports(source, reexports=False):
    """(line, name) of each import in `source` that its scope never uses.

    A module-level import is looked for in the whole module, a
    function-level one in its function; `import a.b` counts as used only
    where `a.b` is. With `reexports`, relative imports (a package
    `__init__`'s public names) count as used.
    """
    found = []
    scopes = [ast.parse(source)]
    while scopes:
        scope = scopes.pop()
        used = _used_names(scope)
        for node in _own_nodes(scope):
            if isinstance(node, FUNCTIONS):
                scopes.append(node)
            elif isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"
                    and not (reexports and node.level)):
                found += [(node.lineno, a.asname or a.name) for a in node.names
                          if (a.asname or a.name) not in used]
    return sorted(found)


def test_unused_import_scan_sees_every_scope():
    source = (
        "import os\n"
        "import scipy.linalg\n"
        "import scipy.sparse\n"
        "from . import helper\n"
        "def f():\n"
        "    import json\n"
        "    return scipy.linalg.rq\n"
        "def g():\n"
        "    import scipy.optimize\n"
        "    return os.sep, lambda: scipy.optimize\n")
    assert unused_imports(source) == [(3, "scipy.sparse"), (4, "helper"),
                                      (6, "json")]
    assert unused_imports(source, reexports=True) == [(3, "scipy.sparse"),
                                                      (6, "json")]


def test_no_unused_imports():
    files = sorted(p for top in ("src", "tests", "demos", "tools")
                   for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 10
    unused = [f"{p.relative_to(ROOT)}:{line} {name}" for p in files
              for line, name in unused_imports(p.read_text(),
                                               reexports=p.name == "__init__.py")]
    assert unused == []


# Runs in a fresh interpreter: the numpy-only half of the pipeline on a
# T = 20 scene, then one solve, then a Jacobian check on a T = 6 problem.
# Prints the scipy modules loaded after each.
NUMPY_ONLY_PATH = """
import json, sys
import mousetrack3d
from mousetrack3d import adjustment, cli, evaluation, simulator

def scipy_modules():
    print(json.dumps(sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))))

config = simulator.SceneConfig(cameras=simulator.default_cameras(), seed=0,
                               n_epochs=20)
dataset = simulator.simulate(config)
simulator.export_dataset(dataset, "data.json")
dataset = simulator.import_dataset("data.json")
parts = adjustment.triangulate_parts(dataset, dataset.cameras)
track = adjustment.initialize(parts)
evaluation.evaluate(track, dataset)
evaluation.plot(track, dataset, "plots")
adjustment.save_track(track, "track.json")
with open("scene.json", "w") as f:
    json.dump({"n_epochs": 20}, f)
for argv in (["simulate", "--config", "scene.json", "--out", "cli_data.json"],
             ["evaluate", "--data", "data.json", "--track", "track.json",
              "--out", "report.json"],
             ["plot", "--data", "data.json", "--track", "track.json",
              "--out-dir", "cli_plots"]):
    assert cli.main(argv) == 0, argv
scipy_modules()
adjustment.solve_dataset(dataset)
scipy_modules()
short = simulator.simulate(simulator.SceneConfig(
    cameras=simulator.default_cameras(), seed=1, n_epochs=6))
adjustment.check_jacobian(
    adjustment.build_problem(short, short.cameras),
    adjustment.initialize(adjustment.triangulate_parts(short, short.cameras)))
scipy_modules()
"""


def test_numpy_only_paths_load_no_scipy(tmp_path):
    # scipy is slow to import; simulate, export/import, evaluate and plot
    # (also through the CLI) need none of it, the solver only
    # scipy.linalg's banded Cholesky, and the dense Jacobian check no more
    src = pathlib.Path(mousetrack3d.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY_PATH],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True, capture_output=True, text=True).stdout
    before_solve, after_solve, after_check = map(json.loads,
                                                 out.splitlines()[-3:])
    assert before_solve == []
    assert "scipy.linalg" in after_solve
    assert not any(m.startswith("scipy.sparse") for m in after_check)


def test_traced_names_resolve():
    # perfbench/tracing.py looks up each traced (owner, attr) without a
    # default, so a removed or renamed function would make every traced
    # benchmark run fail
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name in tracing.TRACED
               if not callable(getattr(owner, attr, None))]
    assert len(tracing.TRACED) > 10
    assert missing == []
