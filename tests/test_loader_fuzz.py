"""Property tests of the file loaders: on malformed input they raise
SchemaError and nothing else, and the CLI turns that into exit code 2.

Each example takes a valid file, replaces or deletes one value somewhere in
it (or replaces the whole document) and loads the result. Runs are
derandomized, so every run checks the same examples. One more test sets
numbers to `true`, which Python and numpy would otherwise read as 1.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mousetrack3d import adjustment, cli, deform_predictor, geometry, simulator
from mousetrack3d.errors import SchemaError

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutated(draw, doc):
    """A copy of doc with one value, found by a random walk from the root,
    replaced by an arbitrary JSON value or deleted."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        parent, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return draw(json_values)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Directory with one valid file per loader, and their documents."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=0, n_epochs=6))
    simulator.export_dataset(ds, root / "dataset.json")
    track, _ = adjustment.solve_dataset(ds)
    adjustment.save_track(track, root / "track.json")
    geometry.save_cameras(ds.cameras, root / "cameras.json")
    model = deform_predictor.SequenceModel(hidden_size=2)
    model.init_weights(np.random.default_rng(0))
    model.offset_scale = 1.0
    model.trained = True
    deform_predictor.save_model(model, root / "model.json")
    docs = {kind: json.loads((root / f"{kind}.json").read_text())
            for kind in LOADERS}
    return root, docs


def _argv(kind, root, path):
    """The CLI command that reads `path` as its `kind` input."""
    data, out = str(root / "dataset.json"), str(root / "out.json")
    return {
        "dataset": ["solve", "--data", path, "--out", out],
        "track": ["evaluate", "--data", data, "--track", path, "--out", out],
        "cameras": ["solve", "--data", data, "--cameras", path, "--out", out],
        "model": ["solve", "--data", data, "--mode", "deformed",
                  "--deform", path, "--out", out],
    }[kind]


LOADERS = {
    "dataset": simulator.import_dataset,
    "track": adjustment.load_track,
    "cameras": geometry.load_cameras,
    "model": deform_predictor.load_model,
}


def _check(kind, root, path):
    try:
        LOADERS[kind](path)
    except SchemaError:
        assert cli.main(_argv(kind, root, path)) == 2


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_mutated_file_raises_only_schema_error(valid, kind, data):
    root, docs = valid
    path = root / f"fuzz-{kind}.json"
    path.write_text(json.dumps(data.draw(mutated(docs[kind]))))
    _check(kind, root, str(path))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(blob=st.binary(max_size=40))
def test_arbitrary_bytes_raise_only_schema_error(valid, kind, blob):
    root, _ = valid
    path = root / f"bytes-{kind}.json"
    path.write_bytes(blob)
    _check(kind, root, str(path))


def _number_paths(node, path=()):
    """Path (keys and list indices) of every number in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _number_paths(child, path + (key,))
    elif type(node) in (int, float):
        yield path


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_boolean_for_any_number_raises_schema_error(valid, kind):
    """Each number, one per path with list indices wildcarded, set to true:
    the loader raises SchemaError and the CLI exits with 2."""
    root, docs = valid
    first = {}
    for path in _number_paths(docs[kind]):
        first.setdefault(tuple("*" if type(key) is int else key
                               for key in path), path)
    path = root / f"true-{kind}.json"
    for keys in first.values():
        doc = json.loads(json.dumps(docs[kind]))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            LOADERS[kind](str(path))
        assert cli.main(_argv(kind, root, str(path))) == 2, keys
