"""Exception hierarchy for the tracking pipeline, plus the input checks the
file loaders share: a JSON document and its format version, an integer, an
array of numbers, a base64 block of float64 values, the field names of a
JSON object and the fields of a config object. All raise SchemaError on
malformed input; only `is_int` and `_number_array` decide what a JSON number
is, and only `encode_block` and `decode_block` know the block encoding.
"""

import base64
import itertools
import json
import math

import numpy as np


class MouseTrackError(Exception):
    """Base class for all pipeline errors."""


# -- geometry ---------------------------------------------------------------

class NonPositiveDepth(MouseTrackError):
    """Point lies on or behind the camera's principal plane."""


class SingularCamera(MouseTrackError):
    """Projection matrix has a rank-deficient left 3x3 block."""


class InsufficientPoints(MouseTrackError):
    """Too few correspondences / views for the requested solve."""


class DegenerateConfiguration(MouseTrackError):
    """Correspondences are coplanar/collinear where a full solve needs depth."""


# -- simulator / io ---------------------------------------------------------

class CameraSeesNothing(MouseTrackError):
    """A configured camera never images the motion plane."""


class SchemaError(MouseTrackError):
    """Malformed input file; message names the offending field."""


# -- deformation predictor --------------------------------------------------

class DivergedLoss(MouseTrackError):
    """Training loss became non-finite."""


class UntrainedModel(MouseTrackError):
    """Prediction requested from a model that has never been trained."""


# -- adjustment / evaluation ------------------------------------------------

class NoSolvableEpoch(MouseTrackError):
    """No epoch has enough observations for a local initialization."""


class InconsistentCameraIds(SchemaError):
    """Camera ids are not 0..K-1 for the dataset's K camera slots (an input
    inconsistency)."""


class NonFiniteCost(MouseTrackError):
    """Optimization cost became NaN or infinite."""


class EpochMismatch(MouseTrackError):
    """Track and ground-truth dataset cover different epochs."""


# -- input checks -----------------------------------------------------------

def read_json(path, what):
    """Parsed JSON document of the `what` file at path."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"{what} file not found: {path}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as e:
        raise SchemaError(f"cannot read {what} file {path}: {e}")


def check_version(doc, current, what):
    """SchemaError unless the JSON document of a `what` file is of format
    version `current`. It is checked before any other field, since another
    version's fields are not this one's. A JSON object without
    `format_version` is version 1, and so is a non-empty JSON list of
    objects: the first track files were lists of epoch records."""
    if isinstance(doc, dict):
        version = doc.get("format_version", 1)
    elif isinstance(doc, list) and doc and all(isinstance(d, dict)
                                                for d in doc):
        version = 1
    else:
        return      # not a JSON object: `check_object` says so
    if not is_int(version) or version != current:
        raise SchemaError(f"unsupported {what} format version {version!r}; "
                          f"this version reads {current}")


def is_int(value):
    """True when value is a JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number_array(value, shape):
    """value, nested lists of exactly the given shape, as a float array, or
    None unless every leaf is a JSON number: an integer that float64 holds
    exactly (at most 2**53 in magnitude) or a finite float. Booleans,
    strings and nulls are not numbers, at any depth."""
    try:
        raw = np.asarray(value)
    except (ValueError, OverflowError):
        return None

    def leaves():
        out = [value]
        for _ in shape:
            out = itertools.chain.from_iterable(out)
        return out

    # numpy reads true as 1: check the leaves' types once the shape holds
    if (raw.shape != tuple(shape) or raw.dtype.kind not in "iuf"
            or set(map(type, leaves())) - {int, float}):
        return None
    out = raw.astype(float, copy=False)
    if not np.all(np.isfinite(out)):
        return None
    # an integer beyond 2**53 reads as a float at least that large, so the
    # leaves themselves are compared only when such a float is present
    if (np.abs(out).max(initial=0.0) >= 2 ** 53
            and any(type(v) is int and abs(v) > 2 ** 53 for v in leaves())):
        return None
    return out


def numbers(value, shape, what):
    """value, nested lists of exactly the given shape, as a float array, or
    SchemaError naming `what` unless every leaf is a JSON number (see
    `_number_array`)."""
    out = _number_array(value, shape)
    if out is None:
        size = "x".join(map(str, shape)) or "a"
        raise SchemaError(f"{what} must be {size} number"
                          f"{'s' if shape else ''} (finite)")
    return out


def encode_block(array):
    """array as a block: one base64 string of its little-endian float64
    values in C order. `decode_block` is its inverse."""
    return base64.b64encode(
        np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def decode_block(block, shape, kind, field):
    """The block (see `encode_block`) in field `field` of a `kind` file as a
    float array of the given shape, or SchemaError naming both unless it is
    a string of valid base64 holding exactly 8 bytes per value."""
    what = f"{kind} field '{field}'"
    if not isinstance(block, str):
        raise SchemaError(f"{what} must be a base64 string")
    try:
        raw = base64.b64decode(block, validate=True)
    except ValueError:      # binascii.Error, or a character outside ASCII
        raise SchemaError(f"{what} is not valid base64") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise SchemaError(
            f"{what} holds {len(raw)} bytes, not the {size} of "
            f"{' x '.join(map(str, shape))} float64 values")
    # frombuffer views the bytes read-only; astype copies to a native array
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def check_cells(bad, kind, field, rule, names):
    """SchemaError naming field `field` of a `kind` file, the rule it breaks
    and the first entry of the boolean array `bad` that is set, indexed by
    `names`."""
    if bad.any():
        at = ", ".join(f"{name} = {n}" for name, n in
                       zip(names, np.argwhere(bad)[0].tolist()))
        raise SchemaError(f"{kind} field '{field}' {rule} (at {at})")


def check_object(d, required, optional, what):
    """SchemaError naming `what` unless d is a JSON object that holds every
    field of `required` and no field outside `required` and `optional`:
    a misspelt optional field must not silently take its default."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in d:
        if key not in required and key not in optional:
            raise SchemaError(f"{what} has unknown field '{key}'")
    for key in required:
        if key not in d:
            raise SchemaError(f"{what} missing field '{key}'")


def fields(d, spec, what):
    """The fields of JSON object d, defaults filled in, each checked against
    its spec entry, or SchemaError naming `what`. A spec maps each field to
    (default, type, test of the value or None, what the test requires); a
    default of None marks a required field. Values keep their JSON type, so
    configs hash as written."""
    check_object(d, [key for key, rule in spec.items() if rule[0] is None],
                 spec, what)
    out = {}
    for key, (default, kind, test, meaning) in spec.items():
        value = d.get(key, default)
        if kind is float:
            ok = _number_array(value, ()) is not None
        elif kind is int:
            ok = is_int(value)
        else:
            ok = isinstance(value, kind)
        if not ok or (test is not None and not test(value)):
            raise SchemaError(f"{what} field '{key}' must be {meaning}, "
                              f"got {value!r}")
        out[key] = value
    return out
