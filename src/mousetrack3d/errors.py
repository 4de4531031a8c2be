"""Exception hierarchy for the tracking pipeline, plus the input checks the
file loaders share: a JSON document, an integer, an array of numbers, a list
of such arrays, the field names of a JSON object and the fields of a config
object. All raise SchemaError on malformed input; only `is_int` and
`_number_array` decide what a JSON number is.
"""

import itertools
import json

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


def number_rows(values, shape, name):
    """The list `values` of arrays of the given shape as one float array by
    the rule of `numbers`, or SchemaError. Only when the check as one array
    fails is the list checked entry by entry, so that the error names the
    first bad entry: `name(n)` is what entry n is called."""
    if not values:
        return np.zeros((0, *shape))
    try:
        return numbers(values, (len(values), *shape), "")
    except SchemaError as e:
        whole = e
    # entries that each pass also pass as one array, so one of them fails
    for n, value in enumerate(values):
        numbers(value, shape, name(n))
    raise whole


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
