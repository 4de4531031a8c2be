"""Exception hierarchy for the tracking pipeline, plus the input checks the
file loaders share: reading a JSON document, a numeric field and the fields
of a config object. All raise SchemaError on malformed input.
"""

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


class ParallelRays(MouseTrackError):
    """Viewing rays too close to parallel for a stable triangulation."""


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


class InconsistentCameraIds(MouseTrackError):
    """Dataset references camera ids absent from the camera set."""


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


def numbers(value, shape, what):
    """value as a float array of the given shape with finite entries, or
    SchemaError naming `what`. Strings, booleans and nulls are not numbers."""
    try:
        raw = np.asarray(value)
    except (ValueError, OverflowError):
        raw = None
    if (raw is None or raw.dtype.kind not in "iuf" or raw.shape != tuple(shape)
            or not np.all(np.isfinite(raw))):
        size = "x".join(map(str, shape)) or "a"
        raise SchemaError(f"{what} must be {size} finite number"
                          f"{'s' if shape else ''}")
    return raw.astype(float)


def fields(d, spec, what):
    """The fields of JSON object d, defaults filled in, each checked against
    its spec entry, or SchemaError naming `what`. A spec maps each field to
    (default, type, test of the value or None, what the test requires); a
    default of None marks a required field. Values keep their JSON type, so
    configs hash as written."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in d:
        if key not in spec:
            raise SchemaError(f"{what} has unknown field '{key}'")
    out = {}
    for key, (default, kind, test, meaning) in spec.items():
        if key not in d and default is None:
            raise SchemaError(f"{what} missing field '{key}'")
        value = d.get(key, default)
        is_int = isinstance(value, int) and not isinstance(value, bool)
        if kind is float:
            ok = (is_int and abs(value) < 2 ** 53
                  or isinstance(value, float) and math.isfinite(value))
        elif kind is int:
            ok = is_int
        else:
            ok = isinstance(value, kind)
        if not ok or (test is not None and not test(value)):
            raise SchemaError(f"{what} field '{key}' must be {meaning}, "
                              f"got {value!r}")
        out[key] = value
    return out
