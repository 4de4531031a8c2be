"""Exception hierarchy for the tracking pipeline, plus the two input checks
every file loader shares: reading a JSON document and reading a numeric
field. Both raise SchemaError on malformed input.
"""

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


class ParallelRays(MouseTrackError):
    """Viewing rays too close to parallel for a stable triangulation."""


# -- simulator / io ---------------------------------------------------------

class CameraSeesNothing(MouseTrackError):
    """A configured camera never images the motion plane."""


class SchemaError(MouseTrackError):
    """Malformed input file; message names the offending field."""


# -- track constraint -------------------------------------------------------

class BranchDiscontinuity(MouseTrackError):
    """Consecutive Rodrigues vectors differ by more than pi/2 after unwrapping."""


# -- deformation predictor --------------------------------------------------

class WindowOutOfRange(MouseTrackError):
    """Requested token window extends past the dataset bounds."""


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
