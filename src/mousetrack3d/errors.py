"""Exception hierarchy for the tracking pipeline."""


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
