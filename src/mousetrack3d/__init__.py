"""Multi-view 3D body-part track reconstruction for a deformable mouse model.

Combines per-frame resection/triangulation, a cubic-spline motion-track
smoothness constraint, a learned body-part deformation predictor, and a
global sparse bundle adjustment, validated against its own ground-truth
simulator.
"""

from . import (
    adjustment,
    deform_predictor,
    errors,
    evaluation,
    geometry,
    mouse_model,
    simulator,
    track_constraint,
)
from .geometry import (
    CameraModel,
    RigidTransform,
    apply,
    decompose_projection,
    project,
    resect,
)
from .mouse_model import deform, world_part_positions
from .simulator import SceneConfig, SimulatedDataset, default_cameras, simulate
from .track_constraint import grid_rmse, spline_interpolate, track_residual
from .adjustment import MouseStateTrack, StochasticConfig, initialize, build_problem, solve, solve_dataset
from .deform_predictor import SequenceModel, token_windows, train
from .evaluation import EvaluationReport, evaluate

__version__ = "0.1.0"
