"""Rigid eight-part mouse body model and its parametric gait/head deformation.

The rigid model is a fixed set of eight body-part coordinates in a model
frame with X lateral (left positive), Y anterior, Z up, origin at the body
center of gravity. Deformation adds model-frame offsets for a pace gait
(diagonal paw pairs alternating between ground-fixed stance and double-speed
swing) and a rigid head triangle nodding about the ear-connecting line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry

# part ids in fixed order
NOSE_TIP = 0
LEFT_EAR = 1
RIGHT_EAR = 2
LEFT_FRONT_PAW = 3
RIGHT_FRONT_PAW = 4
LEFT_HIND_PAW = 5
RIGHT_HIND_PAW = 6
TAIL_ROOT = 7

PART_NAMES = [
    "nose_tip", "left_ear", "right_ear",
    "left_front_paw", "right_front_paw",
    "left_hind_paw", "right_hind_paw", "tail_root",
]

_DEFAULT_COORDS_MM = np.array([
    [0.0, 36.0, 2.5],      # nose tip
    [7.75, 16.0, 19.0],    # left ear
    [-7.75, 16.0, 19.0],   # right ear
    [5.5, 20.0, -8.0],     # left front paw
    [-5.5, 20.0, -8.0],    # right front paw
    [13.5, -8.5, -8.0],    # left hind paw
    [-13.5, -8.5, -8.0],   # right hind paw
    [0.0, -30.0, -6.0],    # tail root
])

HEAD_PARTS = (NOSE_TIP, LEFT_EAR, RIGHT_EAR)
# pace gait: diagonal pairs alternate; pair A is ground-fixed first
STANCE_FIRST_PAWS = (RIGHT_FRONT_PAW, LEFT_HIND_PAW)
SWING_FIRST_PAWS = (LEFT_FRONT_PAW, RIGHT_HIND_PAW)

# head nodding intervals (degrees), visited back and forth in one cycle
HEAD_INTERVALS_DEG = ((-15.0, -5.0), (-5.0, 5.0), (5.0, 15.0))


@dataclass(frozen=True)
class RigidMouseModel:
    """Ordered list of (part_id, name, model-frame coordinate in mm)."""

    coords: np.ndarray = field(default_factory=lambda: _DEFAULT_COORDS_MM.copy())

    def __post_init__(self):
        c = np.array(self.coords, dtype=float).reshape(8, 3)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def rigid_part_positions(self):
        """(8, 3) model-frame coordinates in mm."""
        return self.coords.copy()

    def part(self, part_id):
        return self.coords[part_id].copy()

    def bounding_box(self):
        """(min_xyz, max_xyz) of the rigid coordinates."""
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def parts(self):
        return [(i, PART_NAMES[i], self.coords[i].copy()) for i in range(8)]


@dataclass(frozen=True)
class DeformationState:
    """Model-frame deformation at one instant.

    phase is the position in the gait cycle in [0, 1); offsets is the (8, 3)
    array of per-part model-frame displacements added to the rigid model.
    """

    phase: float
    head_angle: float
    offsets: np.ndarray

    def __post_init__(self):
        o = np.array(self.offsets, dtype=float).reshape(8, 3)
        o.setflags(write=False)
        object.__setattr__(self, "offsets", o)

    def deformed_positions(self, model: RigidMouseModel | None = None):
        model = model or RigidMouseModel()
        return model.rigid_part_positions() + self.offsets


def _paw_forward_offset(phase, stride):
    """Triangle waveforms (stance pair, swing pair), zero at phase 0.

    The stance-first pair regresses in the model frame during [0, 0.5) so its
    world position stays put while the body advances; the swing-first pair
    advances at the same model-frame rate (double body speed in the world).
    Offsets of the two pairs are exact negatives, so the across-paw mean is
    zero at every phase and all paws return to rest at the cycle boundary.
    """
    if phase < 0.5:
        swing = stride * phase
    else:
        swing = stride * (1.0 - phase)
    return -swing, swing


def head_angle_at(phase):
    """Piecewise-linear head angle (radians) over one cycle.

    The angle ramps through the waypoint loop
    0 -> lo1 -> ... -> hi_last -> 0 built from HEAD_INTERVALS_DEG, giving
    the linear back-and-forth sweep through each interval. Zero at phase 0.
    """
    los = [iv[0] for iv in HEAD_INTERVALS_DEG]
    his = [iv[1] for iv in HEAD_INTERVALS_DEG]
    waypoints = [0.0] + los[::-1] + his + [0.0]
    seg = len(waypoints) - 1
    u = (phase % 1.0) * seg
    k = min(int(u), seg - 1)
    frac = u - k
    deg = waypoints[k] + frac * (waypoints[k + 1] - waypoints[k])
    return math.radians(deg)


def deform(model: RigidMouseModel, phase, body_speed, cycle_length=10,
           head_angle=None):
    """Deformation state at a gait phase.

    Parameters
    ----------
    phase : gait-cycle position in [0, 1)
    body_speed : overall body advance in mm per frame
    cycle_length : frames per gait cycle (sets the paw stride amplitude)
    head_angle : explicit head angle in radians; default derives it from
        the phase via `head_angle_at`
    """
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must be in [0, 1), got {phase}")
    offsets = np.zeros((8, 3))
    stride = body_speed * cycle_length
    back, fwd = _paw_forward_offset(phase, stride)
    for p in STANCE_FIRST_PAWS:
        offsets[p, 1] = back
    for p in SWING_FIRST_PAWS:
        offsets[p, 1] = fwd

    if head_angle is None:
        head_angle = head_angle_at(phase)
    if head_angle != 0.0:
        coords = model.rigid_part_positions()
        pivot = 0.5 * (coords[LEFT_EAR] + coords[RIGHT_EAR])
        # nod about the model X axis through the ear midpoint
        R = geometry.rodrigues_to_matrix(np.array([head_angle, 0.0, 0.0]))
        for p in HEAD_PARTS:
            rotated = R @ (coords[p] - pivot) + pivot
            offsets[p] = rotated - coords[p]
    return DeformationState(phase=float(phase), head_angle=float(head_angle),
                            offsets=offsets)


def world_part_positions(params, points=None):
    """Global part coordinates R(r) x + t of model-frame points x for pose
    parameters (r, t).

    params : (..., 6) Rodrigues vectors and translations (mm)
    points : (8, 3) or (..., 8, 3) model-frame points; default the rigid model
    Returns (..., 8, 3).
    """
    params = np.asarray(params, dtype=float)
    pts = RigidMouseModel().coords if points is None else np.asarray(points, float)
    R = geometry.rodrigues_to_matrix(params[..., :3])
    return pts @ np.swapaxes(R, -1, -2) + params[..., None, 3:]
