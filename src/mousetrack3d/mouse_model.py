"""Rigid eight-part mouse body model and its parametric gait/head deformation.

The rigid model is `COORDS`, a fixed read-only (8, 3) array of body-part
coordinates in mm in a model frame with X lateral (left positive), Y
anterior, Z up, origin at the body center of gravity. Its row count is the
package's one part count P, which every array sized by the body model
reads. Deformation adds model-frame offsets for a pace gait (diagonal paw
pairs alternating between ground-fixed stance and double-speed swing) and a
rigid head triangle nodding about the ear-connecting line.
"""

from __future__ import annotations

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

# model-frame coordinates (8, 3) in mm of the parts in PART_NAMES order
COORDS = np.array([
    [0.0, 36.0, 2.5],      # nose tip
    [7.75, 16.0, 19.0],    # left ear
    [-7.75, 16.0, 19.0],   # right ear
    [5.5, 20.0, -8.0],     # left front paw
    [-5.5, 20.0, -8.0],    # right front paw
    [13.5, -8.5, -8.0],    # left hind paw
    [-13.5, -8.5, -8.0],   # right hind paw
    [0.0, -30.0, -6.0],    # tail root
])
COORDS.setflags(write=False)

HEAD_PARTS = (NOSE_TIP, LEFT_EAR, RIGHT_EAR)
# pace gait: diagonal pairs alternate; pair A is ground-fixed first
STANCE_FIRST_PAWS = (RIGHT_FRONT_PAW, LEFT_HIND_PAW)
SWING_FIRST_PAWS = (LEFT_FRONT_PAW, RIGHT_HIND_PAW)

# head nodding intervals (degrees), visited back and forth in one cycle
HEAD_INTERVALS_DEG = ((-15.0, -5.0), (-5.0, 5.0), (5.0, 15.0))


def head_angle_at(phase):
    """Piecewise-linear head angle (radians) over one cycle, for a scalar
    or an array of phases.

    The angle ramps through the waypoint loop built from HEAD_INTERVALS_DEG,
    0 -> the interval lows in reverse -> the highs -> 0 (0, 5, -5, -15, -5,
    5, 15, 0 degrees), giving the linear back-and-forth sweep through each
    interval. Zero at phase 0.
    """
    los = [iv[0] for iv in HEAD_INTERVALS_DEG]
    his = [iv[1] for iv in HEAD_INTERVALS_DEG]
    waypoints = np.array([0.0] + los[::-1] + his + [0.0])
    seg = len(waypoints) - 1
    u = (np.asarray(phase, dtype=float) % 1.0) * seg
    k = np.minimum(u.astype(int), seg - 1)
    frac = u - k
    deg = waypoints[k] + frac * (waypoints[k + 1] - waypoints[k])
    return np.radians(deg)


def deform(phase, body_speed, cycle_length=10):
    """(T, P, 3) model-frame deformation offsets at gait phases, for the P
    parts of `COORDS`.

    Parameters
    ----------
    phase : (T,) gait-cycle positions in [0, 1)
    body_speed : (T,) overall body advance in mm per frame
    cycle_length : frames per gait cycle (sets the paw stride amplitude)

    The paws follow triangle waves, zero at phase 0: the stance-first pair
    regresses in the model frame during [0, 0.5) so its world position stays
    put while the body advances; the swing-first pair advances at the same
    model-frame rate (double body speed in the world). The two pairs are
    exact negatives, so the across-paw mean is zero at every phase and all
    paws return to rest at the cycle boundary. The head triangle nods by
    `head_angle_at(phase)` about the model X axis through the ear midpoint;
    its offsets are exactly zero where the angle is zero.
    """
    phase = np.asarray(phase, dtype=float)
    bad = (phase < 0.0) | (phase >= 1.0)
    if bad.any():
        raise ValueError(f"phase must be in [0, 1), got {phase[bad][0]}")
    T = len(phase)
    offsets = np.zeros((T, *COORDS.shape))
    stride = np.asarray(body_speed, dtype=float) * cycle_length
    swing = stride * np.where(phase < 0.5, phase, 1.0 - phase)
    offsets[:, list(STANCE_FIRST_PAWS), 1] = -swing[:, None]
    offsets[:, list(SWING_FIRST_PAWS), 1] = swing[:, None]

    # nod about the model X axis through the ear midpoint
    angle = head_angle_at(phase)
    head = COORDS[list(HEAD_PARTS)]
    pivot = 0.5 * (COORDS[LEFT_EAR] + COORDS[RIGHT_EAR])
    R = geometry.rodrigues_to_matrix(np.column_stack([angle, np.zeros((T, 2))]))
    rotated = (head - pivot) @ R.transpose(0, 2, 1) + pivot
    nods = (angle != 0.0)[:, None, None]
    offsets[:, list(HEAD_PARTS)] = np.where(nods, rotated - head, 0.0)
    return offsets


def world_part_positions(params, points=None):
    """Global part coordinates R(r) x + t of model-frame points x for pose
    parameters (r, t).

    params : (..., 6) Rodrigues vectors and translations (mm)
    points : (P, 3) or (..., P, 3) model-frame points; default the rigid model
    Returns (..., P, 3).
    """
    params = np.asarray(params, dtype=float)
    pts = COORDS if points is None else np.asarray(points, float)
    R = geometry.rodrigues_to_matrix(params[..., :3])
    return pts @ np.swapaxes(R, -1, -2) + params[..., None, 3:]
