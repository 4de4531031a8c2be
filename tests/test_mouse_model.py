import itertools
import math

import numpy as np
import pytest

from mousetrack3d import geometry, mouse_model
from mousetrack3d.mouse_model import (
    COORDS,
    LEFT_EAR,
    LEFT_FRONT_PAW,
    LEFT_HIND_PAW,
    NOSE_TIP,
    RIGHT_EAR,
    RIGHT_FRONT_PAW,
    RIGHT_HIND_PAW,
    TAIL_ROOT,
    deform,
    head_angle_at,
    world_part_positions,
)


# -- rigid model --------------------------------------------------------------

def test_nose_tip_coordinate():
    assert np.allclose(COORDS[NOSE_TIP], [0.0, 36.0, 2.5])


def test_ear_coordinates():
    assert np.allclose(COORDS[LEFT_EAR], [7.75, 16.0, 19.0])
    assert np.allclose(COORDS[RIGHT_EAR], [-7.75, 16.0, 19.0])


def test_no_three_parts_collinear():
    # initialize fits the model to any three triangulated parts, so every
    # triple must span a plane (ratio of its two centred singular values)
    triples = list(itertools.combinations(range(8), 3))
    assert len(triples) == 56
    for triple in triples:
        A = COORDS[list(triple)]
        s = np.linalg.svd(A - A.mean(axis=0), compute_uv=False)
        assert s[1] / s[0] > 0.1, triple


def test_tail_root_coordinate():
    assert np.allclose(COORDS[TAIL_ROOT], [0.0, -30.0, -6.0])


def test_bilateral_symmetry():
    for l, r in [(LEFT_EAR, RIGHT_EAR), (LEFT_FRONT_PAW, RIGHT_FRONT_PAW),
                 (LEFT_HIND_PAW, RIGHT_HIND_PAW)]:
        assert np.allclose(COORDS[l] * [-1, 1, 1], COORDS[r])


def test_coords_immutable():
    with pytest.raises(ValueError):
        COORDS[0, 0] = 1.0


# -- deformation --------------------------------------------------------------

PAWS = [LEFT_FRONT_PAW, RIGHT_FRONT_PAW, LEFT_HIND_PAW, RIGHT_HIND_PAW]


def deform_one(phase, speed, cycle):
    """Offsets (8, 3) at one phase, written out part by part: triangle wave
    for the paws, waypoint nod for the head."""
    offsets = np.zeros((8, 3))
    stride = speed * cycle
    swing = stride * phase if phase < 0.5 else stride * (1.0 - phase)
    for p in mouse_model.STANCE_FIRST_PAWS:
        offsets[p, 1] = -swing
    for p in mouse_model.SWING_FIRST_PAWS:
        offsets[p, 1] = swing
    waypoints = [0.0, 5.0, -5.0, -15.0, -5.0, 5.0, 15.0, 0.0]
    u = phase * 7
    k = min(int(u), 6)
    angle = math.radians(waypoints[k] + (u - k) * (waypoints[k + 1] - waypoints[k]))
    if angle != 0.0:
        pivot = 0.5 * (COORDS[LEFT_EAR] + COORDS[RIGHT_EAR])
        R = geometry.rodrigues_to_matrix(np.array([angle, 0.0, 0.0]))
        for p in mouse_model.HEAD_PARTS:
            offsets[p] = R @ (COORDS[p] - pivot) + pivot - COORDS[p]
    return offsets, angle


def test_batched_deform_equals_per_phase():
    rng = np.random.default_rng(5)
    boundaries = np.arange(7) / 7          # head-nod waypoints
    phases = np.concatenate([[0.0, 0.5, 0.4999999], boundaries,
                             np.nextafter(boundaries[1:], 0.0), rng.random(200)])
    speeds = rng.uniform(0.0, 5.0, size=len(phases))
    for cycle in (1, 10):
        expected = [deform_one(p, s, cycle) for p, s in zip(phases, speeds)]
        assert np.array_equal(deform(phases, speeds, cycle),
                              np.stack([o for o, _ in expected]))
        assert np.array_equal(head_angle_at(phases), [a for _, a in expected])
    # the head stays exactly at rest where the nod angle is zero
    assert np.array_equal(deform(np.zeros(1), np.ones(1))[0], np.zeros((8, 3)))


def test_phase_zero_no_deformation():
    offsets = deform(np.zeros(1), np.array([2.0]))[0]
    assert np.allclose(offsets, 0.0)
    assert np.allclose(COORDS + offsets, COORDS)


def _world_paws(frames, speed, cycle):
    """World paw positions (len(frames), 4, 3) of a body advancing along +Y
    at speed mm per frame."""
    frames = np.asarray(frames)
    poses = np.zeros((len(frames), 6))
    poses[:, 4] = speed * frames
    offsets = deform(frames / cycle, np.full(len(frames), speed), cycle)
    return world_part_positions(poses, COORDS + offsets)[:, PAWS]


def test_swing_vs_stance_world_displacement():
    # a quarter cycle into the first half: swing paws' world displacement is
    # twice the body's, stance paws' world displacement is zero
    speed = 2.0  # mm per frame
    worlds = _world_paws([1, 2], speed, 10)  # both inside the first half cycle
    delta = dict(zip(PAWS, worlds[1] - worlds[0]))
    body_delta = np.array([0.0, speed, 0.0])
    for p in mouse_model.SWING_FIRST_PAWS:
        assert np.allclose(delta[p], 2.0 * body_delta, atol=1e-12)
    for p in mouse_model.STANCE_FIRST_PAWS:
        assert np.allclose(delta[p], 0.0, atol=1e-12)


def test_paw_roles_swap_at_half_cycle():
    speed = 2.0
    worlds = _world_paws([6, 7], speed, 10)  # inside the second half cycle
    delta = dict(zip(PAWS, worlds[1] - worlds[0]))
    for p in mouse_model.SWING_FIRST_PAWS:
        assert np.allclose(delta[p], 0.0, atol=1e-12)
    for p in mouse_model.STANCE_FIRST_PAWS:
        assert np.allclose(delta[p], [0.0, 2.0 * speed, 0.0], atol=1e-12)


def test_paw_offsets_cancel_and_close_cycle():
    phases = np.linspace(0, 0.999, 40)
    paws = deform(phases, np.full(40, 2.0))[:, PAWS]
    # paws move along the model Y axis only
    assert paws[:, :, [0, 2]].max() == 0.0
    # diagonal pairs are exact negatives
    y = dict(zip(PAWS, paws[:, :, 1].T))
    assert np.allclose(y[LEFT_FRONT_PAW], -y[RIGHT_FRONT_PAW])
    assert np.allclose(y[LEFT_FRONT_PAW], y[RIGHT_HIND_PAW])
    closing = deform(np.zeros(1), np.array([2.0]))
    assert np.allclose(closing, 0.0)


def test_stride_amplitude():
    # peak model-frame offset at phase 0.5 is body_speed * cycle / 2 each way
    offsets = deform(np.array([0.4999999]), np.array([3.0]), cycle_length=10)[0]
    assert offsets[LEFT_FRONT_PAW, 1] == pytest.approx(15.0, abs=1e-4)


def test_head_triangle_rigid():
    rigid = COORDS
    mid = 0.5 * (rigid[LEFT_EAR] + rigid[RIGHT_EAR])
    base = np.linalg.norm(rigid[NOSE_TIP] - mid)
    # nod angles -5, -15, 3 and 15 degrees
    phases = np.array([2.0, 3.0, 0.6, 6.0]) / 7
    assert np.degrees(head_angle_at(phases)) == pytest.approx([-5, -15, 3, 15])
    for pts in rigid + deform(phases, np.zeros(4)):
        assert np.linalg.norm(pts[NOSE_TIP]
                              - 0.5 * (pts[LEFT_EAR] + pts[RIGHT_EAR])) \
            == pytest.approx(base, abs=1e-9)
        # ears stay on the pivot axis
        assert np.allclose(0.5 * (pts[LEFT_EAR] + pts[RIGHT_EAR]), mid,
                           atol=1e-9)


def test_head_angle_waypoints():
    # the nod sweeps 0 -> -15 -> ... -> 15 -> 0 piecewise linearly
    assert head_angle_at(0.0) == pytest.approx(0.0)
    assert head_angle_at(0.99999999) == pytest.approx(0.0, abs=1e-5)
    angles = head_angle_at(np.linspace(0, 1, 2001))
    assert np.degrees(min(angles)) == pytest.approx(-15.0, abs=0.1)
    assert np.degrees(max(angles)) == pytest.approx(15.0, abs=0.1)
    # visits each interval boundary
    visited = np.degrees(np.array(angles))
    for boundary in (-15.0, -5.0, 5.0, 15.0):
        assert np.abs(visited - boundary).min() < 0.1


def test_deform_rejects_bad_phase():
    with pytest.raises(ValueError):
        deform(np.array([0.5, 1.0]), np.ones(2))


# -- world positions ----------------------------------------------------------

def test_world_positions_identity_pose():
    pts = world_part_positions(np.zeros(6))
    assert np.allclose(pts, COORDS)


def test_world_positions_pure_translation():
    pts = world_part_positions(np.array([0.0, 0.0, 0.0, 10.0, 0.0, 0.0]))
    assert np.allclose(pts, COORDS + [10.0, 0.0, 0.0])


def test_world_positions_isometry():
    rng = np.random.default_rng(2)
    rigid = COORDS
    ref = np.linalg.norm(rigid[:, None] - rigid[None, :], axis=2)
    for _ in range(50):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0, np.pi - 0.1)
        pose = np.concatenate([r, rng.normal(scale=100, size=3)])
        pts = world_part_positions(pose)
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert np.allclose(dist, ref, atol=1e-9)


def test_deformation_offsets_applied_in_model_frame():
    rng = np.random.default_rng(3)
    r = np.array([0.3, -0.2, 0.9])
    t = np.array([5.0, 6.0, 7.0])
    offsets = rng.normal(size=(8, 3))
    pts = world_part_positions(np.concatenate([r, t]),
                               COORDS + offsets)
    R = geometry.rodrigues_to_matrix(r)
    expected = (COORDS + offsets) @ R.T + t
    assert np.allclose(pts, expected, atol=1e-12)


def test_world_positions_batched_equal_per_pose():
    rng = np.random.default_rng(4)
    params = np.column_stack([rng.normal(size=(20, 3)),
                              rng.normal(scale=100, size=(20, 3))])
    offsets = rng.normal(size=(20, 8, 3))
    pts = COORDS + offsets
    assert np.array_equal(world_part_positions(params),
                          np.stack([world_part_positions(p) for p in params]))
    assert np.array_equal(world_part_positions(params, pts),
                          np.stack([world_part_positions(p, q)
                                    for p, q in zip(params, pts)]))
