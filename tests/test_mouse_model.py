import itertools

import numpy as np
import pytest

from mousetrack3d import geometry, mouse_model
from mousetrack3d.geometry import PoseVector
from mousetrack3d.mouse_model import (
    LEFT_EAR,
    LEFT_FRONT_PAW,
    LEFT_HIND_PAW,
    NOSE_TIP,
    RIGHT_EAR,
    RIGHT_FRONT_PAW,
    RIGHT_HIND_PAW,
    TAIL_ROOT,
    DeformationState,
    RigidMouseModel,
    deform,
    head_angle_at,
    world_part_positions,
)


# -- rigid model --------------------------------------------------------------

def test_nose_tip_coordinate():
    m = RigidMouseModel()
    assert np.allclose(m.part(NOSE_TIP), [0.0, 36.0, 2.5])


def test_ear_coordinates():
    m = RigidMouseModel()
    assert np.allclose(m.part(LEFT_EAR), [7.75, 16.0, 19.0])
    assert np.allclose(m.part(RIGHT_EAR), [-7.75, 16.0, 19.0])


def test_no_three_parts_collinear():
    # initialize fits the model to any three triangulated parts, so every
    # triple must span a plane (ratio of its two centred singular values)
    coords = RigidMouseModel().coords
    triples = list(itertools.combinations(range(8), 3))
    assert len(triples) == 56
    for triple in triples:
        A = coords[list(triple)]
        s = np.linalg.svd(A - A.mean(axis=0), compute_uv=False)
        assert s[1] / s[0] > 0.1, triple


def test_tail_root_coordinate():
    assert np.allclose(RigidMouseModel().part(TAIL_ROOT), [0.0, -30.0, -6.0])


def test_bilateral_symmetry():
    m = RigidMouseModel().rigid_part_positions()
    for l, r in [(LEFT_EAR, RIGHT_EAR), (LEFT_FRONT_PAW, RIGHT_FRONT_PAW),
                 (LEFT_HIND_PAW, RIGHT_HIND_PAW)]:
        assert np.allclose(m[l] * [-1, 1, 1], m[r])


def test_coords_immutable():
    m = RigidMouseModel()
    with pytest.raises(ValueError):
        m.coords[0, 0] = 1.0


# -- deformation --------------------------------------------------------------

def test_phase_zero_no_deformation():
    state = deform(RigidMouseModel(), 0.0, body_speed=2.0, head_angle=0.0)
    assert np.allclose(state.offsets, 0.0)
    assert np.allclose(state.deformed_positions(),
                       RigidMouseModel().rigid_part_positions())


def test_swing_vs_stance_world_displacement():
    # a quarter cycle into the first half: swing paws' world displacement is
    # twice the body's, stance paws' world displacement is zero
    model = RigidMouseModel()
    speed = 2.0  # mm per frame
    cycle = 10
    poses = []
    worlds = []
    for frame in (1, 2):  # both inside the first half cycle
        phase = frame / cycle
        pose = PoseVector(np.zeros(3), np.array([0.0, speed * frame, 0.0]))
        state = deform(model, phase, speed, cycle_length=cycle, head_angle=0.0)
        worlds.append(world_part_positions(pose.as_array(),
                                           state.deformed_positions(model)))
        poses.append(pose)
    delta = worlds[1] - worlds[0]
    body_delta = np.array([0.0, speed, 0.0])
    for p in mouse_model.SWING_FIRST_PAWS:
        assert np.allclose(delta[p], 2.0 * body_delta, atol=1e-12)
    for p in mouse_model.STANCE_FIRST_PAWS:
        assert np.allclose(delta[p], 0.0, atol=1e-12)


def test_paw_roles_swap_at_half_cycle():
    model = RigidMouseModel()
    speed, cycle = 2.0, 10
    worlds = []
    for frame in (6, 7):  # inside the second half cycle
        pose = PoseVector(np.zeros(3), np.array([0.0, speed * frame, 0.0]))
        state = deform(model, frame / cycle, speed, cycle_length=cycle,
                       head_angle=0.0)
        worlds.append(world_part_positions(pose.as_array(),
                                           state.deformed_positions(model)))
    delta = worlds[1] - worlds[0]
    for p in mouse_model.SWING_FIRST_PAWS:
        assert np.allclose(delta[p], 0.0, atol=1e-12)
    for p in mouse_model.STANCE_FIRST_PAWS:
        assert np.allclose(delta[p], [0.0, 2.0 * speed, 0.0], atol=1e-12)


def test_paw_offsets_cancel_and_close_cycle():
    model = RigidMouseModel()
    for phase in np.linspace(0, 0.999, 40):
        state = deform(model, phase, 2.0, head_angle=0.0)
        # diagonal pairs are exact negatives
        assert state.offsets[:, [0, 2]].max() == 0.0
        y = state.offsets[:, 1]
        assert y[LEFT_FRONT_PAW] == pytest.approx(-y[RIGHT_FRONT_PAW])
        assert y[LEFT_FRONT_PAW] == pytest.approx(y[RIGHT_HIND_PAW])
    closing = deform(model, 0.0, 2.0, head_angle=0.0)
    assert np.allclose(closing.offsets, 0.0)


def test_stride_amplitude():
    # peak model-frame offset at phase 0.5 is body_speed * cycle / 2 each way
    state = deform(RigidMouseModel(), 0.4999999, 3.0, cycle_length=10,
                   head_angle=0.0)
    assert state.offsets[LEFT_FRONT_PAW, 1] == pytest.approx(15.0, abs=1e-4)


def test_head_triangle_rigid():
    model = RigidMouseModel()
    rigid = model.rigid_part_positions()
    mid = 0.5 * (rigid[LEFT_EAR] + rigid[RIGHT_EAR])
    base = np.linalg.norm(rigid[NOSE_TIP] - mid)
    for angle in np.radians([-15.0, -5.0, 3.0, 15.0]):
        pts = deform(model, 0.0, 0.0, head_angle=angle).deformed_positions(model)
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
    angles = [head_angle_at(p) for p in np.linspace(0, 1, 2001)]
    assert np.degrees(min(angles)) == pytest.approx(-15.0, abs=0.1)
    assert np.degrees(max(angles)) == pytest.approx(15.0, abs=0.1)
    # visits each interval boundary
    visited = np.degrees(np.array(angles))
    for boundary in (-15.0, -5.0, 5.0, 15.0):
        assert np.abs(visited - boundary).min() < 0.1


def test_deform_rejects_bad_phase():
    with pytest.raises(ValueError):
        deform(RigidMouseModel(), 1.0, 1.0)


# -- world positions ----------------------------------------------------------

def test_world_positions_identity_pose():
    pose = PoseVector(np.zeros(3), np.zeros(3))
    pts = world_part_positions(pose.as_array())
    assert np.allclose(pts, RigidMouseModel().rigid_part_positions())


def test_world_positions_pure_translation():
    pose = PoseVector(np.zeros(3), np.array([10.0, 0.0, 0.0]))
    pts = world_part_positions(pose.as_array())
    assert np.allclose(pts, RigidMouseModel().rigid_part_positions()
                       + [10.0, 0.0, 0.0])


def test_world_positions_isometry():
    rng = np.random.default_rng(2)
    rigid = RigidMouseModel().rigid_part_positions()
    ref = np.linalg.norm(rigid[:, None] - rigid[None, :], axis=2)
    for _ in range(50):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0, np.pi - 0.1)
        pose = PoseVector(r, rng.normal(scale=100, size=3))
        pts = world_part_positions(pose.as_array())
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert np.allclose(dist, ref, atol=1e-9)


def test_deformation_offsets_applied_in_model_frame():
    rng = np.random.default_rng(3)
    r = np.array([0.3, -0.2, 0.9])
    pose = PoseVector(r, np.array([5.0, 6.0, 7.0]))
    offsets = rng.normal(size=(8, 3))
    state = DeformationState(phase=0.0, head_angle=0.0, offsets=offsets)
    pts = world_part_positions(pose.as_array(), state.deformed_positions())
    R = geometry.rodrigues_to_matrix(r)
    expected = (RigidMouseModel().rigid_part_positions() + offsets) @ R.T \
        + pose.translation
    assert np.allclose(pts, expected, atol=1e-12)


def test_world_positions_batched_equal_per_pose():
    rng = np.random.default_rng(4)
    params = np.column_stack([rng.normal(size=(20, 3)),
                              rng.normal(scale=100, size=(20, 3))])
    offsets = rng.normal(size=(20, 8, 3))
    pts = RigidMouseModel().coords + offsets
    assert np.array_equal(world_part_positions(params),
                          np.stack([world_part_positions(p) for p in params]))
    assert np.array_equal(world_part_positions(params, pts),
                          np.stack([world_part_positions(p, q)
                                    for p, q in zip(params, pts)]))
