import numpy as np
import pytest

from mousetrack3d import geometry, simulator, track_constraint
from mousetrack3d.geometry import PoseVector, RigidTransform
from mousetrack3d.track_constraint import (
    ComparisonGrid,
    default_grid,
    grid_displacements,
    grid_factor,
    grid_rmse,
    interpolation_window,
    lagrange_weights,
    spline_interpolate,
    track_residual,
    windows,
)


def rigid(rvec, t):
    return geometry.pose_to_transform(PoseVector(np.asarray(rvec, float),
                                                 np.asarray(t, float)))


# -- grid ---------------------------------------------------------------------

def test_default_grid_covers_model_bbox():
    g = default_grid()
    assert g.n_points == 27
    assert np.allclose(g.points.min(axis=0), [-13.5, -30.0, -8.0])
    assert np.allclose(g.points.max(axis=0), [13.5, 36.0, 19.0])


def test_grid_minimum_size():
    with pytest.raises(ValueError):
        ComparisonGrid(np.zeros((26, 3)))


# -- interpolation ------------------------------------------------------------

def test_interior_weights():
    # unique cubic through nodes -2,-1,1,2 evaluated at 0
    assert np.allclose(track_constraint.WINDOW_WEIGHTS[2],
                       [-1 / 6, 2 / 3, 2 / 3, -1 / 6])


def test_constant_poses_interpolate_exactly():
    p0 = PoseVector(np.array([0.1, -0.2, 0.3]), np.array([4.0, 5.0, 6.0]))
    q = spline_interpolate([p0, p0, p0, p0])
    assert np.allclose(q.rodrigues, p0.rodrigues, atol=1e-12)
    assert np.allclose(q.translation, p0.translation, atol=1e-12)


def test_cubic_parameters_reproduced_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeff = rng.normal(size=(6, 4))  # cubic per parameter

        def params(t):
            return coeff @ np.array([1.0, t, t * t, t ** 3])

        neighbors = [PoseVector(params(o)[:3] * 0.05, params(o)[3:])
                     for o in (-2, -1, 1, 2)]
        q = spline_interpolate(neighbors)
        expect = params(0.0)
        assert np.allclose(q.rodrigues, expect[:3] * 0.05, atol=1e-9)
        assert np.allclose(q.translation, expect[3:], atol=1e-9)


def test_quartic_interpolation_error():
    # samples of t^4 at -2,-1,1,2: the cubic through them is 5t^2 - 4,
    # so the interpolated value at 0 is -4 while the true value is 0
    vals = np.array([16.0, 1.0, 1.0, 16.0])
    assert track_constraint.WINDOW_WEIGHTS[2] @ vals == pytest.approx(-4.0)
    # cross-check the quoted cubic
    for t in (-2.0, -1.0, 1.0, 2.0):
        assert 5 * t * t - 4 == pytest.approx(t ** 4)


def test_lagrange_weights_partition_of_unity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        nodes = np.sort(rng.choice(np.arange(-5, 6), size=4, replace=False))
        w = lagrange_weights(nodes, rng.uniform(-5, 5))
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_boundary_windows():
    n = 10
    for t in range(n):
        nodes, weights = interpolation_window(t, n)
        assert len(nodes) == 4
        assert t not in nodes
        assert all(0 <= u < n for u in nodes)
        assert max(abs(u - t) for u in nodes) <= 4
        # weights reconstruct any cubic at t
        rng = np.random.default_rng(t)
        c = rng.normal(size=4)

        def cubic(x):
            return c @ np.array([1.0, x, x * x, x ** 3])

        assert weights @ [cubic(u) for u in nodes] \
            == pytest.approx(cubic(t), abs=1e-9)
    # interior epochs use the symmetric window
    nodes, _ = interpolation_window(5, n)
    assert nodes == [3, 4, 6, 7]


@pytest.mark.parametrize("t", [-1, 10])
def test_epoch_outside_track_rejected(t):
    with pytest.raises(IndexError):
        interpolation_window(t, 10)
    with pytest.raises(IndexError):
        track_residual(linear_track(10), t)


def test_window_table_accessors_agree():
    for n in range(5, 40):
        nodes, weights = windows(n)
        for t in range(n):
            nodes_t, weights_t = interpolation_window(t, n)
            assert list(nodes[t]) == nodes_t
            assert np.array_equal(weights[t], weights_t)


def test_spline_interpolate_across_pi():
    # neighbors turning through pi about z, written as their canonical
    # vectors: the cubic takes them on the branch of the first neighbor
    axis = np.array([0.0, 0.0, 1.0])
    angles = np.pi + 0.1 * np.array([-2.0, -1.0, 1.0, 2.0])
    canon = np.where(angles > np.pi, angles - 2 * np.pi, angles)
    q = spline_interpolate([PoseVector(a * axis, np.zeros(3)) for a in canon])
    assert np.allclose(q.rodrigues, np.pi * axis, atol=1e-12)


# -- grid comparison ----------------------------------------------------------

@pytest.mark.parametrize("grid", [
    default_grid(),
    default_grid(4, 3, 5),
    default_grid(3, 3, 3, extent_mm=[27.0, 66.0, 0.0]),
], ids=["default", "4x3x5", "flat"])
def test_grid_factor_reproduces_grid_sums(grid):
    # the flat grid's homogeneous points have rank 3, so R is singular
    h = np.column_stack([grid.points, np.ones(grid.n_points)])
    R = grid_factor(grid)
    assert R.shape == (4, 4)
    assert np.allclose(R.T @ R, h.T @ h, rtol=1e-12, atol=1e-9)
    # a displacement A h has the grid's sum of squares at the four points
    H = rigid([0.2, -0.1, 0.3], [4.0, -2.0, 1.0])
    S = rigid([0.25, -0.05, 0.2], [3.0, -1.0, 2.5])
    M = geometry.compose(H, geometry.invert(S))
    A = np.column_stack([M.rotation - np.eye(3), M.translation])
    sq = (grid_displacements(H, S, grid) ** 2).sum()
    assert ((R @ A.T) ** 2).sum() == pytest.approx(sq, rel=1e-12)


def test_identical_transforms_zero_rmse():
    H = rigid([0.2, 0.1, -0.3], [5.0, -2.0, 1.0])
    assert grid_rmse(H, H, default_grid()) == pytest.approx(0.0, abs=1e-12)


def test_pure_translation_rmse_is_norm():
    g = default_grid()
    S = rigid([0.3, -0.1, 0.2], [1.0, 2.0, 3.0])
    delta = np.array([0.3, -0.4, 1.2])
    H = geometry.compose(RigidTransform(np.eye(3), delta), S)
    assert grid_rmse(H, S, g) == pytest.approx(np.linalg.norm(delta), abs=1e-9)


def test_one_degree_rotation_rmse_chord_oracle():
    # rotation about the grid-center z-axis displaces each point along a
    # chord of length 2 r sin(theta/2) where r is its xy-radius from center
    g = default_grid()
    center = 0.5 * (g.points.min(axis=0) + g.points.max(axis=0))
    theta = np.radians(1.0)
    R = geometry.rodrigues_to_matrix(np.array([0.0, 0.0, theta]))
    S = RigidTransform(np.eye(3), np.zeros(3))
    # rotate about the center: x -> R(x - c) + c
    H = RigidTransform(R, center - R @ center)
    radii = np.linalg.norm(g.points[:, :2] - center[:2], axis=1)
    chords = 2.0 * radii * np.sin(theta / 2.0)
    expected = np.sqrt(np.mean(chords ** 2))
    assert grid_rmse(H, S, g) == pytest.approx(expected, abs=1e-12)


def test_grid_displacement_shape_and_rms_consistency():
    g = default_grid()
    H = rigid([0.1, 0.0, 0.05], [1.0, 0.0, 0.0])
    S = rigid([0.1, 0.01, 0.05], [1.0, 0.2, 0.0])
    d = grid_displacements(H, S, g)
    assert d.shape == (27, 3)
    assert np.sqrt((d ** 2).sum(axis=1).mean()) \
        == pytest.approx(grid_rmse(H, S, g))


# -- track residual -----------------------------------------------------------

def linear_track(n=20):
    return np.array([[0.0, 0.0, 0.001 * t, 2.0 * t, -1.0 * t, 0.5 * t]
                     for t in range(n)])


def test_uniform_linear_motion_zero_residual():
    track = linear_track()
    for t in range(len(track)):
        assert np.abs(track_residual(track, t)).max() < 1e-9


def test_brownian_residual_vanishes_with_step_sigma():
    cams = simulator.default_cameras()
    results = []
    for sigma in (1.0, 0.1, 0.01):
        config = simulator.SceneConfig(cameras=cams, seed=3, n_epochs=40,
                                       step_sigma_mm=sigma,
                                       noise_sigma_px=0.0)
        ds = simulator.simulate(config)
        results.append(np.sqrt(np.mean(
            [np.mean(track_residual(ds.poses, t) ** 2)
             for t in range(5, 35)])))
    assert results[0] > results[1] > results[2]
    # decays roughly in proportion to the step size
    assert results[2] < 0.05 * results[0]


def test_outlier_pose_residual_matches_oracle():
    track = linear_track()
    t = 8
    track[t] += [0.02, 0.0, 0.0, 3.0, 0.0, 0.0]
    g = default_grid()
    res = track_residual(track, t, g)
    # oracle: interpolate the neighbors directly and compare transforms
    S = spline_interpolate([PoseVector(p[:3], p[3:])
                            for p in track[[t - 2, t - 1, t + 1, t + 2]]])
    expect = grid_displacements(rigid(track[t, :3], track[t, 3:]),
                                geometry.pose_to_transform(S), g)
    assert np.allclose(res, expect, atol=1e-12)
