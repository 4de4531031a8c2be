import numpy as np
import pytest

from mousetrack3d import geometry, simulator, track_constraint
from mousetrack3d.track_constraint import (
    GRID,
    grid_displacements,
    grid_factor,
    grid_rmse,
    lagrange_weights,
    spline_interpolate,
    track_residual,
    window_slots,
)


# -- grid ---------------------------------------------------------------------

def test_default_grid_covers_model_bbox():
    assert GRID.shape == (27, 3)
    assert np.allclose(GRID.min(axis=0), [-13.5, -30.0, -8.0])
    assert np.allclose(GRID.max(axis=0), [13.5, 36.0, 19.0])


def test_grid_immutable():
    with pytest.raises(ValueError):
        GRID[0, 0] = 99.0


# -- interpolation ------------------------------------------------------------

def test_interior_weights():
    # unique cubic through nodes -2,-1,1,2 evaluated at 0
    assert np.allclose(track_constraint.WINDOW_WEIGHTS[2],
                       [-1 / 6, 2 / 3, 2 / 3, -1 / 6])


def test_constant_poses_interpolate_exactly():
    p0 = np.array([0.1, -0.2, 0.3, 4.0, 5.0, 6.0])
    q = spline_interpolate([p0, p0, p0, p0])
    assert q.shape == (6,)
    assert np.allclose(q, p0, atol=1e-12)


def test_cubic_parameters_reproduced_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        coeff = rng.normal(size=(6, 4))  # cubic per parameter

        def params(t):
            return coeff @ np.array([1.0, t, t * t, t ** 3])

        scale = [0.05] * 3 + [1.0] * 3
        q = spline_interpolate([params(o) * scale for o in (-2, -1, 1, 2)])
        expect = params(0.0)
        assert np.allclose(q[:3], expect[:3] * 0.05, atol=1e-9)
        assert np.allclose(q[3:], expect[3:], atol=1e-9)


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
    first, slot_weights = window_slots(n)
    assert np.array_equal(first, np.clip(np.arange(n) - 2, 0, n - 5))
    for t in range(n):
        # the window's nodes: its five slots but t, which has weight 0
        slots = first[t] + np.arange(5)
        assert slot_weights[t, t - first[t]] == 0.0
        nodes = slots[slots != t]
        weights = slot_weights[t, nodes - first[t]]
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
    assert list(first[5] + np.flatnonzero(slot_weights[5])) == [3, 4, 6, 7]


@pytest.mark.parametrize("t", [-1, 10])
def test_epoch_outside_track_rejected(t):
    with pytest.raises(IndexError):
        track_residual(linear_track(10), t)


def test_spline_interpolate_across_pi():
    # neighbors turning through pi about z, written as their canonical
    # vectors: the cubic takes them on the branch of the first neighbor
    axis = np.array([0.0, 0.0, 1.0])
    angles = np.pi + 0.1 * np.array([-2.0, -1.0, 1.0, 2.0])
    canon = np.where(angles > np.pi, angles - 2 * np.pi, angles)
    q = spline_interpolate(np.column_stack([canon[:, None] * axis,
                                            np.zeros((4, 3))]))
    assert np.allclose(q[:3], np.pi * axis, atol=1e-12)


def test_spline_interpolate_rejects_other_shapes():
    with pytest.raises(ValueError):
        spline_interpolate(np.zeros((3, 6)))


# -- grid comparison ----------------------------------------------------------

def lattice(lo, hi, counts):
    axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, counts)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("grid", [
    GRID,
    lattice([-13.5, -30.0, -8.0], [13.5, 36.0, 19.0], (4, 3, 5)),
    lattice([-13.5, -33.0, 0.0], [13.5, 33.0, 0.0], (3, 3, 3)),
], ids=["default", "4x3x5", "flat"])
def test_grid_factor_reproduces_grid_sums(grid):
    # the flat grid's homogeneous points have rank 3, so R is singular
    h = np.column_stack([grid, np.ones(len(grid))])
    R = grid_factor(grid)
    assert R.shape == (4, 4)
    assert np.allclose(R.T @ R, h.T @ h, rtol=1e-12, atol=1e-9)
    # a displacement A h has the grid's sum of squares at the four points
    H = np.array([0.2, -0.1, 0.3, 4.0, -2.0, 1.0])
    S = np.array([0.25, -0.05, 0.2, 3.0, -1.0, 2.5])
    M = geometry.rodrigues_to_matrix(H[:3]) @ geometry.rodrigues_to_matrix(S[:3]).T
    A = np.column_stack([M - np.eye(3), H[3:] - M @ S[3:]])
    sq = ((h @ A.T) ** 2).sum()
    assert ((R @ A.T) ** 2).sum() == pytest.approx(sq, rel=1e-12)


def test_identical_transforms_zero_rmse():
    H = np.array([0.2, 0.1, -0.3, 5.0, -2.0, 1.0])
    assert grid_rmse(H, H) == pytest.approx(0.0, abs=1e-12)


def test_pure_translation_rmse_is_norm():
    S = np.array([0.3, -0.1, 0.2, 1.0, 2.0, 3.0])
    delta = np.array([0.3, -0.4, 1.2])
    H = S + np.concatenate([np.zeros(3), delta])
    assert grid_rmse(H, S) == pytest.approx(np.linalg.norm(delta), abs=1e-9)


def test_one_degree_rotation_rmse_chord_oracle():
    # rotation about the grid-center z-axis displaces each point along a
    # chord of length 2 r sin(theta/2) where r is its xy-radius from center
    center = 0.5 * (GRID.min(axis=0) + GRID.max(axis=0))
    theta = np.radians(1.0)
    R = geometry.rodrigues_to_matrix(np.array([0.0, 0.0, theta]))
    S = np.zeros(6)
    # rotate about the center: x -> R(x - c) + c
    H = np.concatenate([[0.0, 0.0, theta], center - R @ center])
    radii = np.linalg.norm(GRID[:, :2] - center[:2], axis=1)
    chords = 2.0 * radii * np.sin(theta / 2.0)
    expected = np.sqrt(np.mean(chords ** 2))
    assert grid_rmse(H, S) == pytest.approx(expected, abs=1e-12)


def test_grid_displacement_shape_and_rms_consistency():
    H = np.array([0.1, 0.0, 0.05, 1.0, 0.0, 0.0])
    S = np.array([0.1, 0.01, 0.05, 1.0, 0.2, 0.0])
    d = grid_displacements(H, S)
    assert d.shape == (27, 3)
    assert np.sqrt((d ** 2).sum(axis=1).mean()) \
        == pytest.approx(grid_rmse(H, S))


def test_grid_metric_broadcasts_over_pose_rows():
    rng = np.random.default_rng(21)
    H = np.column_stack([rng.normal(size=(40, 3)), rng.normal(scale=20, size=(40, 3))])
    S = np.column_stack([rng.normal(size=(40, 3)), rng.normal(scale=20, size=(40, 3))])
    d = grid_displacements(H, S)
    rmse = grid_rmse(H, S)
    assert d.shape == (40, 27, 3) and rmse.shape == (40,)
    for n in range(40):
        assert np.allclose(d[n], grid_displacements(H[n], S[n]),
                           rtol=0, atol=1e-12)
        assert rmse[n] == pytest.approx(grid_rmse(H[n], S[n]), abs=1e-12)
    # one pose row against many, and a (2, 20, 6) stack
    assert np.allclose(grid_rmse(H, S[0]),
                       [grid_rmse(h, S[0]) for h in H], rtol=0, atol=1e-12)
    assert np.allclose(grid_rmse(H.reshape(2, 20, 6), S.reshape(2, 20, 6)),
                       rmse.reshape(2, 20), rtol=0, atol=1e-12)


def test_grid_metric_does_not_depend_on_world_frame():
    # a rigid world change W maps each displacement H g - S g to R_W times
    # it, which keeps its norm
    rng = np.random.default_rng(22)
    H = np.column_stack([rng.normal(size=(40, 3)), rng.normal(scale=20, size=(40, 3))])
    S = np.column_stack([rng.normal(size=(40, 3)), rng.normal(scale=20, size=(40, 3))])
    for _ in range(5):
        R_W = geometry.rodrigues_to_matrix(rng.normal(size=3))
        t_W = rng.normal(scale=1000, size=3)

        def moved(P):
            R = R_W @ geometry.rodrigues_to_matrix(P[:, :3])
            return np.column_stack([geometry.matrix_to_rodrigues(R),
                                    P[:, 3:] @ R_W.T + t_W])

        assert np.allclose(grid_rmse(moved(H), moved(S)), grid_rmse(H, S),
                           rtol=0, atol=1e-12)


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
    res = track_residual(track, t)
    # oracle: interpolate the neighbors directly and compare poses
    S = spline_interpolate(track[[t - 2, t - 1, t + 1, t + 2]])
    expect = grid_displacements(track[t], S)
    assert np.allclose(res, expect, atol=1e-12)
