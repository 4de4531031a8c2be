"""Global nonlinear least-squares estimation of the per-epoch 6-DoF body
trajectory from all cameras and epochs.

The cost combines per-observation reprojection residuals (rigid body parts,
or deformation-predicted parts) with per-epoch motion-track smoothness
residuals. The smoothness residuals are the exact four-weighted-point
equivalent of the comparison grid's displacements that `track_constraint`
defines (see `Problem`); they interpolate window nodes re-expressed on the
rotation branch nearest each epoch's canonical rotation vector, so they do
not depend on 2 pi branches.
Unknowns are six pose parameters per epoch, with every rotation vector kept
canonical (angle at most pi) by the solver; the smoothness window couples five
consecutive epochs, so the normal matrix is banded with half-bandwidth 29
(6 * 4 + 5). Levenberg-Marquardt accumulates it straight into banded
storage from per-epoch rotation derivatives and one 12x12 smoothness factor
per epoch, and solves each damped step by banded Cholesky. Camera poses are
fixed throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import deform_predictor, geometry, mouse_model, track_constraint
from .errors import (
    InconsistentCameraIds,
    NonFiniteCost,
    NoSolvableEpoch,
    SchemaError,
    numbers,
    read_json,
)

# Levenberg-Marquardt settings
MAX_ITERATIONS = 100
COST_TOLERANCE = 1e-10       # relative cost decrease
GRADIENT_TOLERANCE = 1e-10
INITIAL_LAMBDA = 1e-6
LAMBDA_UP = 10.0
LAMBDA_DOWN = 10.0

SOLVED_FROM = ("local", "interpolated", "adjusted")


@dataclass(frozen=True)
class StochasticConfig:
    """Two-tier observation weights plus the smoothness weight.

    sigma_px_geometric reflects pure body-part localization accuracy
    (deformation modeled explicitly); sigma_px_deformation additionally
    absorbs unmodeled body deformation as inflated noise.
    smoothness_weight converts grid displacements (mm) into residual units.
    """

    sigma_px_geometric: float = 0.5
    sigma_px_deformation: float = 3.0
    smoothness_weight: float = 1e-3

    def __post_init__(self):
        sigmas = [self.sigma_px_geometric, self.sigma_px_deformation]
        if not (np.isfinite(sigmas).all() and min(sigmas) > 0):
            raise ValueError("sigmas must be finite and > 0")
        if not (np.isfinite(self.smoothness_weight)
                and self.smoothness_weight >= 0):
            raise ValueError("smoothness_weight must be finite and >= 0")


@dataclass
class MouseStateTrack:
    """Pose estimates of a whole recording with provenance flags.

    poses is a (T, 6) float array: row t holds epoch t's Rodrigues rotation
    vector, then its translation in mm. solved_from holds one flag per epoch,
    'local', 'interpolated' or 'adjusted'.
    """

    poses: np.ndarray
    solved_from: list
    residual_rms: np.ndarray | None = None

    @property
    def n_epochs(self):
        return len(self.poses)

    def as_array(self):
        return self.poses


@dataclass
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    status: str
    reprojection_rms_px: float
    smoothness_rms_mm: float


# ---------------------------------------------------------------------------
# Rigid registration (model -> world) for initialization
# ---------------------------------------------------------------------------

def fit_rigid(model_pts, world_pts, mask):
    """Closed-form least-squares rigid transforms mapping the masked model
    points onto world points (Kabsch: cross-covariance SVD with reflection
    guard), batched over leading dimensions.

    model_pts : (n, 3); world_pts : (..., n, 3); mask : (..., n) bool, the
    points used by each fit (at least three). Returns (R (..., 3, 3),
    t (..., 3)) with world ~ R model + t.
    """
    # unused points become zero rows, which leave every sum unchanged
    used = np.asarray(mask, dtype=bool)[..., None]
    A = np.where(used, np.asarray(model_pts, dtype=float), 0.0)
    B = np.where(used, np.asarray(world_pts, dtype=float), 0.0)
    n = used.sum(axis=-2)
    ca, cb = A.sum(axis=-2) / n, B.sum(axis=-2) / n
    Hm = (np.swapaxes(np.where(used, A - ca[..., None, :], 0.0), -1, -2)
          @ np.where(used, B - cb[..., None, :], 0.0))
    U, _, Vt = np.linalg.svd(Hm)
    V, Ut = np.swapaxes(Vt, -1, -2), np.swapaxes(U, -1, -2)
    D = np.broadcast_to(np.eye(3), Hm.shape).copy()
    D[..., 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ D @ Ut
    return R, cb - (R @ ca[..., None])[..., 0]


def _dataset_cameras(dataset, cameras):
    """cameras sorted by id; InconsistentCameraIds unless their ids are
    0..K-1 for the dataset's K camera slots (camera k of the dataset is the
    camera with id k)."""
    cams = sorted(cameras, key=lambda c: c.id)
    K = dataset.visible.shape[1]
    if [c.id for c in cams] != list(range(K)):
        raise InconsistentCameraIds(
            f"camera ids {[c.id for c in cams]} inconsistent with dataset's "
            f"{K} camera slots")
    return cams


def _triangulate_parts(dataset, cameras):
    """Linear triangulation of every (epoch, part): ((T, 8, 3) global
    positions, (T, 8) mask of parts seen by >= 2 cameras and
    triangulated)."""
    cameras = _dataset_cameras(dataset, cameras)
    T, K = dataset.visible.shape[:2]
    visible = dataset.visible.transpose(0, 2, 1).reshape(T * 8, K)
    pixels = dataset.observations.transpose(0, 2, 1, 3).reshape(T * 8, K, 2)
    X, ok = geometry.triangulate_batch(cameras, pixels, visible)
    return X.reshape(T, 8, 3), ok.reshape(T, 8)


def initialize(dataset, cameras=None) -> MouseStateTrack:
    """Per-epoch initialization from local observations.

    Parts visible in >= 2 cameras are triangulated; epochs with at least
    three triangulated parts get a closed-form rigid fit of the model (no
    three model parts are collinear). Remaining epochs are linearly
    interpolated between solved neighbors i < j (nearest solved state at the
    track ends): the rotation vector between canonical r_i and r_j
    re-expressed on the 2 pi branch nearest r_i, so that every solved epoch
    keeps its canonical vector.
    """
    cameras = cameras if cameras is not None else dataset.cameras
    T = dataset.n_epochs
    world, have = _triangulate_parts(dataset, cameras)
    solved = np.flatnonzero(have.sum(axis=1) >= 3)
    if not solved.size:
        raise NoSolvableEpoch("no epoch has enough triangulated parts for a local fit")
    R, t = fit_rigid(mouse_model.RigidMouseModel().coords, world[solved],
                     have[solved])

    epochs = np.arange(T)
    rv = geometry.matrix_to_rodrigues(R)
    # each epoch's place between solved epochs i = solved[lo] and solved[hi]
    place = np.interp(epochs, solved, np.arange(len(solved)))
    lo = np.floor(place).astype(int)
    frac = (place - lo)[:, None]
    hi = np.minimum(lo + 1, len(solved) - 1)
    r_hi = geometry.branch_scale(rv[hi], rv[lo])[:, None] * rv[hi]
    params = np.column_stack([(1.0 - frac) * rv[lo] + frac * r_hi]
                             + [np.interp(epochs, solved, t[:, j])
                                for j in range(3)])
    flags = np.full(T, "interpolated", dtype=object)
    flags[solved] = "local"
    return MouseStateTrack(params, flags.tolist())


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def _sum_rows(index, values, n):
    """Sum the rows of values (m, ...) into n rows selected by index (m,)."""
    k = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * k).reshape(n, k)


class Problem:
    """Stacked residual system over all epochs.

    Reprojection blocks: one per visible (epoch, camera, part) observation,
    residual (projected - observed) / sigma. Smoothness blocks: one per
    epoch, smoothness_weight times the displacements of the comparison grid
    between the epoch's pose and the cubic recombination of its window
    neighbors.

    The windows, their weights and the rotation-branch rule of the cubic
    are `track_constraint`'s (`windows`, `interpolate`), so the cost depends
    only on the rotations, not on how x writes them. Each epoch's smoothness
    block is the 12 residuals
    smoothness_weight * (R_H R_S^T (p_j - s_j t_S) + s_j t_H - p_j) of the
    four weighted points (p_j, s_j) of the default grid's
    `track_constraint.grid_factor`, which have the grid's sum of squares.

    The smoothness residual of epoch t depends on the poses of the five
    epochs in `smooth_nodes[t]` (t itself, then its four window nodes), at
    most four epochs apart, so J^T J is banded with half-bandwidth
    `bandwidth` = min(29, 6T - 1).
    """

    def __init__(self, dataset, cameras, model_points, stochastic, sigma_px):
        self.n_epochs = dataset.n_epochs
        self.stochastic = stochastic
        self.sigma_px = float(sigma_px)

        cams = _dataset_cameras(dataset, cameras)
        # q = K (R_c X + t_c) = (K R_c) X + K t_c
        self.cam_KR = np.stack([c.calibration @ c.pose_global.rotation
                                for c in cams])
        self.cam_Kt = np.stack([c.calibration @ c.pose_global.translation
                                for c in cams])

        # visible observations in (epoch, camera, part) order
        self.obs_t, self.obs_k, self.obs_i = np.nonzero(dataset.visible)
        self.obs_px = np.asarray(
            dataset.observations[self.obs_t, self.obs_k, self.obs_i],
            dtype=float).reshape(-1, 2)
        # model-frame part positions: (8, 3) rigid coordinates, or (T, 8, 3)
        # rigid + predicted offsets in deformed mode
        self.model_pts = np.asarray(model_points, dtype=float)

        # smoothness windows: (T, 4) nodes and cubic weights
        T = self.n_epochs
        nodes, self.win_weights = track_constraint.windows(T)
        self.smooth_nodes = np.column_stack([np.arange(T), nodes])
        # the four weighted points (p_j, s_j) equivalent to the grid
        grid = track_constraint.default_grid()
        rq = track_constraint.grid_factor(grid)
        self.smooth_p, self.smooth_s = rq[:, :3], rq[:, 3]
        self.n_grid_points = grid.n_points
        self.n_obs = len(self.obs_t)
        self.n_residuals = 2 * self.n_obs + 12 * T
        self.n_params = 6 * T
        self._init_band()

    def _init_band(self):
        """Index maps from each epoch's smoothness blocks to the 6x6 blocks
        of J^T J.

        J^T J is accumulated as blocks (T, 5, 6, 6), where [j, d] is the
        block coupling epoch j + d (rows) with epoch j (columns).

        Epoch t's smoothness Jacobian with respect to its own pose (node
        a = 0) is the block A_t, and with respect to window node a > 0 it is
        w_ta B_t, then the branch map D_ta (see `_blocks`). So each of the 15
        pairs (a, b) of its nodes that lands on or below the block diagonal
        gets w_ta w_tb times one 6x6 block of C_t^T C_t, with
        C_t = [A_t | B_t]: A^T A, A^T B, B^T A or B^T B (w_t0 = 1).
        """
        T = self.n_epochs
        self.bandwidth = min(29, 6 * T - 1)
        node_w = np.column_stack([np.ones(T), self.win_weights])
        na = self.smooth_nodes[:, :, None]
        nb = self.smooth_nodes[:, None, :]
        lower = np.broadcast_to(na >= nb, (T, 5, 5))
        pt, pa, pb = np.nonzero(lower)
        # an epoch's five nodes are distinct, so its 15 pairs are consecutive
        self._pair_a, self._pair_b = pa.reshape(T, 15), pb.reshape(T, 15)
        # index of the pair's block in the (4T, 6, 6) stack of C_t^T C_t blocks
        self._pair_src = 4 * pt + 2 * (pa > 0) + (pb > 0)
        self._pair_w = node_w[pt, pa] * node_w[pt, pb]
        self._pair_dst = (nb * 5 + (na - nb))[lower]

    # -- residuals ----------------------------------------------------------

    def residuals(self, x):
        x = np.asarray(x, dtype=float).reshape(self.n_epochs, 6)
        RH = geometry.rodrigues_to_matrix(x[:, :3])
        S, _ = self._interpolated(x)
        RS = geometry.rodrigues_to_matrix(S[:, :3])
        return np.concatenate([self._reproj_forward(x, RH)[0].ravel(),
                               self._smooth_forward(x, S, RH, RS)[2].ravel()])

    def _reproj_forward(self, x, R):
        """(residuals (n_obs, 2), q = K pc (n_obs, 3), guarded depth q_z) at
        x with epoch rotations R (T, 3, 3)."""
        world = ((self.model_pts @ R.transpose(0, 2, 1))[self.obs_t, self.obs_i]
                 + x[self.obs_t, 3:])
        q = ((self.cam_KR[self.obs_k] @ world[:, :, None])[:, :, 0]
             + self.cam_Kt[self.obs_k])
        z = np.where(np.abs(q[:, 2]) > geometry.EPS_DEPTH, q[:, 2],
                     geometry.EPS_DEPTH)
        proj = q[:, :2] / z[:, None]
        return (proj - self.obs_px) / self.sigma_px, q, z

    def _interpolated(self, x):
        """Cubic recombination S (T, 6) of each epoch's window nodes, on the
        branch nearest the epoch's canonical vector, and the nodes' branch
        factors s (T, 4) (`track_constraint.interpolate`)."""
        return track_constraint.interpolate(
            x, self.smooth_nodes[:, 1:], self.win_weights,
            geometry.canonical_rodrigues(x[:, :3]))

    def _smooth_forward(self, x, S, RH, RS):
        """c_j = p_j - s_j t_S and y_j = R_S^T c_j (T, 4, 3), and the
        residuals (T, 4, 3), for interpolated poses S with rotations R_S and
        epoch rotations R_H."""
        s = self.smooth_s[:, None]
        c = self.smooth_p - s * S[:, None, 3:]
        y = c @ RS
        res = y @ RH.transpose(0, 2, 1) + s * x[:, None, 3:] - self.smooth_p
        return c, y, self.stochastic.smoothness_weight * res

    def cost(self, x):
        r = self.residuals(x)
        return float(r @ r)

    # -- analytic Jacobian ----------------------------------------------------

    def _blocks(self, x):
        """Residuals and Jacobian factors at x (T, 6).

        Returns (r_p (n_obs, 2), J_p (n_obs, 2, 6), r_s (T, 12),
        C (T, 12, 12), s (T, 4)). J_p[n] is d r_p[n] / d x[obs_t[n]].
        C[t] = [A_t | B_t] holds d r_s[t] / d x[t] (A_t) and
        d r_s[t] / d S[t] (B_t), where S[t] is the interpolated pose. So
        d r_s[t] / d x[smooth_nodes[t, a]] for a window node a > 0 is
        win_weights[t, a - 1] B_t with its rotation columns times the node's
        branch map D_ta (`track_constraint.branch_maps` of the branch factors
        s, the identity where s = 1). Rotation derivatives come from one
        `rotation_derivatives` call for the T poses and one for the T
        interpolated poses.
        """
        T = self.n_epochs
        RH, dRH = geometry.rotation_derivatives(x[:, :3])
        S, branch = self._interpolated(x)
        RS, dRS = geometry.rotation_derivatives(S[:, :3])

        r_p = np.zeros((0, 2))
        J_p = np.zeros((0, 2, 6))
        if self.n_obs > 0:
            r_p, q, z = self._reproj_forward(x, RH)
            KR = self.cam_KR[self.obs_k]
            # d(proj)/d(world): (u, v) = (q0/q2, q1/q2), q = K R_c world + K t_c
            Jworld = ((KR[:, :2, :] * z[:, None, None] - q[:, :2, None] * KR[:, 2:3, :])
                      / (z ** 2)[:, None, None])                       # (n, 2, 3)
            # d(R_t m)/dr for every (epoch, part): [t, part, :, i] = dR_t/dr_i m
            Jrot = (self.model_pts[..., None, :, :] @ dRH.transpose(0, 1, 3, 2))
            Jrot = Jrot.transpose(0, 2, 3, 1)[self.obs_t, self.obs_i]  # (n, 3, 3)
            J_p = np.concatenate([Jworld @ Jrot, Jworld], axis=2) / self.sigma_px

        c, y, r_s = self._smooth_forward(x, S, RH, RS)
        s = self.smooth_s[None, :, None, None]
        C = np.empty((T, 4, 3, 12))
        # own pose: d(R_H y + s t_H)/d(r_H, t_H)
        C[..., 0:3] = (y[:, None] @ dRH.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)
        C[..., 3:6] = s * np.eye(3)
        # interpolated pose: d(R_H R_S^T c)/d r_S and d/d t_S = -s R_H R_S^T
        C[..., 6:9] = ((c[:, None] @ dRS) @ RH.transpose(0, 2, 1)[:, None]
                       ).transpose(0, 2, 3, 1)
        C[..., 9:12] = -s * (RH @ RS.transpose(0, 2, 1))[:, None]
        C *= self.stochastic.smoothness_weight
        return r_p, J_p, r_s.reshape(T, 12), C.reshape(T, 12, 12), branch

    def jacobian(self, x):
        """Sparse (n_residuals, n_params) Jacobian at x, expanded from the
        same factors as `normal_equations`."""
        x = np.asarray(x, dtype=float).reshape(self.n_epochs, 6)
        _, J_p, _, C, branch = self._blocks(x)
        T = self.n_epochs
        J_s = np.concatenate(
            [C[:, :, None, :6],
             C[:, :, None, 6:] * self.win_weights[:, None, :, None]],
            axis=2)                                                # (T, 12, 5, 6)
        D = track_constraint.branch_maps(x[self.smooth_nodes[:, 1:], :3], branch)
        J_s[:, :, 1:, :3] = np.einsum("tiap,tapq->tiaq", J_s[:, :, 1:, :3], D)
        n = self.n_obs
        rows = [np.broadcast_to((2 * np.arange(n))[:, None, None]
                                + np.arange(2)[:, None], (n, 2, 6)),
                np.broadcast_to((2 * n + 12 * np.arange(T))[:, None, None, None]
                                + np.arange(12)[:, None, None], (T, 12, 5, 6))]
        cols = [np.broadcast_to((6 * self.obs_t)[:, None, None] + np.arange(6),
                                (n, 2, 6)),
                np.broadcast_to((6 * self.smooth_nodes)[:, None, :, None]
                                + np.arange(6), (T, 12, 5, 6))]
        J = scipy.sparse.coo_matrix(
            (np.concatenate([J_p.ravel(), J_s.ravel()]),
             (np.concatenate([r.ravel() for r in rows]),
              np.concatenate([c.ravel() for c in cols]))),
            shape=(self.n_residuals, self.n_params))
        return J.tocsr()

    def normal_equations(self, x):
        """J^T J in lower banded storage and J^T r at x.

        Returns (N, g): N has shape (bandwidth + 1, n_params) with
        N[i - j, j] = (J^T J)[i, j] for i >= j (the layout of
        scipy.linalg.cholesky_banded with lower=True), g = J^T r.
        """
        x = np.asarray(x, dtype=float).reshape(self.n_epochs, 6)
        r_p, J_p, r_s, C, branch = self._blocks(x)
        T = self.n_epochs
        blocks = np.zeros((T, 5, 36))
        g = np.zeros((T, 6))
        if self.n_obs > 0:
            Jt = J_p.transpose(0, 2, 1)
            blocks[:, 0] = _sum_rows(self.obs_t, Jt @ J_p, T)
            g += _sum_rows(self.obs_t, Jt @ r_p[:, :, None], T)
        # one C_t^T C_t per epoch, spread over its 15 window node pairs
        Ct = C.transpose(0, 2, 1)
        CtC = (Ct @ C).reshape(T, 2, 6, 2, 6).transpose(0, 1, 3, 2, 4)
        pairs = (CtC.reshape(4 * T, 6, 6)[self._pair_src]
                 * self._pair_w[:, None, None]).reshape(T, 15, 6, 6)
        Ctr = (Ct @ r_s[:, :, None]).reshape(T, 2, 6)
        g_nodes = np.concatenate(
            [Ctr[:, :1], self.win_weights[:, :, None] * Ctr[:, 1:]], axis=1)
        # epochs with a window node off its branch: D_a^T (.) D_b on their
        # pairs' rotation rows and columns, D_a^T on their gradient
        bent = np.flatnonzero((branch != 1.0).any(axis=1))
        if bent.size:
            D = np.concatenate(
                [np.broadcast_to(np.eye(3), (len(bent), 1, 3, 3)),
                 track_constraint.branch_maps(x[self.smooth_nodes[bent, 1:], :3],
                                              branch[bent])], axis=1)
            own = np.arange(len(bent))[:, None]
            P = pairs[bent]
            P[..., :3, :] = (D[own, self._pair_a[bent]].transpose(0, 1, 3, 2)
                             @ P[..., :3, :])
            P[..., :3] = P[..., :3] @ D[own, self._pair_b[bent]]
            pairs[bent] = P
            g_nodes[bent, :, :3] = (D.transpose(0, 1, 3, 2)
                                    @ g_nodes[bent, :, :3, None])[..., 0]
        blocks += _sum_rows(self._pair_dst, pairs.reshape(-1, 36),
                            T * 5).reshape(T, 5, 36)
        g += _sum_rows(self.smooth_nodes.ravel(), g_nodes.reshape(-1, 6), T)
        # block [j, d] entry (p, q) is (J^T J)[6(j + d) + p, 6j + q], stored at
        # N[6d + p - q, 6j + q] when on or below the diagonal
        blocks = blocks.reshape(T, 5, 6, 6)
        N = np.zeros((self.bandwidth + 1, self.n_params))
        for d in range(min(5, T)):
            for q in range(6):
                lo = max(q - 6 * d, 0)
                N[6 * d + lo - q:6 * d + 6 - q, q::6][:, :T - d] = \
                    blocks[:T - d, d, lo:, q].T
        return N, g.ravel()

    def residual_rms(self, x):
        """(reprojection RMS in px, smoothness RMS in mm) at x."""
        return self._rms(self.residuals(x))[:2]

    def _rms(self, r):
        """(reprojection RMS in px, smoothness RMS in mm, (T,) per-epoch
        reprojection RMS in px) of the residual vector r. The smoothness RMS
        is over the 3 n_grid displacement components of every epoch, which
        the four weighted points reproduce in sum of squares."""
        n = 2 * self.n_obs
        rp = r[:n] * self.sigma_px
        w_s = self.stochastic.smoothness_weight
        sm = r[n:] / w_s if w_s > 0 else np.zeros(1)
        rp_rms = float(np.sqrt((rp ** 2).mean())) if rp.size else 0.0
        n_disp = 3 * self.n_grid_points * self.n_epochs
        sq = (rp.reshape(-1, 2) ** 2).sum(axis=1)
        count = np.bincount(self.obs_t, minlength=self.n_epochs)
        total = np.bincount(self.obs_t, weights=sq, minlength=self.n_epochs)
        return (rp_rms, float(np.sqrt((sm @ sm) / n_disp)),
                np.sqrt(total / np.maximum(count, 1)))


def build_problem(dataset, cameras, track=None, deform_model=None,
                  stochastic: StochasticConfig | None = None) -> Problem:
    """Assemble the residual system for a dataset.

    Without a deformation model every observation becomes a rigid
    reprojection block weighted by sigma_px_deformation (body deformation
    treated as noise). With one, per-epoch offsets are predicted from the
    current track and blocks use sigma_px_geometric.
    """
    stochastic = stochastic or StochasticConfig()
    model_pts = mouse_model.RigidMouseModel().coords
    if deform_model is None:
        return Problem(dataset, cameras, model_pts, stochastic,
                       stochastic.sigma_px_deformation)
    if track is None:
        raise ValueError("deformed mode needs a current track estimate")
    offsets = predict_offsets(dataset, cameras, track, deform_model)
    return Problem(dataset, cameras, model_pts + offsets, stochastic,
                   stochastic.sigma_px_geometric)


def predict_offsets(dataset, cameras, track: MouseStateTrack, model):
    """Per-epoch model-frame deformation offsets predicted from observations.

    Parts visible in >= 2 cameras are triangulated and mapped into the model
    frame via the current pose estimates; the recording's token windows feed
    the sequence model in one batch. Epochs whose window does not fit inside
    the track get zero offsets.
    """
    T = dataset.n_epochs
    n = model.window
    world, have = _triangulate_parts(dataset, cameras)
    x = track.poses
    R = geometry.rodrigues_to_matrix(x[:, :3])
    est = (world - x[:, None, 3:]) @ R               # R^T (X - t), model frame

    offsets = np.zeros((T, 8, 3))
    if T > 2 * n:
        windows = deform_predictor.token_windows(est, ~have, n)
        offsets[n:T - n] = (model.predict(*windows)
                            - mouse_model.RigidMouseModel().coords)
    return offsets


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------

def _canonical(x):
    """Flat pose vector x with every rotation vector canonical (angle at
    most pi)."""
    x = x.reshape(-1, 6).copy()
    x[:, :3] = geometry.canonical_rodrigues(x[:, :3])
    return x.ravel()


def solve(problem: Problem, track: MouseStateTrack):
    """Levenberg-Marquardt with banded Cholesky steps.

    The cost depends only on the rotations, not on their 2 pi branches, so
    x is kept canonical: on entry and after every accepted step. Accepted
    steps never increase the cost. A damped normal matrix that is not
    positive definite counts as a rejected step: lambda grows and the step
    is retried. Returns (MouseStateTrack, SolveReport). The report's status
    names the exit: 'gradient' (max |J^T r| below GRADIENT_TOLERANCE),
    'cost' (relative cost decrease below COST_TOLERANCE), 'no_descent'
    (lambda passed 1e12 without a downhill step) or 'max_iterations'; only
    the first two count as converged. The last accepted iterate is returned
    in every case.
    """
    x = _canonical(track.poses.ravel())
    r = problem.residuals(x)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise NonFiniteCost("initial cost is not finite")
    initial_cost = cost
    lam = INITIAL_LAMBDA
    status = "max_iterations"
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        N, g = problem.normal_equations(x)
        if np.max(np.abs(g)) < GRADIENT_TOLERANCE:
            status = "gradient"
            break
        scale = np.maximum(N[0], 1e-12)
        while True:
            damped = N.copy()
            damped[0] += lam * scale
            try:
                factor = scipy.linalg.cholesky_banded(damped, lower=True)
            except np.linalg.LinAlgError:
                pass    # not positive definite: handled as a rejected step
            else:
                x_new = x + scipy.linalg.cho_solve_banded((factor, True), -g)
                r_new = problem.residuals(x_new)
                cost_new = float(r_new @ r_new)
                if not np.isfinite(cost_new):
                    raise NonFiniteCost(f"cost non-finite at iteration {it}")
                if cost_new < cost:
                    rel = (cost - cost_new) / max(cost, 1e-300)
                    x, r, cost = _canonical(x_new), r_new, cost_new
                    lam = max(lam / LAMBDA_DOWN, 1e-12)
                    if rel < COST_TOLERANCE:
                        status = "cost"
                    break
            lam *= LAMBDA_UP
            if lam > 1e12:
                # no downhill step exists at numerical precision
                status = "no_descent"
                break
        if status != "max_iterations":
            break

    # r holds the residuals at the final x
    rp_rms, sm_rms, per_epoch = problem._rms(r)
    report = SolveReport(initial_cost=initial_cost, final_cost=cost,
                         iterations=it,
                         converged=status in ("gradient", "cost"),
                         status=status,
                         reprojection_rms_px=rp_rms, smoothness_rms_mm=sm_rms)
    return (MouseStateTrack(x.reshape(-1, 6), ["adjusted"] * problem.n_epochs,
                            per_epoch), report)


def check_jacobian(problem: Problem, track: MouseStateTrack, step=1e-6):
    """Worst relative deviation between the analytic Jacobian and central
    finite differences over all pose parameters."""
    x = track.poses.ravel()
    J = problem.jacobian(x).toarray()
    J_fd = np.zeros_like(J)
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J_fd[:, j] = (problem.residuals(xp) - problem.residuals(xm)) / (2 * step)
    scale = max(np.abs(J).max(), 1.0)
    return float(np.abs(J - J_fd).max() / scale)


# ---------------------------------------------------------------------------
# High-level solve and track IO
# ---------------------------------------------------------------------------

def solve_dataset(dataset, cameras=None, mode="rigid", deform_model=None,
                  stochastic: StochasticConfig | None = None):
    """Initialize and solve a dataset end to end.

    In deformed mode the offset prediction and the pose solve alternate for
    two rounds (offsets held fixed within each LM solve); one round gives a
    higher part RMSE on gait recordings.
    """
    cameras = cameras if cameras is not None else dataset.cameras
    stochastic = stochastic or StochasticConfig()
    init = initialize(dataset, cameras)
    if mode == "rigid":
        problem = build_problem(dataset, cameras, stochastic=stochastic)
        track, report = solve(problem, init)
    elif mode == "deformed":
        if deform_model is None:
            raise ValueError("deformed mode requires a trained deform_model")
        track = init
        for _ in range(2):
            problem = build_problem(dataset, cameras, track=track,
                                    deform_model=deform_model,
                                    stochastic=stochastic)
            track, report = solve(problem, track)
    else:
        raise ValueError(f"unknown mode '{mode}'")
    # provenance: epochs with no observations are never constrained, and
    # without smoothness coupling the locally deficient ones stay guesses
    guess = ~dataset.visible.any(axis=(1, 2))
    if stochastic.smoothness_weight == 0:
        guess |= np.array(init.solved_from) == "interpolated"
    track.solved_from = np.where(guess, "interpolated",
                                 track.solved_from).tolist()
    return track, report


def save_track(track: MouseStateTrack, path):
    """Write a track as a JSON list of epoch records."""
    columns = {"rodrigues": track.poses[:, :3].tolist(),
               "translation_mm": track.poses[:, 3:].tolist(),
               "solved_from": track.solved_from}
    if track.residual_rms is not None:
        columns["residual_rms"] = track.residual_rms.tolist()
    records = [{"t": t, **dict(zip(columns, rec))}
               for t, rec in enumerate(zip(*columns.values()))]
    with open(path, "w") as f:
        f.write(json.dumps(records, sort_keys=True, separators=(",", ":")))


def load_track(path) -> MouseStateTrack:
    """Track written by `save_track`. Records must hold epochs 0..T-1 once
    each, in any order; anything else raises SchemaError."""
    records = read_json(path, "track")
    if not records:
        raise SchemaError("track file must be a non-empty JSON list of "
                          "epoch records")
    params = geometry.pose_table(records)
    flags, rms = [None] * len(records), np.zeros(len(records))
    for rec in records:
        t = rec["t"]
        flags[t] = rec.get("solved_from", "adjusted")
        if flags[t] not in SOLVED_FROM:
            raise SchemaError(f"pose t = {t}: 'solved_from' must be one of "
                              f"{', '.join(SOLVED_FROM)}")
        rms[t] = numbers(rec.get("residual_rms", 0.0), (),
                         f"pose t = {t}: 'residual_rms'")
    return MouseStateTrack(params, flags, rms)
