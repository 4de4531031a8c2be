"""Global nonlinear least-squares estimation of the per-epoch 6-DoF body
trajectory from all cameras and epochs.

The cost combines per-observation reprojection residuals of the body parts
with per-epoch motion-track smoothness residuals. Every epoch's parts are the
rigid model plus model-frame offsets: zero in rigid mode, predicted by
`deform_predictor` in deformed mode, so both modes build one `Problem` and
run one solve loop. The smoothness residuals are the exact four-weighted-point
equivalent of the comparison grid's displacements that `track_constraint`
defines (see `Problem`); they interpolate window nodes re-expressed on the
rotation branch nearest each epoch's canonical rotation vector, so they do
not depend on 2 pi branches.
Unknowns are six pose parameters per epoch, with every rotation vector kept
canonical (angle at most pi) by the solver; the smoothness window couples five
consecutive epochs, so the normal matrix is banded with half-bandwidth 29
(6 * 4 + 5). Levenberg-Marquardt accumulates it straight into banded
storage, and solves each damped step by banded Cholesky: the reprojection
terms, evaluated on the dense (epoch, part, camera) grid, enter their
epoch's 6x6 block in one product over its grid rows, and the smoothness
terms come from one 12 x 30 Jacobian per epoch, over the five epochs of its
window. Each linearization reuses the forward pass of the cost evaluation at
the same point, rotation matrices included, and forms its Jacobians one
chunk of CHUNK_EPOCHS consecutive epochs at a time: beyond that forward
pass, only the normal matrix's blocks and band, the per-epoch reprojection
products and the gradient grow with the recording's length, and they are
bit-identical at any chunk length. The Jacobian has one layout, rows over
five consecutive epochs (`Problem.jacobian`), checked in 30 colours.
Each stage of a solve is a function of the values it reads, and
`solve_dataset` runs them in order: `triangulate_parts` once, `initialize`
from its parts, then rounds of `predict_offsets` (deformed mode),
`build_problem` and `solve`. Camera poses are fixed throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import deform_predictor, geometry, mouse_model, track_constraint
from .errors import (
    InconsistentCameraIds,
    NonFiniteCost,
    NoSolvableEpoch,
    SchemaError,
    check_cells,
    check_object,
    check_version,
    decode_block,
    encode_block,
    is_int,
    read_json,
)

# Levenberg-Marquardt settings
MAX_ITERATIONS = 100
COST_TOLERANCE = 1e-10       # relative cost decrease
# round 1 of a deformed solve stops here: only the second offset prediction
# reads its poses, through triangulated parts about 0.5 mm off, and round 2
# solves to COST_TOLERANCE from them
ROUND_1_TOLERANCE = 1e-3
GRADIENT_TOLERANCE = 1e-10
INITIAL_LAMBDA = 1e-6
LAMBDA_UP = 10.0
LAMBDA_DOWN = 10.0

SOLVED_FROM = ("local", "interpolated", "adjusted")

# epochs per chunk of `Problem.normal_equations`: at least 3, so that
# epochs 0 and 1 share the chunk of epoch 2, onto which they are folded
# (`_chunks` merges a last chunk shorter than 3 for T - 2 and T - 1)
CHUNK_EPOCHS = 128

# two-tier observation sigmas (px): pure body-part localization accuracy
# where deformation is modeled (deformed mode), and that accuracy plus
# unmodeled body deformation absorbed as inflated noise (rigid mode)
SIGMA_PX_GEOMETRIC = 0.5
SIGMA_PX_DEFORMATION = 3.0

_EYE3, _EYE6 = np.eye(3), np.eye(6)


@dataclass(frozen=True)
class StochasticConfig:
    """The smoothness weight, which converts grid displacements (mm) into
    residual units."""

    smoothness_weight: float = 1e-3

    def __post_init__(self):
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
    """One LM solve. A deformed `solve_dataset` returns round 2's report,
    with round 1's as `first_round`; every other report has None there."""

    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    status: str
    reprojection_rms_px: float
    smoothness_rms_mm: float
    first_round: SolveReport | None = None


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


def triangulate_parts(dataset, cameras):
    """Linear triangulation of every (epoch, part) of a (T, K, P) `visible`:
    ((T, P, 3) global positions, (T, P) mask of parts seen by >= 2 cameras
    and triangulated). A solve triangulates once; `initialize` and
    `predict_offsets` read the pair."""
    cameras = _dataset_cameras(dataset, cameras)
    T, K, P = dataset.visible.shape
    visible = dataset.visible.transpose(0, 2, 1).reshape(T * P, K)
    pixels = dataset.observations.transpose(0, 2, 1, 3).reshape(T * P, K, 2)
    X, ok = geometry.triangulate_batch(cameras, pixels, visible)
    return X.reshape(T, P, 3), ok.reshape(T, P)


def initialize(parts) -> MouseStateTrack:
    """Per-epoch initialization from the triangulated parts, the
    ((T, P, 3) positions, (T, P) mask) pair of `triangulate_parts`.

    Epochs with at least three triangulated parts get a closed-form rigid
    fit of the model (no three model parts are collinear). Remaining epochs
    are linearly interpolated between solved neighbors i < j (nearest
    solved state at the track ends): the rotation vector between canonical
    r_i and r_j re-expressed on the 2 pi branch nearest r_i, so that every
    solved epoch keeps its canonical vector.
    """
    world, have = parts
    T = len(have)
    solved = np.flatnonzero(have.sum(axis=1) >= 3)
    if not solved.size:
        raise NoSolvableEpoch("no epoch has enough triangulated parts for a local fit")
    R, t = fit_rigid(mouse_model.COORDS, world[solved], have[solved])

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

def _chunks(n_epochs):
    """(lo, hi) epoch ranges of `normal_equations`' chunks, in order: runs
    of CHUNK_EPOCHS consecutive epochs, the last one merged into the one
    before it when it is shorter than 3."""
    starts = list(range(0, n_epochs, CHUNK_EPOCHS))
    if len(starts) > 1 and n_epochs - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_epochs]))


class _Forward(NamedTuple):
    """One forward pass of a `Problem` at x: what its residuals and its
    linearization share, the rotation matrices that `_rotation_derivatives`
    differentiates included. Grid arrays are over (epoch, part, camera)."""

    R: np.ndarray         # (T, 3, 3) epoch rotations
    S: np.ndarray         # (T, 6) interpolated poses
    branch: np.ndarray    # (T, 5) branch factors of the window slots
    RS: np.ndarray        # (T, 3, 3) rotations of S
    proj: np.ndarray      # (T, P, K, 2) pixels
    z: np.ndarray         # (T, P, K) divisors of `geometry.dehomogenize`
    r_p: np.ndarray       # (T, P, K, 2) weighted reprojection residuals
    r_s: np.ndarray       # (T, 4, 3) smoothness residuals


class Problem:
    """Stacked residual system over all epochs.

    The observations have one layout, the dense (epoch, part, camera) grid
    of all T x P x K entries of a (T, K, P) `visible`; `n_obs` counts the
    visible ones. Reprojection blocks: one per grid entry, residual
    (projected - observed) / sigma where visible and 0 where not, wherever
    the point projects. Smoothness blocks: one per epoch, smoothness_weight
    times the world displacements H g - S g of the body's comparison grid
    between the epoch's pose H and the cubic recombination S of its window
    neighbors. The residual vector is the (T, P, K, 2) reprojection grid,
    then the (T, 4, 3) smoothness blocks, each flattened in C order.

    The windows, their weights and the rotation-branch rule of the cubic
    are `track_constraint`'s (`window_slots`, `interpolate`), so the cost
    depends only on the rotations, not on how x writes them. Each epoch's
    smoothness block is the 12 residuals
    smoothness_weight * ((R_H - R_S) p_j + s_j (t_H - t_S)) of the four
    weighted points (p_j, s_j) of `track_constraint.grid_factor` of
    `track_constraint.body_grid`, which have the grid's sum of squares. A
    translation of the world origin adds the same vector to t_H and t_S,
    so it leaves them unchanged.

    The smoothness residual of epoch t depends on the poses of the five
    consecutive epochs from `win_start[t]`, the slots of its window (t
    itself and its four nodes), so J^T J is banded with half-bandwidth
    `bandwidth` = 29 (a track has at least five epochs).
    `_smooth_jacobian` forms that Jacobian over the five slots for a range
    of epochs. A reprojection residual depends on its own epoch's pose
    only, so every row of J lies within five consecutive epochs: the
    windowed rows of `jacobian`, which `normal_equations` forms chunk by
    chunk.

    `residuals` keeps its forward pass, and `normal_equations` at a
    bit-equal x linearizes on it instead of repeating it, as
    Levenberg-Marquardt does at its start point and after every accepted
    step. So a Problem is not to be shared across threads.
    """

    bandwidth = 29

    def __init__(self, dataset, cameras, model_points, stochastic, sigma_px):
        self.stochastic = stochastic
        self.sigma_px = float(sigma_px)

        cams = _dataset_cameras(dataset, cameras)
        # q = K (R_c X + t_c) = (K R_c) X + K t_c; for world points X (n, 3),
        # X @ KR_cols + Kt holds every camera's q as (n, K * 3)
        self.cam_KR = np.stack([c.calibration @ c.pose_global.rotation
                                for c in cams])
        self._KR_cols = self.cam_KR.transpose(2, 0, 1).reshape(3, -1)
        self._Kt = np.concatenate([c.calibration @ c.pose_global.translation
                                   for c in cams])

        # the (epoch, part, camera) grid: weight 1 / sigma and the pixels
        # where visible, 0 where not
        visible = dataset.visible.transpose(0, 2, 1)
        self._weight = np.where(visible, 1.0 / self.sigma_px, 0.0)
        self._px = np.where(visible[..., None],
                            dataset.observations.transpose(0, 2, 1, 3), 0.0)
        self._n_visible = visible.sum(axis=(1, 2))      # per epoch
        # (T, P, 3) model-frame part positions of every epoch: the rigid
        # coordinates plus the epoch's offsets, which are zero in rigid mode
        # (a (P, 3) array is read as the same points at every epoch)
        T = self.n_epochs = len(visible)
        self.model_pts = np.broadcast_to(
            np.asarray(model_points, dtype=float), (*visible.shape[:2], 3))

        # smoothness windows: each epoch's five consecutive slot epochs
        # from win_start, and the slots' cubic weights (T, 5)
        self.win_start, self.slot_weights = track_constraint.window_slots(T)
        self._slots = self.win_start[:, None] + np.arange(5)
        self._own_slot = np.arange(T) - self.win_start
        # the two first and two last epochs' smoothness terms are folded
        # onto epochs 2 and T - 3, in this order (`normal_equations`)
        self._folds = ((2, 0), (2, 1), (T - 3, T - 2), (T - 3, T - 1))
        # the four weighted points (p_j, s_j) equivalent to the body grid
        grid = track_constraint.body_grid()
        rq = track_constraint.grid_factor(grid)
        self.smooth_p, self.smooth_s = rq[:, :3], rq[:, 3]
        self._n_disp = 3 * len(grid) * T     # grid displacement components
        self._s_eye = self.smooth_s[:, None, None] * _EYE3
        self.n_obs = int(self._n_visible.sum())
        self.n_residuals = 2 * self._weight.size + 12 * T
        self.n_params = 6 * T
        self._last = (None, None)       # (x bytes, its _Forward)

    # -- residuals ----------------------------------------------------------

    def residuals(self, x):
        f = self._forward(np.asarray(x, dtype=float).reshape(self.n_epochs, 6))
        return np.concatenate([f.r_p.ravel(), f.r_s.ravel()])

    def _forward(self, x):
        """The `_Forward` at x (T, 6), kept for `_state`. Every camera
        projects the (epoch, part) world points in one product."""
        S, branch = self._interpolated(x)
        R, RS = geometry.rodrigues_to_matrix(np.stack([x[:, :3], S[:, :3]]))
        world = self.model_pts @ R.transpose(0, 2, 1) + x[:, None, 3:]
        q = (world.reshape(-1, 3) @ self._KR_cols + self._Kt).reshape(
            *world.shape[:2], -1, 3)
        proj, z = geometry.dehomogenize(q)
        r_p = (proj - self._px) * self._weight[..., None]
        f = _Forward(R, S, branch, RS, proj, z, r_p,
                     self._smooth_forward(x, S, R, RS))
        self._last = (x.tobytes(), f)
        return f

    def _state(self, x):
        """The `_Forward` at x (T, 6): the last pass's if it was at a
        bit-equal x, else a new one."""
        key, f = self._last
        return f if key == x.tobytes() else self._forward(x)

    def _interpolated(self, x):
        """Cubic recombination S (T, 6) of each epoch's window nodes, on the
        branch nearest the epoch's canonical vector, and the window slots'
        branch factors s (T, 5) (`track_constraint.interpolate`)."""
        return track_constraint.interpolate(
            x, self._slots, self.slot_weights,
            geometry.canonical_rodrigues(x[:, :3]))

    def _smooth_forward(self, x, S, RH, RS):
        """Smoothness residuals (T, 4, 3), the weighted world displacements
        (R_H - R_S) p_j + s_j (t_H - t_S) of the four points, for epoch poses
        x (T, 6) with rotations R_H and interpolated poses S with rotations
        R_S."""
        res = (self.smooth_p @ (RH - RS).transpose(0, 2, 1)
               + self.smooth_s[:, None] * (x[:, None, 3:] - S[:, None, 3:]))
        return self.stochastic.smoothness_weight * res

    # -- analytic Jacobian ----------------------------------------------------

    def _rotation_derivatives(self, x, f, lo, hi):
        """Derivatives (dRH, dRS), each (n, 3, 3, 3), of the epoch rotations
        and the interpolated ones of epochs lo..hi-1 (n = hi - lo), for the
        `_Forward` f at x (T, 6): one `rotation_derivatives` call on the
        matrices f already holds.

        Every Jacobian row depends on its own epoch's data alone, so the
        rows that these and `_smooth_jacobian` and `_reprojection_jacobian`
        give for a range of epochs equal those of the whole track, bit for
        bit.
        """
        n = hi - lo
        dR = geometry.rotation_derivatives(
            np.concatenate([x[lo:hi, :3], f.S[lo:hi, :3]]),
            np.concatenate([f.R[lo:hi], f.RS[lo:hi]]))
        return dR[:n], dR[n:]

    def _reprojection_jacobian(self, f, dRH, lo, hi):
        """J_p (n, P, 2K, 6) of epochs lo..hi-1, for the `_Forward` f and the
        derivatives dRH of those epochs' rotations: rows 2k and 2k + 1 of
        J_p[t - lo, i] are d r_p[t, i, k] / d x[t], zero where the grid entry
        is invisible.

        They are J_w [J_rot | I], with J_w the derivative of the entry's
        weighted residual by the world point X_ti = R_t m_ti + t_t and
        J_rot = d(R_t m_ti)/dr_t.
        """
        n, P = hi - lo, self.model_pts.shape[1]
        # d(proj)/d(world): (u, v) = (q0, q1) / z, q = K R_c world + K t_c
        KR = self.cam_KR
        J_w = ((KR[:, :2, :] - f.proj[lo:hi, ..., None] * KR[:, 2:3, :])
               * (self._weight[lo:hi] / f.z[lo:hi])[..., None, None])
        L = np.empty((n, P, 3, 6))
        L[..., :3] = (dRH.reshape(n, 9, 3)
                      @ np.swapaxes(self.model_pts[lo:hi], -1, -2)
                      ).reshape(n, 3, 3, P).transpose(0, 3, 2, 1)
        L[..., 3:] = _EYE3
        return J_w.reshape(n, P, -1, 3) @ L

    def _smooth_jacobian(self, x, f, dRH, dRS, lo, hi):
        """Jacobian J_s (n, 12, 30) of the smoothness residuals of epochs
        lo..hi-1 at x (T, 6), for the `_Forward` f at x and the derivatives
        dRH and dRS of those epochs' own and interpolated rotations.

        Columns 6a to 6a + 5 of J_s[t - lo] are d r_s[t] / d x[win_start[t] + a]
        for the five slots a of epoch t's window. J_s[t] = [A_t | B_t] M_t:
        A_t and B_t are d r_s[t] / d x[t] and d r_s[t] / d S[t], where S[t]
        is the interpolated pose, and M_t = d(x[t], S[t]) / d(slot poses)
        holds I on t's own slot for x[t], and w_ta D_ta (rotation) and
        w_ta I (translation) on every slot a for S[t]. w_ta is
        `slot_weights` (0 on t's own slot) and D_ta the slot's branch map
        (`track_constraint.branch_maps` of the branch factors f.branch,
        exactly the identity where they are 1).
        """
        n = hi - lo
        p = self.smooth_p
        C = np.empty((n, 4, 3, 12))
        # d r_j / d(r_H, t_H, r_S, t_S) = [dR_H p_j | s_j I | -dR_S p_j | -s_j I]
        C[..., 0:3] = (p @ dRH.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)
        C[..., 3:6] = self._s_eye
        C[..., 6:9] = -(p @ dRS.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)
        C[..., 9:12] = -self._s_eye
        C *= self.stochastic.smoothness_weight
        w = self.slot_weights[lo:hi]
        M = np.zeros((n, 12, 5, 6))
        M[np.arange(n), :6, self._own_slot[lo:hi]] = _EYE6
        M[:, 6:9, :, :3] = (w[..., None, None] * track_constraint.branch_maps(
            x[self._slots[lo:hi], :3], f.branch[lo:hi])).transpose(0, 2, 1, 3)
        M[:, 9:, :, 3:] = w[:, None, :, None] * _EYE3[:, None]
        return C.reshape(n, 12, 12) @ M.reshape(n, 12, 30)

    def jacobian(self, x):
        """(J, first): the Jacobian at x in windowed rows, in the order of
        `residuals`. Columns 6a..6a+5 of row i of J (n_residuals, 30) are
        its derivatives by x[first[i] + a]; all others are zero. A
        reprojection row fills only its epoch's slot in that epoch's window,
        and is zero for an invisible grid entry. Formed from the same
        per-range factors as `normal_equations`, over all epochs at once;
        the solver never forms it."""
        x = np.asarray(x, dtype=float).reshape(self.n_epochs, 6)
        T = self.n_epochs
        f = self._state(x)
        dRH, dRS = self._rotation_derivatives(x, f, 0, T)
        rows = self._reprojection_jacobian(f, dRH, 0, T).reshape(T, -1, 6)
        J_p = np.zeros((T, rows.shape[1], 5, 6))
        J_p[np.arange(T), :, self._own_slot] = rows
        J_s = self._smooth_jacobian(x, f, dRH, dRS, 0, T)
        first = np.concatenate([np.repeat(self.win_start, rows.shape[1]),
                                np.repeat(self.win_start, 12)])
        return np.concatenate([J_p.reshape(-1, 30), J_s.reshape(-1, 30)]), first

    def normal_equations(self, x):
        """J^T J in lower banded storage and J^T r at x.

        Returns (N, g): N has shape (bandwidth + 1, n_params) with
        N[i - j, j] = (J^T J)[i, j] for i >= j (the layout of
        scipy.linalg.cholesky_banded with lower=True), g = J^T r.

        Epoch t's smoothness residuals add their slot products to the
        blocks of the five epochs of their window (`_add_smoothness`). A
        reprojection residual depends on its own epoch's pose only, so its
        terms fill the diagonal blocks (Triggs et al., "Bundle Adjustment -
        A Modern Synthesis", 2000, sec. 6): with J_p[t] the epoch's 2PK grid
        rows of `_reprojection_jacobian`, J_p[t]^T J_p[t] and
        J_p[t]^T r_p[t] are one batched product each, and invisible entries
        add zeros. The band is written from the (T, 5, 6, 6) blocks by one
        strided copy per column offset q within an epoch.

        The products are formed one chunk of CHUNK_EPOCHS consecutive epochs
        at a time, from the last chunk to the first, and each chunk's
        Jacobians are freed before the next chunk's: only the blocks, the
        (T, 6, 6) and (T, 6) reprojection products, g and N grow with T.
        Block row j takes its smoothness terms from epochs j + 2 down to
        j - 2, whatever the chunking, and its reprojection terms last, after
        the chunk loop, so N and g are the same, bit for bit, at every
        chunk length.
        """
        x = np.asarray(x, dtype=float).reshape(self.n_epochs, 6)
        f = self._state(x)
        T = self.n_epochs
        blocks, g = np.zeros((T, 5, 6, 6)), np.zeros((T, 6))
        JtJ, Jtr = np.empty((T, 6, 6)), np.empty((T, 6))
        for lo, hi in reversed(_chunks(T)):
            dRH, dRS = self._rotation_derivatives(x, f, lo, hi)
            self._add_smoothness(x, f, dRH, dRS, lo, hi, blocks, g)
            # reprojection: each epoch's 2PK grid rows in one product
            J_p = self._reprojection_jacobian(f, dRH, lo, hi).reshape(
                hi - lo, -1, 6)
            JtJ[lo:hi] = J_p.transpose(0, 2, 1) @ J_p
            Jtr[lo:hi] = (f.r_p[lo:hi].reshape(hi - lo, 1, -1) @ J_p)[:, 0]
        blocks[:, 0] += JtJ
        g += Jtr
        # entry (q, p) of block [j, d] is (J^T J)[6(j + d) + p, 6j + q], at
        # N[6d + p - q, 6j + q]. Column q of each epoch takes its 30 (d, p)
        # entries in order from row -q: six rows above N hold the p < q
        # entries of the diagonal blocks, which the band leaves out
        N = np.zeros((self.bandwidth + 7, self.n_params))
        for q in range(6):
            N[6 - q:36 - q, q::6].reshape(5, 6, T)[...] = \
                blocks[:, :, q].transpose(1, 2, 0)
        return N[6:], g.ravel()

    def _add_smoothness(self, x, f, dRH, dRS, lo, hi, blocks, g):
        """Add the smoothness terms of epochs lo..hi-1, with the derivatives
        dRH and dRS of their own and interpolated rotations, to
        `normal_equations`' blocks and g; blocks[j, d] is the block of J^T J
        with the rows of epoch j and the columns of epoch j + d.

        With J_ta the columns of slot a in J_s[t], epoch t adds J_tb^T J_ta
        to the block of slot epochs win_start[t] + b and win_start[t] + a,
        for its 15 slot pairs b <= a, and J_ta^T r_s[t] to slot epoch a's
        gradient. Epochs 0, 1 and T - 2, T - 1 share the window start of
        epochs 2 and T - 3, so their terms are folded onto those first (they
        lie in one chunk, `_chunks`); then epochs 2..T-3 map onto the window
        starts 0..T-5 one to one, by slices.
        """
        T = self.n_epochs
        J_s = self._smooth_jacobian(x, f, dRH, dRS, lo, hi)
        folds = [(i - lo, j - lo) for i, j in self._folds if lo <= j < hi]
        # the chunk's epochs among 2..T-3 are rows first..end - 1 of its
        # arrays, and their window starts are start..stop - 1
        first, end = max(lo, 2) - lo, min(hi, T - 2) - lo
        start, stop = lo + first - 2, lo + end - 2
        for a in range(5):
            # slots b = 0..a against slot a, stacked over b
            P = (J_s[:, :, :6 * a + 6].transpose(0, 2, 1)
                 @ J_s[:, :, 6 * a:6 * a + 6])
            for i, j in folds:
                P[i] += P[j]
            for b in range(a + 1):
                blocks[start + b:stop + b, a - b] += \
                    P[first:end, 6 * b:6 * b + 6]
        gs = (f.r_s[lo:hi].reshape(-1, 1, 12) @ J_s).reshape(-1, 5, 6)
        for i, j in folds:
            gs[i] += gs[j]
        for a in range(5):
            g[start + a:stop + a] += gs[first:end, a]

    def _rms(self, r):
        """(reprojection RMS in px, smoothness RMS in mm, (T,) per-epoch
        reprojection RMS in px) of the residual vector r, over the visible
        pixel components and, per epoch, its visible observations' squared
        pixel distances (0 without any). The smoothness RMS is over the
        3 x 27 grid displacement components of every epoch, which the four
        weighted points reproduce in sum of squares."""
        n = 2 * self._weight.size
        sq = ((r[:n] * self.sigma_px) ** 2).reshape(self.n_epochs, -1).sum(1)
        w_s = self.stochastic.smoothness_weight
        sm = r[n:] / w_s if w_s > 0 else np.zeros(1)
        return (float(np.sqrt(sq.sum() / max(2 * self.n_obs, 1))),
                float(np.sqrt((sm @ sm) / self._n_disp)),
                np.sqrt(sq / np.maximum(self._n_visible, 1)))


def build_problem(dataset, cameras, offsets=None,
                  stochastic: StochasticConfig | None = None) -> Problem:
    """Assemble the residual system for a dataset.

    Without offsets (rigid mode) the model points are the rigid model at
    every epoch, and every reprojection block is weighted by
    SIGMA_PX_DEFORMATION (body deformation treated as noise). Given (T, P, 3)
    model-frame offsets (deformed mode, from `predict_offsets`), the model
    points are the rigid model plus each epoch's offsets, and blocks use
    SIGMA_PX_GEOMETRIC.
    """
    stochastic = stochastic or StochasticConfig()
    if offsets is None:
        return Problem(dataset, cameras, mouse_model.COORDS, stochastic,
                       SIGMA_PX_DEFORMATION)
    return Problem(dataset, cameras, mouse_model.COORDS + offsets, stochastic,
                   SIGMA_PX_GEOMETRIC)


def predict_offsets(dataset, cameras, track: MouseStateTrack, model, *,
                    parts=None):
    """Per-epoch model-frame deformation offsets predicted from observations.

    Parts visible in >= 2 cameras are triangulated (`parts`, computed here
    when not given, as when a saved track is scored), mapped into the model
    frame via the current pose estimates and taken as offsets from the rigid
    model; the recording's token windows of these offsets feed the sequence
    model in one batch.
    Epochs whose window does not fit inside the track get zero offsets.
    """
    n = deform_predictor.WINDOW
    world, have = (parts if parts is not None
                   else triangulate_parts(dataset, cameras))
    x = track.poses
    R = geometry.rodrigues_to_matrix(x[:, :3])
    # R^T (X - t) - m: the triangulated parts' model-frame offsets
    est = (world - x[:, None, 3:]) @ R - mouse_model.COORDS

    offsets = np.zeros_like(est)
    if len(est) > 2 * n:
        offsets[n:len(est) - n] = model.predict(
            *deform_predictor.token_windows(est, ~have, n))
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


def _damped_step(N, g, damping):
    """The LM step -(N + diag(damping))^-1 g for the lower band N, or None
    when the damped matrix is not positive definite.

    The damped band is one Fortran-order copy of N, which LAPACK's banded
    Cholesky (dpbtrf) factors in place and the solve reads as it is, so a
    trial holds one band beyond N; it is freed on return."""
    import scipy.linalg   # slow to import; only the banded steps use it
    damped = np.array(N, order="F")
    damped[0] += damping
    try:
        factor = scipy.linalg.cholesky_banded(damped, overwrite_ab=True,
                                              lower=True)
    except np.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve_banded((factor, True), -g)


def solve(problem: Problem, track: MouseStateTrack, *,
          tolerance=COST_TOLERANCE):
    """Levenberg-Marquardt with banded Cholesky steps.

    The cost depends only on the rotations, not on their 2 pi branches, so
    x is kept canonical: on entry and after every accepted step. Accepted
    steps never increase the cost. A damped normal matrix that is not
    positive definite counts as a rejected step: lambda grows and the step
    is retried. Returns (MouseStateTrack, SolveReport). The report's status
    names the exit: 'gradient' (max |J^T r| below GRADIENT_TOLERANCE),
    'cost' (an accepted step's relative cost decrease below `tolerance`,
    COST_TOLERANCE unless the caller stops earlier), 'no_descent'
    (lambda passed 1e12 without a downhill step) or 'max_iterations'; only
    the first two count as converged. The last accepted iterate is returned
    in every case.

    Memory: each trial step holds the band N and one damped copy of it,
    factored in place (`_damped_step`), and frees the copy before the next
    trial. N, g and every trial array are freed before the next
    linearization, so no band of the previous step is alive while
    `normal_equations` allocates the next. That call holds the Jacobians
    and products of one chunk of CHUNK_EPOCHS epochs at a time, so beyond
    the forward pass of `residuals` only its blocks, N and g grow with T.
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
            step = _damped_step(N, g, lam * scale)
            if step is not None:    # None: handled as a rejected step
                x_new = x + step
                r_new = problem.residuals(x_new)
                cost_new = float(r_new @ r_new)
                if not np.isfinite(cost_new):
                    raise NonFiniteCost(f"cost non-finite at iteration {it}")
                if cost_new < cost:
                    rel = (cost - cost_new) / max(cost, 1e-300)
                    x, r, cost = _canonical(x_new), r_new, cost_new
                    lam = max(lam / LAMBDA_DOWN, 1e-12)
                    if rel < tolerance:
                        status = "cost"
                    break
            lam *= LAMBDA_UP
            if lam > 1e12:
                # no downhill step exists at numerical precision
                status = "no_descent"
                break
        if status != "max_iterations":
            break
        # nothing of this step is alive while the next linearization allocates
        del N, g, scale, step, x_new

    # r holds the residuals at the final x
    rp_rms, sm_rms, per_epoch = problem._rms(r)
    report = SolveReport(initial_cost=initial_cost, final_cost=cost,
                         iterations=it,
                         converged=status in ("gradient", "cost"),
                         status=status,
                         reprojection_rms_px=rp_rms, smoothness_rms_mm=sm_rms)
    return (MouseStateTrack(x.reshape(-1, 6), ["adjusted"] * problem.n_epochs,
                            per_epoch), report)


def check_jacobian(problem: Problem, track: MouseStateTrack):
    """Worst relative deviation between the analytic Jacobian and central
    finite differences (step 1e-6), in the 30 colours (epoch mod 5,
    parameter) of Curtis, Powell & Reid, "On the estimation of sparse
    Jacobian matrices", 1974. A row lies within five consecutive epochs,
    so moving parameter p of every epoch a, a + 5, ... at once moves it
    through one column alone: 60 `residuals` calls check every entry at
    any T. At T = 5 each colour is one column."""
    step = 1e-6
    x = track.poses.reshape(-1, 6)
    J, first = problem.jacobian(x)
    worst = 0.0
    for a, p in np.ndindex(5, 6):
        xp, xm = x.copy(), x.copy()
        xp[a::5, p] += step
        xm[a::5, p] -= step
        fd = (problem.residuals(xp) - problem.residuals(xm)) / (2 * step)
        col = 6 * ((a - first) % 5) + p
        worst = max(worst, np.abs(J[np.arange(len(J)), col] - fd).max())
    return float(worst / max(np.abs(J).max(), 1.0))


# ---------------------------------------------------------------------------
# High-level solve and track IO
# ---------------------------------------------------------------------------

def solve_dataset(dataset, cameras=None, mode="rigid", deform_model=None,
                  stochastic: StochasticConfig | None = None):
    """Initialize and solve a dataset end to end: the one place that runs
    the stages in order.

    `triangulate_parts` runs once and `initialize` poses its parts. Each
    round starts from the previous round's track: in deformed mode it
    predicts offsets from the same parts (`predict_offsets`), then it runs
    `build_problem` and `solve`. Rigid mode is one round without offsets (a
    deform_model given with it is not used), solved to COST_TOLERANCE.
    Deformed mode runs two rounds, since one gives a higher part RMSE on
    gait recordings. Round 1 stops at ROUND_1_TOLERANCE: its poses only
    place the triangulated parts, about 0.5 mm off, in the model frame for
    the second prediction, and on the criterion-6 gait scenes the final
    track moves by at most 1.5e-4 rad and 1.4e-3 mm against a round 1
    solved to COST_TOLERANCE. Round 2 solves to COST_TOLERANCE, like rigid
    mode; its report carries round 1's as `first_round`.
    """
    if mode == "rigid":
        deform_model, tolerances = None, (COST_TOLERANCE,)
    elif mode == "deformed":
        if deform_model is None:
            raise ValueError("deformed mode requires a trained deform_model")
        tolerances = (ROUND_1_TOLERANCE, COST_TOLERANCE)
    else:
        raise ValueError(f"unknown mode '{mode}'")
    cameras = cameras if cameras is not None else dataset.cameras
    stochastic = stochastic or StochasticConfig()
    parts = triangulate_parts(dataset, cameras)
    init = initialize(parts)
    track, reports = init, []
    for tolerance in tolerances:
        offsets = (None if deform_model is None else
                   predict_offsets(dataset, cameras, track, deform_model,
                                   parts=parts))
        problem = build_problem(dataset, cameras, offsets, stochastic)
        track, report = solve(problem, track, tolerance=tolerance)
        reports.append(report)
    if len(reports) == 2:
        report.first_round = reports[0]
    # provenance: epochs with no observations are never constrained, and
    # without smoothness coupling the locally deficient ones stay guesses
    guess = ~dataset.visible.any(axis=(1, 2))
    if stochastic.smoothness_weight == 0:
        guess |= np.array(init.solved_from) == "interpolated"
    track.solved_from = np.where(guess, "interpolated",
                                 track.solved_from).tolist()
    return track, report


FORMAT_VERSION = 2


def save_track(track: MouseStateTrack, path):
    """Write a track file (format version 2): one JSON object holding the
    number of epochs `n_epochs` T, the (T, 6) block `poses` (each row a
    Rodrigues vector, then a translation in mm), the list of T
    `solved_from` flags and, when the track has them, the (T,) block
    `residual_rms`. A block is a base64 string of little-endian float64
    values in C order, as in a dataset file. `load_track` reads back every
    value bit for bit."""
    doc = {"format_version": FORMAT_VERSION, "n_epochs": track.n_epochs,
           "poses": encode_block(track.poses),
           "solved_from": track.solved_from}
    if track.residual_rms is not None:
        doc["residual_rms"] = encode_block(track.residual_rms)
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def load_track(path) -> MouseStateTrack:
    """Track written by `save_track`. Anything malformed raises SchemaError
    naming its field:

    - a file without `format_version` 2 (version 1, a JSON list of epoch
      records, is refused by its version);
    - a missing or unknown field (a misspelt `residual_rms` would otherwise
      load as no residual RMS);
    - an `n_epochs` that is not an integer of at least 1;
    - a block that is not a base64 string or does not hold T poses or T
      residual RMS values, or a non-finite value in one;
    - a `solved_from` that is not a list of T flags from SOLVED_FROM."""
    doc = read_json(path, "track")
    check_version(doc, FORMAT_VERSION, "track")
    check_object(doc, ("format_version", "n_epochs", "poses", "solved_from"),
                 ("residual_rms",), "track file")
    T = doc["n_epochs"]
    if not is_int(T) or T < 1:
        raise SchemaError(f"track field 'n_epochs' must be an integer >= 1, "
                          f"got {T!r}")
    poses = decode_block(doc["poses"], (T, 6), "track", "poses")
    check_cells(~np.isfinite(poses), "track", "poses", "must be finite",
                ("t", "column"))
    flags = doc["solved_from"]
    if not isinstance(flags, list) or len(flags) != T:
        raise SchemaError(f"track field 'solved_from' must be a list of {T} "
                          f"flags")
    bad = [t for t, flag in enumerate(flags) if flag not in SOLVED_FROM]
    if bad:
        raise SchemaError(f"track field 'solved_from' must hold only "
                          f"{', '.join(SOLVED_FROM)} (at t = {bad[0]})")
    rms = None
    if "residual_rms" in doc:
        rms = decode_block(doc["residual_rms"], (T,), "track", "residual_rms")
        check_cells(~np.isfinite(rms), "track", "residual_rms",
                    "must be finite", ("t",))
    return MouseStateTrack(poses, flags, rms)
