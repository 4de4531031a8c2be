"""Learned body-part deformation from token sequences.

Each token pairs a body part's rigid model coordinate with its deformable
coordinate (model frame, mm). Windows of tokens over 2n+1 epochs form the
input sequence; the deformable components of the mid epoch are masked and
predicted. The predictor is a small single-layer LSTM trained by
backpropagation through time, with a skip connection: the network outputs
the offset from the rigid coordinate, so prediction = rigid + offset.

Implementation is plain numpy; training is single-threaded and bit-exact
reproducible for a fixed seed and dataset order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import mouse_model
from .errors import (
    DivergedLoss,
    SchemaError,
    UntrainedModel,
    WindowOutOfRange,
    numbers,
    read_json,
)

N_PARTS = 8
DEFAULT_WINDOW = 2  # n; sequence covers 2n+1 epochs
BATCH_SIZE = 64     # training windows per Adam step


@dataclass
class TokenSequence:
    """Token window over 2n+1 epochs and all parts, mid epoch masked.

    rigid, deformable : (2n+1, N_PARTS, 3) model-frame mm
    masked : (2n+1, N_PARTS) bool; True where the deformable component is
        unavailable (mid epoch by construction, elsewhere missing data).
    """

    epochs: np.ndarray
    rigid: np.ndarray
    deformable: np.ndarray
    masked: np.ndarray

    def __post_init__(self):
        self.epochs = np.asarray(self.epochs, dtype=int)
        self.rigid = np.asarray(self.rigid, dtype=float)
        self.deformable = np.asarray(self.deformable, dtype=float)
        self.masked = np.asarray(self.masked, dtype=bool)
        T = len(self.epochs)
        if T % 2 == 0:
            raise ValueError("token window length must be odd")
        mid = T // 2
        if not self.masked[mid].all():
            raise ValueError("mid-epoch deformable components must be masked")

    @property
    def mid(self):
        return len(self.epochs) // 2


def window_tokens(deformable, missing, t, n) -> TokenSequence:
    """Token window over epochs t-n..t+n of a recording.

    deformable : (T, N_PARTS, 3) model-frame deformable coordinates
    missing : (T, N_PARTS) bool, parts whose deformable coordinate is unknown

    Missing parts and the whole mid epoch are masked and carry the rigid
    coordinate.
    """
    T = len(deformable)
    if t - n < 0 or t + n >= T:
        raise WindowOutOfRange(f"window [{t - n}, {t + n}] outside dataset [0, {T - 1}]")
    epochs = np.arange(t - n, t + n + 1)
    rigid = np.broadcast_to(mouse_model.RigidMouseModel().rigid_part_positions(),
                            (2 * n + 1, N_PARTS, 3))
    masked = missing[epochs]
    masked[n, :] = True
    return TokenSequence(epochs, rigid,
                         np.where(masked[:, :, None], rigid, deformable[epochs]),
                         masked)


def _ground_truth(dataset):
    """(deformable, missing) of a simulated dataset for `window_tokens`:
    rigid coordinates plus ground-truth offsets, and parts visible in fewer
    than two cameras (so they could not be triangulated)."""
    rigid = mouse_model.RigidMouseModel().rigid_part_positions()
    return rigid + dataset.deform_offsets, dataset.visible.sum(axis=1) < 2


def build_tokens(dataset, t, n=DEFAULT_WINDOW) -> TokenSequence:
    """Token window centered at epoch t of a simulated dataset, with
    deformable coordinates from its ground-truth offsets."""
    return window_tokens(*_ground_truth(dataset), t, n)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -40, 40)))


@dataclass
class SequenceModel:
    """Single-layer LSTM mapping token windows to masked mid-epoch offsets."""

    hidden_size: int = 48
    window: int = DEFAULT_WINDOW
    weights: dict = field(default_factory=dict)
    pos_mean: np.ndarray | None = None
    pos_std: np.ndarray | None = None
    off_std: np.ndarray | None = None
    trained: bool = False

    @property
    def input_size(self):
        return N_PARTS * 7  # per part: rigid(3) + offset(3) + mask flag

    @property
    def output_size(self):
        return N_PARTS * 3

    def init_weights(self, rng):
        H, D, O = self.hidden_size, self.input_size, self.output_size
        sx = 1.0 / np.sqrt(D)
        sh = 1.0 / np.sqrt(H)
        self.weights = {
            "Wx": rng.uniform(-sx, sx, size=(4 * H, D)),
            "Wh": rng.uniform(-sh, sh, size=(4 * H, H)),
            "b": np.zeros(4 * H),
            "Wo": rng.uniform(-sh, sh, size=(O, H)),
            "bo": np.zeros(O),
        }
        # bias the forget gate open: standard LSTM trick for gradient flow
        self.weights["b"][self.hidden_size:2 * self.hidden_size] = 1.0

    def set_normalization(self, rigid, offsets):
        """Per-coordinate z-score statistics from training arrays."""
        pos = rigid.reshape(-1, 3)
        self.pos_mean = pos.mean(axis=0)
        self.pos_std = np.maximum(pos.std(axis=0), 1e-6)
        off = offsets.reshape(-1, 3)
        self.off_std = np.maximum(off.std(axis=0), 1e-3)

    def features(self, seq: TokenSequence):
        """(T, input_size) normalized feature rows, one per window epoch."""
        rig = (seq.rigid - self.pos_mean) / self.pos_std
        off = (seq.deformable - seq.rigid) / self.off_std
        off = np.where(seq.masked[:, :, None], 0.0, off)
        flag = seq.masked[:, :, None].astype(float)
        return np.concatenate([rig, off, flag], axis=2).reshape(len(seq.epochs), -1)

    def forward(self, X):
        """Batched forward pass; X is (B, T, input_size).

        Returns (outputs (B, output_size), cache for backprop).
        """
        W = self.weights
        B, T, _ = X.shape
        H = self.hidden_size
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        cache = []
        for t in range(T):
            z = X[:, t] @ W["Wx"].T + h @ W["Wh"].T + W["b"]
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = _sigmoid(z[:, 3 * H:])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            cache.append((X[:, t], h, c, i, f, g, o, c_new))
            h, c = h_new, c_new
        y = h @ W["Wo"].T + W["bo"]
        return y, (cache, h)

    def backward(self, dy, state):
        """Gradients of all weights for upstream output gradient dy."""
        W = self.weights
        cache, h_last = state
        H = self.hidden_size
        grads = {k: np.zeros_like(v) for k, v in W.items()}
        grads["Wo"] = dy.T @ h_last
        grads["bo"] = dy.sum(axis=0)
        dh = dy @ W["Wo"]
        dc = np.zeros_like(dh)
        for x_t, h_prev, c_prev, i, f, g, o, c_new in reversed(cache):
            tc = np.tanh(c_new)
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc ** 2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc = dc * f
            dz = np.concatenate([di * i * (1 - i), df * f * (1 - f),
                                 dg * (1 - g ** 2), do * o * (1 - o)], axis=1)
            grads["Wx"] += dz.T @ x_t
            grads["Wh"] += dz.T @ h_prev
            grads["b"] += dz.sum(axis=0)
            dh = dz @ W["Wh"]
        return grads

    def predict(self, seq: TokenSequence):
        """Deformable model-frame coordinates (N_PARTS, 3) for the masked
        mid-epoch parts: rigid coordinate plus predicted offset."""
        return self.predict_many([seq])[0]

    def predict_many(self, seqs):
        """`predict` for equal-length windows in one forward pass;
        returns (len(seqs), N_PARTS, 3)."""
        if not self.trained:
            raise UntrainedModel("model has no trained weights")
        X = np.stack([self.features(seq) for seq in seqs])
        y, _ = self.forward(X)
        off = y.reshape(len(seqs), N_PARTS, 3) * self.off_std
        return np.stack([seq.rigid[seq.mid] for seq in seqs]) + off


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def training_windows(datasets, n=DEFAULT_WINDOW):
    """All sliding-window token sequences plus mid-epoch offset targets."""
    seqs, targets = [], []
    for ds in datasets:
        deformable, missing = _ground_truth(ds)
        for t in range(n, ds.n_epochs - n):
            seqs.append(window_tokens(deformable, missing, t, n))
            targets.append(ds.deform_offsets[t])
    return seqs, np.asarray(targets)


def train(datasets, epochs=200, lr=1e-2, seed=0, hidden_size=48,
          n=DEFAULT_WINDOW, model: SequenceModel | None = None):
    """Train a sequence model on simulated datasets.

    Gradient descent (Adam) on the mean squared error of the masked
    mid-epoch deformable offsets, in normalized units. Deterministic for a
    fixed seed and dataset order.

    Returns (trained model, per-epoch loss curve). Raises ValueError for
    epochs < 1.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if model is None:
        model = SequenceModel(hidden_size=hidden_size, window=n)
    rng = np.random.default_rng(seed)
    if not model.weights:
        model.init_weights(rng)

    seqs, targets = training_windows(datasets, n=n)
    if not seqs:
        raise ValueError("no training windows; datasets too short for the window")
    rigid_all = np.concatenate([s.rigid for s in seqs])
    model.set_normalization(rigid_all, targets)

    X = np.stack([model.features(s) for s in seqs])      # (N, T, D)
    Y = targets.reshape(len(seqs), -1) / np.tile(model.off_std, N_PARTS)

    W = model.weights
    mom = {k: np.zeros_like(v) for k, v in W.items()}
    vel = {k: np.zeros_like(v) for k, v in W.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    losses = []
    N = len(seqs)
    for epoch in range(epochs):
        order = rng.permutation(N)
        epoch_loss = 0.0
        for start in range(0, N, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            y, state = model.forward(X[idx])
            diff = y - Y[idx]
            loss = float((diff ** 2).mean())
            epoch_loss += loss * len(idx)
            dy = 2.0 * diff / diff.size
            grads = model.backward(dy, state)
            step += 1
            for k in W:
                mom[k] = beta1 * mom[k] + (1 - beta1) * grads[k]
                vel[k] = beta2 * vel[k] + (1 - beta2) * grads[k] ** 2
                mh = mom[k] / (1 - beta1 ** step)
                vh = vel[k] / (1 - beta2 ** step)
                W[k] -= lr * mh / (np.sqrt(vh) + eps)
        epoch_loss /= N
        if not np.isfinite(epoch_loss):
            raise DivergedLoss(f"loss became non-finite at epoch {epoch}")
        losses.append(epoch_loss)
    model.trained = True
    return model, np.asarray(losses)


def evaluate_mse(model: SequenceModel, datasets, n=DEFAULT_WINDOW):
    """Mean squared prediction error (mm^2 per coordinate) of the masked
    mid-epoch deformable coordinates, plus the rigid-baseline MSE that
    predicts zero offset."""
    seqs, targets = training_windows(datasets, n=n)
    truth = np.stack([seq.rigid[seq.mid] for seq in seqs]) + targets
    err = ((model.predict_many(seqs) - truth) ** 2).mean(axis=(1, 2))
    base = (targets ** 2).mean(axis=(1, 2))
    return float(err.mean()), float(base.mean())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def save_model(model: SequenceModel, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "hidden_size": model.hidden_size,
        "window": model.window,
        "trained": model.trained,
        "pos_mean": model.pos_mean.tolist(),
        "pos_std": model.pos_std.tolist(),
        "off_std": model.off_std.tolist(),
        "weights": {k: v.tolist() for k, v in model.weights.items()},
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True))


def load_model(path) -> SequenceModel:
    """Model written by `save_model`; every field is checked, and anything
    malformed raises SchemaError."""
    doc = read_json(path, "model")
    if not isinstance(doc, dict):
        raise SchemaError("model file must be a JSON object")
    for key in ("format_version", "hidden_size", "weights", "pos_mean",
                "pos_std", "off_std"):
        if key not in doc:
            raise SchemaError(f"model file missing field '{key}'")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported model format version {doc['format_version']!r}")
    m = SequenceModel()
    for key in ("hidden_size", "window"):
        value = doc.get(key, getattr(m, key))
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SchemaError(f"model field '{key}' must be an integer >= 1")
        setattr(m, key, value)
    if not isinstance(doc.get("trained", True), bool):
        raise SchemaError("model field 'trained' must be true or false")
    m.trained = doc.get("trained", True)
    m.pos_mean = numbers(doc["pos_mean"], (3,), "model field 'pos_mean'")
    for key in ("pos_std", "off_std"):
        std = numbers(doc[key], (3,), f"model field '{key}'")
        if not np.all(std > 0):
            raise SchemaError(f"model field '{key}' must be positive")
        setattr(m, key, std)
    H, D, O = m.hidden_size, m.input_size, m.output_size
    shapes = {"Wx": (4 * H, D), "Wh": (4 * H, H), "b": (4 * H,),
              "Wo": (O, H), "bo": (O,)}
    weights = doc["weights"]
    if not isinstance(weights, dict) or set(weights) != set(shapes):
        raise SchemaError(f"model field 'weights' must hold exactly "
                          f"{', '.join(shapes)}")
    m.weights = {k: numbers(weights[k], shape, f"model weight '{k}'")
                 for k, shape in shapes.items()}
    return m
