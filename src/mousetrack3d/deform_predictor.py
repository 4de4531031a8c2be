"""Learned body-part deformation from token windows.

A token is one body part at one epoch: its model-frame offset from the rigid
model coordinate (mm) and a mask flag. A window covers the 2n+1 epochs
around a centre epoch (n = `WINDOW`); the mid epoch's parts are masked and
their offsets predicted. `token_windows` cuts every window of a recording
with one fancy index into (W, 2n+1, P, 3) offsets, 0 where masked, and
(W, 2n+1, P) masks, for the P parts of `mouse_model.COORDS`, which also set
the network's input and output sizes. The network sees offsets divided by
one number, `SequenceModel.offset_scale` (the spread of the training
targets' offset components, in mm), and its outputs are multiplied by the
same number. The predictor is a small single-layer LSTM trained by
backpropagation through time; it outputs offsets, so a zero prediction is
the rigid model.

Implementation is plain numpy; training is single-threaded and bit-exact
reproducible for a fixed seed and dataset order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import mouse_model
from .errors import (DivergedLoss, SchemaError, UntrainedModel, check_object,
                     check_version, is_int, numbers, read_json)

WINDOW = 2          # n; a token window covers the 2n+1 epochs t-n..t+n
BATCH_SIZE = 64     # training windows per Adam step


def token_windows(offsets, missing, n):
    """Token windows over epochs t-n..t+n for every centre t = n..T-n-1 of a
    recording.

    offsets : (T, P, 3) model-frame offsets from the rigid model
    missing : (T, P) bool, parts whose offset is unknown

    Returns (offsets (W, 2n+1, P, 3), masked (W, 2n+1, P)),
    W = max(T - 2n, 0). Missing parts and the whole mid epoch are masked and
    carry 0.
    """
    epochs = np.arange(n, len(offsets) - n)[:, None] + np.arange(-n, n + 1)
    masked = missing[epochs]
    masked[:, n] = True
    return np.where(masked[..., None], 0.0, offsets[epochs]), masked


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -40, 40)))


@dataclass
class SequenceModel:
    """Single-layer LSTM mapping token windows to masked mid-epoch offsets."""

    hidden_size: int = 48
    weights: dict = field(default_factory=dict)
    offset_scale: float | None = None   # mm per network unit, in and out
    trained: bool = False

    @property
    def input_size(self):
        return len(mouse_model.COORDS) * 4  # per part: offset(3) + mask flag

    @property
    def output_size(self):
        return len(mouse_model.COORDS) * 3

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

    def features(self, offsets, masked):
        """(W, 2n+1, input_size) feature rows of token windows, one per
        window epoch: every part's offset in units of `offset_scale` (0
        where masked, as `token_windows` leaves it) and its mask flag."""
        flag = masked[..., None].astype(float)
        return np.concatenate([offsets / self.offset_scale, flag],
                              axis=-1).reshape(*masked.shape[:2], -1)

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

    def predict(self, offsets, masked):
        """Model-frame offsets (W, P, 3) of the masked mid-epoch parts
        of token windows, in one forward pass."""
        if not self.trained:
            raise UntrainedModel("model has no trained weights")
        y, _ = self.forward(self.features(offsets, masked))
        return y.reshape(len(y), -1, 3) * self.offset_scale


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def training_windows(datasets):
    """Every token window of the datasets' ground-truth offsets, masking the
    parts seen by fewer than two cameras (so they could not be
    triangulated), plus its mid-epoch offset target: (offsets (N, 2n+1,
    P, 3), masked (N, 2n+1, P), targets (N, P, 3)), n = WINDOW."""
    n = WINDOW
    windows = [token_windows(ds.deform_offsets, ds.visible.sum(axis=1) < 2, n)
               for ds in datasets]
    return (np.concatenate([w[0] for w in windows]),
            np.concatenate([w[1] for w in windows]),
            np.concatenate([ds.deform_offsets[n:ds.n_epochs - n]
                            for ds in datasets]))


def train(datasets, epochs=150, lr=1e-2, seed=0, hidden_size=48):
    """Train a sequence model on simulated datasets, on windows of
    2 WINDOW + 1 epochs.

    Gradient descent (Adam) on the mean squared error of the masked
    mid-epoch offsets, in units of the model's `offset_scale`:
    the standard deviation of every offset component of the targets, at
    least 1e-3 mm. Deterministic for a fixed seed and dataset order.

    Returns (trained model, per-epoch loss curve). Raises ValueError for
    epochs < 1.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    model = SequenceModel(hidden_size=hidden_size)
    rng = np.random.default_rng(seed)
    model.init_weights(rng)

    offsets, masked, targets = training_windows(datasets)
    N = len(targets)
    if not N:
        raise ValueError("no training windows; datasets too short for the window")
    model.offset_scale = max(float(targets.std()), 1e-3)

    X = model.features(offsets, masked)                   # (N, 2n+1, D)
    Y = targets.reshape(N, -1) / model.offset_scale

    W = model.weights
    mom = {k: np.zeros_like(v) for k, v in W.items()}
    vel = {k: np.zeros_like(v) for k, v in W.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    losses = []
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


def evaluate_mse(model: SequenceModel, datasets):
    """Mean squared prediction error (mm^2 per coordinate) of the masked
    mid-epoch offsets, plus the rigid-baseline MSE that predicts zero
    offset."""
    offsets, masked, targets = training_windows(datasets)
    err = ((model.predict(offsets, masked) - targets) ** 2).mean(axis=(1, 2))
    base = (targets ** 2).mean(axis=(1, 2))
    return float(err.mean()), float(base.mean())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2


def save_model(model: SequenceModel, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "hidden_size": model.hidden_size,
        "trained": model.trained,
        "offset_scale_mm": model.offset_scale,
        "weights": {k: v.tolist() for k, v in model.weights.items()},
    }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True))


def load_model(path) -> SequenceModel:
    """Model written by `save_model`; every field is checked, and a file of
    another format version, a missing or unknown field, a `trained` that is
    not true or anything malformed raises SchemaError."""
    doc = read_json(path, "model")
    check_version(doc, FORMAT_VERSION, "model")
    check_object(doc, ("format_version", "hidden_size", "trained",
                       "offset_scale_mm", "weights"), (), "model file")
    H = doc["hidden_size"]
    if not is_int(H) or H < 1:
        raise SchemaError("model field 'hidden_size' must be an integer >= 1")
    if doc["trained"] is not True:
        raise SchemaError("model field 'trained' must be true: a model "
                          "without trained weights cannot predict")
    scale = numbers(doc["offset_scale_mm"], (), "model field 'offset_scale_mm'")
    if not scale > 0:
        raise SchemaError("model field 'offset_scale_mm' must be positive")
    m = SequenceModel(hidden_size=H, offset_scale=float(scale), trained=True)
    D, O = m.input_size, m.output_size
    shapes = {"Wx": (4 * H, D), "Wh": (4 * H, H), "b": (4 * H,),
              "Wo": (O, H), "bo": (O,)}
    weights = doc["weights"]
    if not isinstance(weights, dict) or set(weights) != set(shapes):
        raise SchemaError(f"model field 'weights' must hold exactly "
                          f"{', '.join(shapes)}")
    m.weights = {k: numbers(weights[k], shape, f"model weight '{k}'")
                 for k, shape in shapes.items()}
    return m
