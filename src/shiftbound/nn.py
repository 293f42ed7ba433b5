"""Minimal feedforward binary classifier: flat weight vectors, backprop,
and deterministic SGD-momentum training with in-memory checkpoints.

Weight vectors are plain 1-D float64 arrays laid out layer by layer,
weight matrix (fan_in x fan_out, row-major) followed by bias. ``forward``
and the gradient share one layer loop, ``_layers``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .samples import LabeledSample
from .seeding import stream_rng

ACTIVATIONS = ("relu", "tanh")

# evenly spaced snapshots over the first epoch, from zero seen samples;
# ``train`` also saves every epoch end
FIRST_EPOCH_CHECKPOINTS = 10


class DivergedError(RuntimeError):
    """Training produced non-finite weights."""


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths from input to the single-logit output, plus the hidden activation."""

    layer_widths: tuple
    activation: str = "relu"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least input and output layers")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be >= 1")
        if widths[-1] != 1:
            raise ValueError("output layer must be a single logit")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_params(self) -> int:
        widths = self.layer_widths
        return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    momentum: float = 0.95
    batch_size: int = 128
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _layer_views(arch: MlpArchitecture, w: np.ndarray):
    """Views of the flat vector as per-layer (W, b) pairs; no copies."""
    widths = arch.layer_widths
    views = []
    pos = 0
    for i in range(len(widths) - 1):
        n_in, n_out = widths[i], widths[i + 1]
        W = w[pos : pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        b = w[pos : pos + n_out]
        pos += n_out
        views.append((W, b))
    return views


def _check_weights(arch: MlpArchitecture, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (arch.num_params,):
        raise ValueError(
            f"weight vector has length {w.shape}, architecture needs {arch.num_params}"
        )
    return w


def init_weights(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Deterministic fan-in-scaled uniform init; biases zero."""
    rng = stream_rng(seed, "init")
    w = np.zeros(arch.num_params)
    for (W, b) in _layer_views(arch, w):
        bound = 1.0 / math.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
        b[...] = 0.0
    return w


def _layer_buffers(arch: MlpArchitecture, n: int) -> list:
    """One (n, width) output buffer per layer."""
    return [np.empty((n, width)) for width in arch.layer_widths[1:]]


def _layers(arch: MlpArchitecture, w: np.ndarray, a: np.ndarray, bufs: list) -> list:
    """Apply the layers of one weight vector to the rows ``a``, writing each
    layer's output into its buffer of ``bufs``: the hidden activations, then
    the logits in the last. Returns ``bufs``."""
    for (W, b), buf in zip(_layer_views(arch, w), bufs):
        np.matmul(a, W, out=buf)
        buf += b
        if buf is not bufs[-1]:
            if arch.activation == "relu":
                np.maximum(buf, 0.0, out=buf)
            else:
                np.tanh(buf, out=buf)
        a = buf
    return bufs


def forward(arch: MlpArchitecture, w, x):
    """Logit(s) of the network at ``x``.

    Accepts a single feature vector (returns a float) or an (n, d) matrix
    (returns an (n,) array). A (k, num_params) weight stack returns (k,) or
    (k, n) logits, equal to stacking per-draw calls: each draw runs alone
    with the same matrix shapes. Pure. Batched rows agree with row-by-row
    calls only up to rounding, since BLAS may reorder a row's sums.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != arch.num_params:
        raise ValueError(
            f"weights have shape {w.shape}, architecture needs {arch.num_params} per draw"
        )
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a0 = np.atleast_2d(x)
    if a0.shape[1] != arch.input_dim:
        raise ValueError(f"input width {a0.shape[1]} != architecture input {arch.input_dim}")
    draws = np.atleast_2d(w)
    bufs = _layer_buffers(arch, len(a0))  # reused by every draw
    logits = np.empty((len(draws), len(a0)))
    for k, wk in enumerate(draws):
        # a copy: the next draw overwrites the logit buffer
        logits[k] = _layers(arch, wk, a0, bufs)[-1][:, 0]
    out = logits[:, 0] if single else logits
    return out if w.ndim == 2 else (float(out[0]) if single else out[0])


def predict(logit):
    """Hard label from a logit: 1 iff logit > 0 (a zero logit maps to 0)."""
    if np.ndim(logit) == 0:
        return int(logit > 0)
    return (np.asarray(logit) > 0).astype(np.int64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    # max(z, 0) + log1p(exp(-|z|)) never overflows for finite z
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def bce_loss(arch: MlpArchitecture, w, data: LabeledSample) -> float:
    """Mean binary cross-entropy of the batch, computed in logit space."""
    _require_binary(data.labels)
    z = forward(arch, w, data.features)
    y = data.labels.astype(np.float64)
    return float(np.mean(_softplus(z) - y * z))


def _require_binary(labels: np.ndarray):
    if labels.size and not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be in {0, 1}")


def _bce_gradient_arrays(arch: MlpArchitecture, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    views = _layer_views(arch, w)
    *hidden, out = _layers(arch, w, X, _layer_buffers(arch, len(X)))
    acts = [X, *hidden]
    z = out[:, 0]

    grad = np.zeros_like(w)
    gviews = _layer_views(arch, grad)
    # mean-BCE gradient in logit space: (sigmoid(z) - y) / n
    delta = ((_sigmoid(z) - y) / X.shape[0])[:, None]
    for i in range(len(views) - 1, -1, -1):
        W, _ = views[i]
        gW, gb = gviews[i]
        gW[...] = acts[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ W.T
            post = acts[i]
            if arch.activation == "relu":
                delta = delta * (post > 0)
            else:
                delta = delta * (1.0 - post * post)
    return grad


def bce_gradient(arch: MlpArchitecture, w, batch: LabeledSample) -> np.ndarray:
    """Gradient of the mean binary cross-entropy over the batch w.r.t. ``w``."""
    w = _check_weights(arch, w)
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    _require_binary(batch.labels)
    return _bce_gradient_arrays(arch, w, batch.features, batch.labels.astype(np.float64))


def train(arch: MlpArchitecture, w0, data: LabeledSample, cfg: TrainConfig):
    """SGD with momentum over ``cfg.epochs`` passes, shuffling each epoch.

    Returns ``(final_weights, checkpoints)`` where checkpoints are
    ``(seen_fraction, weights)`` pairs, seen_fraction being the fraction of
    the total planned sample presentations: ``FIRST_EPOCH_CHECKPOINTS``
    over the first epoch, then one per epoch end. Fully deterministic for a
    fixed (arch, w0, data, cfg).
    """
    w = _check_weights(arch, w0).copy()
    if not np.all(np.isfinite(w)):
        raise ValueError("initial weights contain non-finite values")
    m = len(data)
    if m == 0:
        raise ValueError("training data must be non-empty")
    if data.dim != arch.input_dim:
        raise ValueError("data dimension does not match architecture input")
    _require_binary(data.labels)

    b = cfg.batch_size
    steps_per_epoch = -(-m // b)
    total = cfg.epochs * m

    # first-epoch steps saved besides step 0; the filter keeps an epoch of
    # fewer steps than checkpoints from saving its last step twice
    first_steps = {
        round(k * steps_per_epoch / FIRST_EPOCH_CHECKPOINTS) for k in range(1, FIRST_EPOCH_CHECKPOINTS)
    }
    first_steps = {t for t in first_steps if t < steps_per_epoch}

    checkpoints: list[tuple[float, np.ndarray]] = []

    def snapshot(epoch: int, step: int):
        seen = (epoch - 1) * m + min(step * b, m)
        checkpoints.append((seen / total, w.copy()))

    rng = stream_rng(cfg.seed, "shuffle")
    velocity = np.zeros_like(w)
    X, y = data.features, data.labels.astype(np.float64)
    snapshot(1, 0)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(m)
        for step in range(1, steps_per_epoch + 1):
            idx = order[(step - 1) * b : step * b]
            # divergence is detected explicitly below; silence the overflow noise
            with np.errstate(over="ignore", invalid="ignore"):
                g = _bce_gradient_arrays(arch, w, X[idx], y[idx])
                velocity = cfg.momentum * velocity + g
                w -= cfg.learning_rate * velocity
            if not np.all(np.isfinite(w)):
                raise DivergedError(
                    f"non-finite weights at epoch {epoch}, step {step}; "
                    f"reduce the learning rate"
                )
            if epoch == 1 and step in first_steps:
                snapshot(1, step)
        snapshot(epoch, steps_per_epoch)
    return w, checkpoints

