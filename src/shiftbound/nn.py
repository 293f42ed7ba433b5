"""Minimal ReLU feedforward binary classifier: flat weight vectors,
backprop, and deterministic SGD-momentum training with in-memory
checkpoints.

Weight vectors are plain 1-D float64 arrays laid out layer by layer,
weight matrix (fan_in x fan_out, row-major) followed by bias. Every hidden
layer applies ReLU; the output is one logit. ``forward`` and the gradient
share one layer loop, ``_layers``.

``forward`` computes in the dtype of its weights: float64, or float32 when
given float32 weights. It runs every layer, the output logit included, over
blocks of ``BLOCK_BYTES`` bytes per column (512 float64 or 1,024 float32
rows), so no layer is held at full height; the output layer writes each
block into its rows of the result. A block of rows goes through the same
BLAS product as a 1-thread pass over all rows, which gives each row the same
sums; the tests compare the two bit for bit. The width-1 output layer is a
matrix-vector product, which BLAS rounds per row according to how it splits
the rows across threads; over one block it rounds as the 1-thread pass does,
so the logits do not depend on the BLAS thread count. A 1-row block would
turn a hidden layer's matrix-matrix product into a matrix-vector product, so
a 1-row tail joins the block before it. Each layer's bias is copied to block
height once per draw, so adding it to a block adds two arrays of one shape
rather than broadcasting a row over every block row; the sums are the same.

A hard label reads only the sign of a logit. ``float64_labels`` turns the
logits z32 of a float32 pass into the labels of the float64 pass,
``predict(forward(arch, w, x))``, bit for bit, in three steps:

1. It bounds |z32 - z64| per draw from the weights alone, vectorised over
   the draws. The basis is Higham (2002, *Accuracy and Stability of
   Numerical Algorithms*, §3.1): a computed fl(Σᵢ aᵢwᵢ + b) of K products
   lies within γ_{K+1}(Σ|aᵢ||wᵢ| + |b|) of the exact sum, where
   γₙ = nu/(1 - nu), in any summation order, FMA included. The bound is
   carried through the layers unit by unit (ReLU is 1-Lipschitz), from
   X = max‖x‖∞ over all rows. For each unit, A bounds its float32
   activation, and e₃₂ and e₆₄ the distance of its float32 and float64
   activations from the exact one. Let u₃₂ = 2⁻²⁴, γ₃₂ and γ₆₄ be taken at
   K + 1 = fan-in + 1, Ŵ and b̂ be the float32-rounded weights and biases,
   and |·| act entrywise. The row vectors start from A = (1+u₃₂)X,
   e₃₂ = u₃₂X and e₆₄ = 0 at every input, and each layer updates them from
   their previous values, with s = A|Ŵ| + |b̂|:

       e₃₂ ← γ₃₂s + (u₃₂A + e₃₂)|W| + u₃₂|b|
       e₆₄ ← (γ₆₄(A + e₃₂ + e₆₄) + e₆₄)|W| + γ₆₄|b|
       A ← (1+γ₃₂)s

   Bounding each vector by its largest entry gives the ∞-norm form, with
   scalar A, e₃₂ and e₆₄:

       e₃₂ ← A·maxⱼ(γ₃₂‖Ŵ:ⱼ‖₁ + u₃₂‖W:ⱼ‖₁) + e₃₂·maxⱼ‖W:ⱼ‖₁
             + maxⱼ(γ₃₂|b̂ⱼ| + u₃₂|bⱼ|)
       e₆₄ ← γ₆₄(A + e₃₂ + e₆₄)·maxⱼ‖W:ⱼ‖₁ + e₆₄·maxⱼ‖W:ⱼ‖₁
             + γ₆₄·max|b|
       A ← (1+γ₃₂)(A·maxⱼ‖Ŵ:ⱼ‖₁ + max|b̂|)

   That form is about twice as loose: σ = 0.03 draws around the initial
   (2, 64, 64, 1) net leave 1.0% of the default task's source rows open
   under it and 0.47% unit by unit. Each update also gains an underflow
   term, (K + 1)(max(A + e₃₂ + e₆₄) + 2) times the smallest normal number
   of its precision. The code takes (1+u₃₂)|W| and (1+u₃₂)|b| for |Ŵ| and
   |b̂|, so it forms |w| alone. The logit's e₃₂ and e₆₄ are widened by a
   factor 1 + 2⁻²⁰ for the bound's own float64 rounding, and a draw with a
   weight or an A beyond the float32 range gets an infinite bound.
2. Where |z32| exceeds that bound, z64 has the sign of z32. The other rows,
   NaNs included, are gathered per draw and recomputed in float64.
3. A gathered float64 logit and z64 both lie within e₆₄ of the exact logit,
   so they share a sign unless the gathered one lies within 2e₆₄ of 0. Such
   a row's own ``forward`` block is run again, which gives the bits of the
   full pass: the rows of a subset would go through differently shaped BLAS
   products, which may round them differently.

The rechecks run ``forward``'s block loop, ``_forward``, so a caller that
labels a sample makes one ``forward`` call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .samples import LabeledSample
from .seeding import stream_rng

# evenly spaced snapshots over the first epoch, from zero seen samples;
# ``train`` also saves every epoch end
FIRST_EPOCH_CHECKPOINTS = 10
# bytes per column of a block of every layer in ``forward``: 512 float64
# or 1,024 float32 rows
BLOCK_BYTES = 4096
# unit roundoff of float32 and float64
U32, U64 = 2.0**-24, 2.0**-53


class DivergedError(RuntimeError):
    """Training produced non-finite weights."""


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths from input to the single-logit output; every hidden
    layer applies ReLU."""

    layer_widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least input and output layers")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be >= 1")
        if widths[-1] != 1:
            raise ValueError("output layer must be a single logit")

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
    """Views of the flat vector as per-layer (W, b) pairs; no copies. A
    stack of vectors, shape (k, num_params), gives stacks of shape
    (k, n_in, n_out) and (k, n_out)."""
    widths = arch.layer_widths
    views = []
    pos = 0
    for i in range(len(widths) - 1):
        n_in, n_out = widths[i], widths[i + 1]
        W = w[..., pos : pos + n_in * n_out].reshape(*w.shape[:-1], n_in, n_out)
        pos += n_in * n_out
        b = w[..., pos : pos + n_out]
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


def _layers(layers: list, a: np.ndarray, bufs: list) -> list:
    """Apply ``layers``, the (W, b) pairs of one weight vector, to the rows
    ``a``, writing each layer's output into its buffer of ``bufs``. Every
    output goes through ReLU except the last, the logit. Returns ``bufs``."""
    for i, ((W, b), buf) in enumerate(zip(layers, bufs)):
        np.matmul(a, W, out=buf)
        buf += b
        if i < len(layers) - 1:
            np.maximum(buf, 0.0, out=buf)
        a = buf
    return bufs


def _row_blocks(n: int, rows: int) -> list:
    """(start, stop) of consecutive blocks of ``rows`` rows covering ``n``
    rows; a 1-row tail joins the block before it."""
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], n]))


def _forward(arch: MlpArchitecture, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``forward`` without its checks: ``w`` and ``x`` share one float dtype,
    which the pass computes in."""
    blocks = _row_blocks(len(x), BLOCK_BYTES // x.itemsize)
    rows = max((stop - start for start, stop in blocks), default=0)
    # reused by every draw: one block buffer per hidden layer and one bias
    # tile per layer; the output layer writes into its rows of ``logits``
    block_bufs = [np.empty((rows, width), x.dtype) for width in arch.layer_widths[1:-1]]
    tiles = [np.empty((rows, width), x.dtype) for width in arch.layer_widths[1:]]
    logits = np.empty((len(w), len(x), 1), x.dtype)
    for k, wk in enumerate(w):
        layers = _layer_views(arch, wk)
        for tile, (_, b) in zip(tiles, layers):
            tile[...] = b
        for start, stop in blocks:
            bufs = [buf[: stop - start] for buf in block_bufs] + [logits[k, start:stop]]
            tiled = [(W, tile[: stop - start]) for (W, _), tile in zip(layers, tiles)]
            _layers(tiled, x[start:stop], bufs)
    return logits[:, :, 0]


def forward(arch: MlpArchitecture, w, x) -> np.ndarray:
    """(k, n) logits of the k weight vectors stacked in ``w``, shape
    (k, num_params), at the n rows of ``x``, shape (n, input_dim), computed
    in float32 if ``w`` is a float32 array and in float64 otherwise.

    Equal to stacking per-draw calls: each draw runs alone with the same
    matrix shapes. Pure. Batched rows agree with row-by-row calls only up
    to rounding, since BLAS may reorder a row's sums.

    Every layer runs over row blocks (see the module docstring), and the
    output layer writes each block's logits into its rows of the result, so
    the only array with n rows is the result (and, for float32 weights, the
    float32 copy of ``x``). The logits equal a 1-thread unblocked pass bit
    for bit, whatever the BLAS thread count.
    """
    w = np.asarray(w)
    w = w.astype(np.float32 if w.dtype == np.float32 else np.float64, copy=False)
    if w.ndim != 2 or w.shape[1] != arch.num_params:
        raise ValueError(f"weights have shape {w.shape}, architecture needs (draws, {arch.num_params})")
    x = np.asarray(x, dtype=w.dtype)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"inputs have shape {x.shape}, architecture needs (rows, {arch.input_dim})")
    return _forward(arch, w, x)


def _gamma(n: int, u: float) -> float:
    """Higham's γₙ = nu/(1 - nu), infinite once nu reaches 1."""
    return n * u / (1 - n * u) if n * u < 1 else math.inf


def _logit_bounds(arch: MlpArchitecture, w: np.ndarray, X: float):
    """(e₃₂ + e₆₄, e₆₄) at the logit, per draw of the (k, num_params)
    float64 stack ``w``, at rows with max‖x‖∞ = ``X``: the recurrences of the
    module docstring, widened by a factor 1 + 2⁻²⁰. The first is inf where
    the float32 pass may leave the float32 range."""
    f32_max = np.finfo(np.float32).max
    tiny32, tiny64 = float(np.finfo(np.float32).tiny), float(np.finfo(np.float64).tiny)
    A = np.full((len(w), arch.input_dim), (1 + U32) * X + tiny32)
    e32 = np.full_like(A, U32 * X + tiny32)
    e64 = np.zeros_like(A)
    abs_w = np.abs(w)
    # a weight beyond the float32 range rounds to inf
    fits = (A.max(axis=-1) < f32_max) & (abs_w.max(axis=-1) < f32_max)
    for W, b in _layer_views(arch, abs_w):
        K = W.shape[-2]
        g32, g64 = _gamma(K + 1, U32), _gamma(K + 1, U64)
        # (K + 1) products and additions, each off by at most half the
        # smallest subnormal on underflow, plus the weights' float32 rounding
        under = (K + 1) * ((A + e32 + e64).max(axis=-1, keepdims=True) + 2)
        terms = np.stack([A, U32 * A + e32, g64 * (A + e32 + e64) + e64], axis=1) @ W
        s, through32, through64 = np.moveaxis(terms, 1, 0)
        # |Ŵ| <= (1 + u₃₂)|W| and |b̂| <= (1 + u₃₂)|b|, up to underflow
        s = (1 + U32) * (s + b)
        e32 = g32 * s + through32 + U32 * b + under * tiny32
        e64 = through64 + g64 * b + under * tiny64
        A = (1 + g32) * s + under * tiny32
        fits &= A.max(axis=-1) < f32_max
    slack = 1 + 2.0**-20
    return np.where(fits, (e32 + e64)[:, 0] * slack, np.inf), e64[:, 0] * slack


def float64_labels(arch: MlpArchitecture, w, x, logits32) -> np.ndarray:
    """``predict(forward(arch, w, x))``, bit for bit, from ``logits32 =
    forward(arch, w.astype(np.float32), x)``: the float32 signs wherever the
    rounding bound of the module docstring settles them, float64 rechecks
    elsewhere."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if logits32.shape != (len(w), len(x)):
        raise ValueError(f"logits have shape {logits32.shape}, need {(len(w), len(x))}")
    labels = predict(logits32)
    if not labels.size:
        return labels
    bound, e64 = _logit_bounds(arch, w, np.maximum(x.max(), -x.min()))
    blocks = _row_blocks(len(x), BLOCK_BYTES // x.itemsize)
    starts = [start for start, _ in blocks]
    # one draw at a time, so no temporary holds (k, n) floats
    for k, z32 in enumerate(logits32):
        rows = np.flatnonzero(~(np.abs(z32) > bound[k]))
        if not rows.size:
            continue
        z = _forward(arch, w[k : k + 1], x[rows])[0]
        labels[k, rows] = z > 0
        near = rows[~(np.abs(z) > 2 * e64[k])]
        for i in np.unique(np.searchsorted(starts, near, side="right") - 1):
            start, stop = blocks[i]
            labels[k, start:stop] = _forward(arch, w[k : k + 1], x[start:stop])[0] > 0
    return labels


def predict(logits: np.ndarray) -> np.ndarray:
    """Hard labels from an array of logits, as a bool array of the same
    shape: True (label 1) iff logit > 0, so a zero logit maps to label 0."""
    return logits > 0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _require_binary(labels: np.ndarray):
    if labels.size and not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be in {0, 1}")


def _bce_gradient_arrays(arch: MlpArchitecture, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``w`` of the mean binary cross-entropy of the 0/1
    labels ``y`` at the rows ``X``."""
    views = _layer_views(arch, w)
    bufs = [np.empty((len(X), width)) for width in arch.layer_widths[1:]]
    *hidden, out = _layers(views, X, bufs)
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
            delta = (delta @ W.T) * (acts[i] > 0)
    return grad


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
    X, y = data.features, data.labels
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

