"""Minimal ReLU feedforward binary classifier: flat weight vectors,
backprop, and deterministic SGD-momentum training with in-memory
checkpoints.

Weight vectors are plain 1-D float64 arrays laid out layer by layer,
weight matrix (fan_in x fan_out, row-major) followed by bias, so each
layer's slice is the (fan_in + 1, fan_out) matrix [W; b]. ``_layer_views``
is the one reader of that layout: it views each layer as [W; b], or a
(draws, num_params) stack as the (draws, fan_in + 1, fan_out) stacks of
[W; b], without copies. Every hidden layer applies ReLU; the output is one
logit. The float64 ``forward`` and the gradient share one layer loop,
``_layers``.

``forward`` computes in the dtype of its weights: float64, or float32 when
given float32 weights. The float64 pass, ``_forward``, runs every layer, the
output logit included, over blocks of ``BLOCK_ROWS`` = 512 rows, so no layer
is held at full height; the output layer's block is written into its rows of
the result. A block of rows goes through the same BLAS product as a 1-thread
pass over all rows, which gives each row the same sums; the tests compare
the two bit for bit. The width-1 output layer is a matrix-vector product,
which BLAS rounds per row according to how it splits the rows across
threads; over one block it rounds as the 1-thread pass does, so the logits
do not depend on the BLAS thread count. A 1-row block would turn a hidden
layer's matrix-matrix product into a matrix-vector product, so a 1-row tail
joins the block before it.

The float32 pass, ``_forward32``, only feeds ``hard_labels``, whose rounding
bound below holds in any summation order, so it keeps none of those bit
contracts: per-draw equality, thread-count independence and blocked ==
unblocked are float64-only. It runs all draws at once, each layer as the
stack of every draw's [W; b]. Each activation block is a (draws, rows,
width + 1) stack whose last column holds ones, set once and kept at 1 by
ReLU; each layer of a block is then one ``np.matmul`` that writes into the
next stack's other columns, with the bias as the sum's last product 1·b̂,
and ReLU runs against a block of zeros. A block's rows are sized so that
the widest stacked hidden block holds ``STACK_BYTES``, about 100 rows for 10
draws of width 64, but never fewer than the first layer's fan-in + 1:
shorter blocks repack a wide first layer's [W; b] too often. The rows of
``x`` are cast to float32 one block at a time, so the pass holds no float32
copy of ``x``.

The float32 blocks are claimed, not split in advance: each worker, the
caller and at most one thread, takes the next block's first row from one
shared iterator and runs that block on its own activation stacks, and the
read-only ReLU zero blocks are shared. A worker on a slow or descheduled
core thus takes fewer blocks. The blocks are laid out as for one worker and
a block goes through the same products whichever worker runs it, so the
float32 logits have the same bits at any worker count. numpy releases the
GIL inside each product and ufunc, so two workers overlap on two cores. The
pass uses min(available CPUs, ``MAX_WORKERS32`` = 2, blocks) workers, but
one where a block's largest per-draw product, M·N·K, lies outside
[``MIN_PRODUCT32``, ``BLAS_THREADED_PRODUCT``) = [2¹⁶, 10⁶):
- from 10⁶ on, this OpenBLAS (0.3.31) runs the product in its own threads,
  so a second caller only competes with them (a wide first layer, or a
  single draw's 1,008-row blocks of width 64);
- below 2¹⁶, as with one narrow hidden layer over many draws, each BLAS
  call is so short that two workers calling them were slower than one.
Two workers, not more: two sets of stacks fit the pass's working-set budget
at this block height, and halving the blocks to fit more workers was slower
than one. A worker's exception stops the others at their next block and is
raised in the caller once every thread has ended.

A hard label reads only the sign of a logit. ``hard_labels``, the one
producer of hard labels, gives those of the float64 pass,
``predict(forward(arch, w, x))``, bit for bit, from the logits z32 of one
float32 ``forward`` call, in three steps:

1. It bounds |z32 - z64| per draw from the weights alone, vectorised over
   the draws. The basis is Higham (2002, *Accuracy and Stability of
   Numerical Algorithms*, §3.1): a computed fl(Σᵢ aᵢwᵢ + b) of K products
   lies within γ_{K+1}(Σ|aᵢ||wᵢ| + |b|) of the exact sum, where
   γₙ = nu/(1 - nu), in any summation order, FMA included. The float32
   pass adds b̂ as the exact product 1·b̂, the (K+1)-th term that γ_{K+1}
   already counts, so folding the bias into the product leaves the bound
   unchanged. The bound is
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
   a row's own ``forward`` block, row // ``BLOCK_ROWS`` or the last, is run
   again, which gives the bits of the full pass: the rows of a subset would
   go through differently shaped BLAS products, which may round them
   differently.

The rechecks run the float64 block loop ``_forward`` over the blocks
``_row_blocks`` lays out for it, so labelling makes one ``forward`` call,
the float32 one.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .samples import LabeledSample
from .seeding import stream_rng

# evenly spaced snapshots over the first epoch, from zero seen samples;
# ``train`` also saves every epoch end
FIRST_EPOCH_CHECKPOINTS = 10
# rows per block of every layer in the float64 ``forward``
BLOCK_ROWS = 512
# bytes of the widest stacked hidden block of the float32 ``forward``, ones
# column included: 256 KiB, the fastest at 10 draws of width 64 and at 2
# draws of width 16
STACK_BYTES = 2**18
# workers of the float32 ``forward``: at most two, the most whose activation
# stacks fit its working-set budget at its block height
MAX_WORKERS32 = 2
# M·N·K of a block's largest per-draw product in the float32 ``forward``
# below which a second worker was slower, and from which OpenBLAS runs its
# own threads
MIN_PRODUCT32, BLAS_THREADED_PRODUCT = 2**16, 10**6
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


def _layer_views(arch: MlpArchitecture, w: np.ndarray) -> list:
    """Views of the flat vector as the per-layer [W; b] matrices, shape
    (n_in + 1, n_out), whose W is ``[..., :-1, :]`` and b ``[..., -1, :]``;
    no copies. A stack of vectors, shape (k, num_params), gives stacks of
    shape (k, n_in + 1, n_out)."""
    widths = arch.layer_widths
    views, pos = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        views.append(w[..., pos : pos + (n_in + 1) * n_out].reshape(*w.shape[:-1], n_in + 1, n_out))
        pos += (n_in + 1) * n_out
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
    for layer in _layer_views(arch, w):
        W = layer[:-1]
        bound = 1.0 / math.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return w


def _layers(layers: list, a: np.ndarray) -> list:
    """The output of each of ``layers``, the [W; b] views of one weight
    vector, at the rows ``a``: ``a @ W + b``, through ReLU except the last,
    the logit."""
    outs = []
    for i, layer in enumerate(layers):
        a = a @ layer[:-1]
        a += layer[-1]
        if i < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
        outs.append(a)
    return outs


def _row_blocks(n: int) -> list:
    """(start, stop) of ``forward``'s blocks of ``n`` rows, ``BLOCK_ROWS``
    each; a 1-row tail joins the block before it."""
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], n]))


def _forward(arch: MlpArchitecture, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The float64 ``forward`` without its checks."""
    logits = np.empty((len(w), len(x)))
    for k, wk in enumerate(w):
        layers = _layer_views(arch, wk)
        for start, stop in _row_blocks(len(x)):
            logits[k, start:stop] = _layers(layers, x[start:stop])[-1][:, 0]
    return logits


def _block_rows32(arch: MlpArchitecture, draws: int) -> int:
    """Rows per block of ``_forward32``: its widest stacked hidden block,
    ones column included, holds ``STACK_BYTES``, but a block has at least as
    many rows as the first layer's [W; b]."""
    width = max(arch.layer_widths[1:-1], default=0) + 1
    return max(STACK_BYTES // (4 * max(draws, 1) * width), arch.input_dim + 1)


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers32(arch: MlpArchitecture, rows: int, blocks: int) -> int:
    """Workers of ``_forward32`` over ``blocks`` blocks of ``rows`` rows:
    min(available CPUs, ``MAX_WORKERS32``, blocks) where a block's largest
    per-draw product, rows × (fan-in + 1) × fan-out, lies in
    [``MIN_PRODUCT32``, ``BLAS_THREADED_PRODUCT``), else one."""
    widths = arch.layer_widths
    largest = rows * max((n_in + 1) * n_out for n_in, n_out in zip(widths[:-1], widths[1:]))
    if not MIN_PRODUCT32 <= largest < BLAS_THREADED_PRODUCT:
        return 1
    return max(1, min(_available_cpus(), MAX_WORKERS32, blocks))


def _claim_blocks32(starts, x, mats, acts, zeros, logits, failed: list):
    """One worker of ``_forward32``: claim the next block's first row from
    the shared iterator ``starts`` and run that block on this worker's own
    stacks ``acts``, until no block is left or another worker has
    ``failed``."""
    rows, n = acts[0].shape[0], len(x)

    def views(r):
        # per layer: its input, its output's columns before the ones, its
        # whole output, and ReLU's zeros, all r rows high
        layers = [
            (act[..., :r, :], out[:, :r, :-1], out[:, :r], zero[:r])
            for act, out, zero in zip(acts, acts[1:], zeros)
        ]
        return acts[0][:r, :-1], layers, acts[-1][..., :r, :]

    full = views(rows)
    for start in starts:
        if failed:
            return
        r = min(rows, n - start)
        inputs, layers, last = full if r == rows else views(r)
        inputs[...] = x[start : start + r]
        for (act, cols, out, zero), mat in zip(layers, mats):
            np.matmul(act, mat, out=cols)
            np.maximum(out, zero, out=out)
        np.matmul(last, mats[-1], out=logits[:, start : start + r])


def _run_workers(work, worker_args: list):
    """``work(*args, failed)`` for each ``args`` of ``worker_args``, the
    first in the calling thread and the others in one thread each, all
    joined before returning. An exception of any worker is appended to the
    shared list ``failed``, which the others read to stop early, and the
    first one is raised once every thread has ended."""
    failed = []

    def guarded(*args):
        try:
            work(*args, failed)
        except BaseException as error:
            failed.append(error)

    started = []
    try:
        for args in worker_args[1:]:
            thread = threading.Thread(target=guarded, args=args)
            thread.start()
            started.append(thread)
        guarded(*worker_args[0])
    finally:
        for thread in started:
            thread.join()
    if failed:
        raise failed[0]


def _forward32(arch: MlpArchitecture, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The float32 ``forward`` without its checks: the stacked pass of the
    module docstring over the float64 rows ``x``, its blocks claimed by the
    workers of ``_workers32``."""
    widths = arch.layer_widths
    D, n = len(w), len(x)
    mats = _layer_views(arch, w)
    rows = min(_block_rows32(arch, D), max(n, 1))
    workers = _workers32(arch, rows, -(-n // rows))
    # per worker: the input block, shared by the draws, then one stacked
    # block per hidden layer; each ends in a ones column that ReLU keeps at 1
    stacks = [
        [np.ones((rows, widths[0] + 1), np.float32)]
        + [np.ones((D, rows, width + 1), np.float32) for width in widths[1:-1]]
        for _ in range(workers)
    ]
    # ReLU's zeros, one block-high layer broadcast over the draws; read-only,
    # so the workers share them
    zeros = [np.zeros((rows, width + 1), np.float32) for width in widths[1:-1]]
    logits = np.empty((D, n, 1), np.float32)
    # next() on a range iterator is atomic under the GIL, so each block's
    # first row is claimed by exactly one worker
    starts = iter(range(0, n, rows))
    _run_workers(_claim_blocks32, [(starts, x, mats, acts, zeros, logits) for acts in stacks])
    return logits[:, :, 0]


def forward(arch: MlpArchitecture, w, x) -> np.ndarray:
    """(k, n) logits of the k weight vectors stacked in ``w``, shape
    (k, num_params), at the n rows of ``x``, shape (n, input_dim), computed
    in float32 if ``w`` is a float32 array and in float64 otherwise. ``x``
    is cast to float64 in either case; the float32 pass casts it to float32
    one block at a time.

    Pure. In float64, equal to stacking per-draw calls: each draw runs alone
    with the same matrix shapes. Batched rows agree with row-by-row calls
    only up to rounding, since BLAS may reorder a row's sums.

    Every layer runs over row blocks (see the module docstring), and the
    output layer writes each block's logits into its rows of the result, so
    the only array with n rows is the result. The float64 logits equal a
    1-thread unblocked pass bit for bit, whatever the BLAS thread count; the
    float32 ones run all draws in one stacked pass and only lie within the
    rounding bound of ``hard_labels``. The float32 blocks are claimed by up
    to two workers, the caller and one thread that ends before the call
    returns, with the same logit bits at any worker count.
    """
    w = np.asarray(w)
    w = w.astype(np.float32 if w.dtype == np.float32 else np.float64, copy=False)
    if w.ndim != 2 or w.shape[1] != arch.num_params:
        raise ValueError(f"weights have shape {w.shape}, architecture needs (draws, {arch.num_params})")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ValueError(f"inputs have shape {x.shape}, architecture needs (rows, {arch.input_dim})")
    return (_forward32 if w.dtype == np.float32 else _forward)(arch, w, x)


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
    for layer in _layer_views(arch, abs_w):
        W, b = layer[..., :-1, :], layer[..., -1, :]
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


def hard_labels(arch: MlpArchitecture, w, x) -> np.ndarray:
    """``predict(forward(arch, w, x))``, bit for bit, from one float32
    ``forward`` call: the float32 signs wherever the rounding bound of the
    module docstring settles them, float64 rechecks elsewhere."""
    w = np.asarray(w, dtype=np.float64)
    logits32 = forward(arch, w.astype(np.float32), x)
    labels = predict(logits32)
    if not labels.size:
        return labels
    x = np.asarray(x, dtype=np.float64)
    bound, e64 = _logit_bounds(arch, w, np.maximum(x.max(), -x.min()))
    blocks = _row_blocks(len(x))
    # one draw at a time, so no temporary holds (k, n) floats
    for k, z32 in enumerate(logits32):
        rows = np.flatnonzero(~(np.abs(z32) > bound[k]))
        if not rows.size:
            continue
        z = _forward(arch, w[k : k + 1], x[rows])[0]
        labels[k, rows] = predict(z)
        near = rows[~(np.abs(z) > 2 * e64[k])]
        for i in np.unique(np.minimum(near // BLOCK_ROWS, len(blocks) - 1)):
            start, stop = blocks[i]
            labels[k, start:stop] = predict(_forward(arch, w[k : k + 1], x[start:stop])[0])
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
    *hidden, out = _layers(views, X)
    acts = [X, *hidden]
    z = out[:, 0]

    grad = np.zeros_like(w)
    gviews = _layer_views(arch, grad)
    # mean-BCE gradient in logit space: (sigmoid(z) - y) / n
    delta = ((_sigmoid(z) - y) / X.shape[0])[:, None]
    for i in range(len(views) - 1, -1, -1):
        gviews[i][:-1] = acts[i].T @ delta
        gviews[i][-1] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ views[i][:-1].T) * (acts[i] > 0)
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

