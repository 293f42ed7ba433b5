"""Reference quantities that only the tests use: the Gaussian kernel of one
pair, the biased quadratic-time MMD estimate over all pairs, the linear
statistic on a single row order or averaged over shuffles (thin wrappers of
the estimator the experiment runs), the mean binary cross-entropy that the
gradient checks difference, and the layer loop run over all rows at once
that ``forward`` is compared with."""

import math

import numpy as np

from shiftbound.divergences import (
    _linear_statistics,
    _shuffle_permutations,
    _sq_distances,
    _truncate_even,
)
from shiftbound.nn import _require_binary, forward


def gaussian_kernel(x, y, kappa: float) -> float:
    """k(x, y) = exp(-||x - y||^2 / (2 kappa^2)), always in (0, 1]."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal dimensions")
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * kappa**2)))


def _kernel_matrix(X: np.ndarray, Y: np.ndarray, kappa: float) -> np.ndarray:
    return np.exp(-_sq_distances(X[:, None, :], Y[None, :, :]) / (2.0 * kappa**2))


def mmd_quadratic_biased(X, Y, kappa: float) -> float:
    """Biased quadratic-time MMD estimate:

        sqrt( mean k(x,x') - 2 mean k(x,y) + mean k(y,y') )

    with all-pairs means (diagonal included) and the square clamped at zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if len(X) < 1 or len(Y) < 1:
        raise ValueError("both samples must be non-empty")
    sq = (
        _kernel_matrix(X, X, kappa).mean()
        - 2.0 * _kernel_matrix(X, Y, kappa).mean()
        + _kernel_matrix(Y, Y, kappa).mean()
    )
    return math.sqrt(max(sq, 0.0))


def mmd_linear_statistic(X, Y, kappa: float) -> float:
    """Paired-block linear-time statistic on the given row order.

    Rows are consumed in consecutive pairs; with blocks ((x, y), (x', y')) the
    summand is k(x,x') + k(y,y') - k(x,y') - k(x',y). Unbiased for squared MMD
    and may be negative. Both samples are truncated to the shorter even length.
    """
    X, Y, _ = _truncate_even(X, Y)
    return float(_linear_statistics(X, Y, (kappa,), [np.arange(len(X))])[0, 0])


def mmd_linear_shuffled(X, Y, kappa: float, shuffles: int = 10, seed: int = 0) -> float:
    """Mean of the linear statistic over random shuffles. One permutation per
    shuffle reorders both samples jointly, so identical samples give exactly
    zero on every shuffle. Deterministic per seed."""
    if shuffles < 1:
        raise ValueError("shuffles must be >= 1")
    X, Y, n = _truncate_even(X, Y)
    return float(_linear_statistics(X, Y, (kappa,), _shuffle_permutations(n, shuffles, seed))[0].mean())


def bce_loss(arch, w, data) -> float:
    """Mean binary cross-entropy of the batch, computed in logit space."""
    _require_binary(data.labels)
    z = forward(arch, w[None], data.features)[0]
    y = data.labels.astype(np.float64)
    # max(z, 0) + log1p(exp(-|z|)) is softplus(z), and never overflows for finite z
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(softplus - y * z))


def unblocked_forward(arch, draws, X):
    """Reference: the layer loop run over all rows at once, every layer
    written at full height, one draw after another."""
    widths = arch.layer_widths
    logits = []
    for w in draws:
        a, pos = X, 0
        for i in range(len(widths) - 1):
            n_in, n_out = widths[i], widths[i + 1]
            W = w[pos : pos + n_in * n_out].reshape(n_in, n_out)
            b = w[pos + n_in * n_out : pos + n_in * n_out + n_out]
            pos += n_in * n_out + n_out
            buf = np.empty((len(X), n_out))
            np.matmul(a, W, out=buf)
            buf += b
            if i < len(widths) - 2:
                np.maximum(buf, 0.0, out=buf)
            a = buf
        logits.append(a[:, 0].copy())
    return np.array(logits)
