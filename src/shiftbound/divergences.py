"""Domain-shift quantities: Gaussian-kernel MMD estimators (an O(n) paired
linear statistic with shuffle averaging and a bandwidth sweep whose
bandwidths share each shuffle's squared distances, plus the quadratic biased
estimator used as an oracle) and exact importance weights for
mixture-constructed tasks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .seeding import stream_rng


class OverlapError(ValueError):
    """A construction would put zero source mass where the target has mass
    (or leave a domain empty), breaking the overlap requirement."""


@dataclass(frozen=True)
class MmdConfig:
    bandwidths: tuple
    shuffles: int = 10
    seed: int = 0

    def __post_init__(self):
        bw = tuple(float(k) for k in self.bandwidths)
        object.__setattr__(self, "bandwidths", bw)
        if not bw:
            raise ValueError("bandwidths must be non-empty")
        if any(k <= 0 for k in bw):
            raise ValueError("bandwidths must be positive")
        if list(bw) != sorted(bw):
            raise ValueError("bandwidths must be sorted ascending")
        if self.shuffles < 1:
            raise ValueError("shuffles must be >= 1")


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
    return np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * kappa**2))


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
    return float(_linear_statistics(X, Y, (kappa,), [slice(None)])[0, 0])


def _truncate_even(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n = min(len(X), len(Y))
    n -= n % 2
    if n < 2:
        raise ValueError("need at least 2 rows per sample")
    return X[:n], Y[:n], n


def _shuffle_permutations(n: int, shuffles: int, seed: int):
    rng = stream_rng(seed, "mmd")
    return [rng.permutation(n) for _ in range(shuffles)]


def _linear_statistics(X, Y, kappas, perms) -> np.ndarray:
    """(len(kappas), len(perms)) linear statistics. Each joint reordering of
    X and Y is gathered once and its four paired squared distances are shared
    by every bandwidth."""
    stats = np.empty((len(kappas), len(perms)))
    for j, p in enumerate(perms):
        Xp, Yp = X[p], Y[p]
        x1, x2, y1, y2 = Xp[0::2], Xp[1::2], Yp[0::2], Yp[1::2]
        sq = [np.sum((a - b) ** 2, axis=1) for a, b in ((x1, x2), (y1, y2), (x1, y2), (x2, y1))]
        for i, kappa in enumerate(kappas):
            k_xx, k_yy, k_xy, k_yx = (np.exp(-d / (2.0 * kappa**2)) for d in sq)
            stats[i, j] = (k_xx + k_yy - k_xy - k_yx).mean()
    return stats


def mmd_linear_shuffled(X, Y, kappa: float, shuffles: int = 10, seed: int = 0) -> float:
    """Mean of the linear statistic over random shuffles. One permutation per
    shuffle reorders both samples jointly, so identical samples give exactly
    zero on every shuffle. Deterministic per seed."""
    X, Y, n = _truncate_even(X, Y)
    return float(_linear_statistics(X, Y, (kappa,), _shuffle_permutations(n, shuffles, seed))[0].mean())


def mmd_estimate(X, Y, cfg: MmdConfig) -> float:
    """Bandwidth-swept MMD value: for each bandwidth, average the linear
    statistic over the shuffles, clamp at zero, take the max over bandwidths,
    and return its square root (an MMD, not a squared MMD).

    The same shuffles, and the squared distances they pair up, are shared by
    every bandwidth, so enlarging the bandwidth set can only increase the
    result.
    """
    X, Y, n = _truncate_even(X, Y)
    stats = _linear_statistics(X, Y, cfg.bandwidths, _shuffle_permutations(n, cfg.shuffles, cfg.seed))
    return math.sqrt(max([0.0, *(float(row.mean()) for row in stats)]))


def median_heuristic_bandwidths(X, Y, scales=(0.25, 0.5, 1.0, 2.0, 4.0), max_rows: int = 2048):
    """Default bandwidth grid: the median pairwise distance of the pooled
    sample, scaled by ``scales``. Pools larger than ``max_rows`` are thinned
    deterministically by striding."""
    pool = np.vstack([np.atleast_2d(X), np.atleast_2d(Y)])
    if len(pool) > max_rows:
        pool = pool[:: len(pool) // max_rows + 1]
    med = float(np.median(pdist(pool, "euclidean")))
    if med <= 0:
        med = 1.0
    return tuple(sorted(med * s for s in scales))


@dataclass(frozen=True)
class MixtureTaskSpec:
    """Two-origin mixture construction: per class, ``source_share[c]`` of the
    origin-1 rows (and the complementary share of origin-0 rows) go to the
    source; the remainder is the target. Labels below
    ``binary_relabel_threshold`` become 0, the rest 1.

    Shares may be given as Fraction, str ("1/12"), int, or float; they are
    held exactly as Fractions.
    """

    num_classes: int
    source_share: tuple
    per_class_counts: tuple  # per class: (origin-0 count, origin-1 count)
    binary_relabel_threshold: int = 0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        shares = tuple(Fraction(s) for s in self.source_share)
        object.__setattr__(self, "source_share", shares)
        if len(shares) != self.num_classes:
            raise ValueError("need one source share per class")
        if any(not 0 <= s <= 1 for s in shares):
            raise ValueError("shares must lie in [0, 1]")
        counts = tuple((int(a), int(b)) for a, b in self.per_class_counts)
        object.__setattr__(self, "per_class_counts", counts)
        if len(counts) != self.num_classes:
            raise ValueError("need per-origin counts for every class")
        if any(a < 1 or b < 1 for a, b in counts):
            raise ValueError("per-class counts must be >= 1")
        threshold = int(self.binary_relabel_threshold)
        if threshold == 0:
            threshold = self.num_classes // 2
        object.__setattr__(self, "binary_relabel_threshold", threshold)

    def binary_label(self, cls: int) -> int:
        return 0 if cls < self.binary_relabel_threshold else 1


def mixture_counts(spec: MixtureTaskSpec):
    """Integer (source, target) row counts per (class, origin) implied by the
    shares; refuses any cell with zero mass on either side."""
    src = []
    tgt = []
    for c in range(spec.num_classes):
        n0, n1 = spec.per_class_counts[c]
        share1 = spec.source_share[c]
        s1 = round(share1 * n1)
        s0 = round((1 - share1) * n0)
        row_s = (s0, s1)
        row_t = (n0 - s0, n1 - s1)
        for o in range(2):
            if row_s[o] == 0 or row_t[o] == 0:
                raise OverlapError(
                    f"class {c} origin {o}: source share {share1} leaves an empty "
                    f"side; every (class, origin) cell needs mass in both domains"
                )
        src.append(row_s)
        tgt.append(row_t)
    return src, tgt


def mixture_weights(spec: MixtureTaskSpec):
    """Exact importance weights per (class, origin):

        w[c][o] = (target count / #T) / (source count / #S)

    returned as Fractions (convert with float() for numeric use)."""
    src, tgt = mixture_counts(spec)
    total_s = sum(a + b for a, b in src)
    total_t = sum(a + b for a, b in tgt)
    return [
        [Fraction(tgt[c][o] * total_s, src[c][o] * total_t) for o in range(2)]
        for c in range(spec.num_classes)
    ]


def beta_infinity(spec: MixtureTaskSpec) -> float:
    """Largest importance weight of the mixture (exact arithmetic, then float)."""
    table = mixture_weights(spec)
    return float(max(w for row in table for w in row))


def one_sided_weight(move_fraction: float, num_source: int, num_target: int) -> float:
    """Importance weight for shared-pool rows when a ``move_fraction`` slice of
    one dataset is moved into the source and its remainder is the target:

        w = ((1 - f) / f) * (#S / #T)
    """
    if not 0 < move_fraction < 1:
        raise ValueError("move_fraction must lie in (0, 1)")
    if num_source < 1 or num_target < 1:
        raise ValueError("counts must be positive")
    return (1.0 - move_fraction) / move_fraction * (num_source / num_target)

