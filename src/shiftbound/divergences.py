"""Domain-shift quantities: a Gaussian-kernel MMD estimate (an O(n) paired
linear statistic with shuffle averaging and a bandwidth sweep whose
bandwidths share each shuffle's squared distances) and the median-heuristic
bandwidths it is swept over.

Everything here is numpy; nothing uses scipy. The median heuristic sums
its pairwise squared distances over features in order (d0*d0, then
+ d1*d1, ...), the order of scipy's ``pdist`` and ``cdist``. It selects
the middle one or two squared distances and takes their square roots;
``sqrt`` is monotone, so this equals the median of the distances bit for
bit. Its thinned pool is gathered straight from the two samples, never
stacked in full, and its pairs are never held all at once: they are
computed in tiles of ``_TILE_ROWS`` pool rows, written into one reused
buffer, and selected by a radix select on their bit patterns (doubles
>= 0 sort like their int64 bits). Each pass over the tiles counts the next
16 bits of the values in the bucket that holds the middle ranks. Once that
bucket fits in ``_CANDIDATE_CAP`` values, one more pass gathers them for
``np.partition``. A bucket of ties never has to: after four passes all 64
bits are fixed, and every value in it is equal. So the working set is the
tile buffer, the 2**16 bucket counts and at most ``_CANDIDATE_CAP``
values: tracemalloc reads a 2.3 MiB peak on a 2,048-row pool of 8
features, whose 2,096,128 pairs would take 16.0 MiB.

The shuffled linear statistic runs in a working set that does not grow with
the number of shuffles, and holds one block of pairs at a time: each
permutation is drawn only when its shuffle is evaluated (the same RNG
stream, in the same order), and each shuffle is evaluated ``_PAIR_ROWS``
pairs at a time. A block's four paired blocks, their squared distances and
kernel values sit in buffers reused by every block and shuffle; each
bandwidth keeps one full-length row of summands, whose mean is taken over
the whole row, so the statistics equal those of one full-height pass to the
bit. tracemalloc reads a 3.5 MiB peak for a 70,000-row sample against a
100,000-row one at 2 features and five bandwidths (6.1 MiB with full-height
blocks). Each squared-distance row equals ``np.sum((a - b) ** 2, axis=1)``
bit for bit (``_paired_sq_distances``): numpy adds a row of fewer than 8
entries in order, so below 8 features ``_sq_distances`` adds whole columns
in that order instead of running numpy's inner loop once per row; from 8
features the rows are summed by ``np.sum`` itself.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .seeding import stream_rng


# the fixed bandwidth sweep of median_heuristic_bandwidths
BANDWIDTH_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
MEDIAN_POOL_ROWS = 2048
# the median heuristic's pool rows per distance tile, and the most squared
# distances it gathers to partition (1 MiB)
_TILE_ROWS = 32
_CANDIDATE_CAP = 1 << 17
# the linear statistic's pairs per block of one shuffle
_PAIR_ROWS = 8192


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


def _sq_distances(A: np.ndarray, B: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and ``B``, which
    broadcast against each other over all but their last (feature) axis,
    summed over the features in order. ``scratch``, of the result's shape,
    holds each feature's squared differences instead of a new array."""
    sq = np.subtract(A[..., 0], B[..., 0], out=out)
    sq *= sq
    for k in range(1, A.shape[-1]):
        diff = np.subtract(A[..., k], B[..., k], out=scratch)
        diff *= diff
        sq += diff
    return sq


def _truncate_even(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n = min(len(X), len(Y))
    n -= n % 2
    if n < 2:
        raise ValueError("need at least 2 rows per sample")
    return X[:n], Y[:n], n


def _shuffle_permutations(n: int, shuffles: int, seed: int):
    """The shuffles' row orders, each drawn only when it is asked for."""
    rng = stream_rng(seed, "mmd")
    for _ in range(shuffles):
        yield rng.permutation(n)


def _paired_sq_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """``np.sum((a - b) ** 2, axis=1)`` of two (rows, features) blocks,
    written into ``out`` bit for bit. ``diff``, of the blocks' shape, is
    scratch space."""
    if a.shape[1] < 8:
        return _sq_distances(a, b, out=out, scratch=diff.reshape(-1)[: len(out)])
    np.subtract(a, b, out=diff)
    diff *= diff
    return np.sum(diff, axis=1, out=out)


def _linear_statistics(X, Y, kappas, perms) -> np.ndarray:
    """(len(kappas), number of perms) linear statistics. Each row order ``p``
    of X and Y is paired as (p[0], p[1]), (p[2], p[3]), ...: the four paired
    blocks are gathered straight from X and Y, ``_PAIR_ROWS`` pairs at a
    time, and their squared distances are shared by every bandwidth. Each
    bandwidth's summands fill one full-length row, whose mean is taken once
    the last block is in. Every order reuses the same buffers."""
    half = len(X) // 2
    block_rows = min(half, _PAIR_ROWS)
    block_buf = np.empty((4, block_rows, X.shape[1]))
    sq_buf, kern_buf = np.empty((4, block_rows)), np.empty((4, block_rows))
    diff_buf = np.empty((block_rows, X.shape[1]))
    summands = np.empty((len(kappas), half))
    columns = []
    for p in perms:
        for start in range(0, half, _PAIR_ROWS):
            pairs = p[2 * start : 2 * (start + _PAIR_ROWS)]
            size = len(pairs) // 2
            x1, x2, y1, y2 = blocks = block_buf[:, :size]
            sq, kern, diff = sq_buf[:, :size], kern_buf[:, :size], diff_buf[:size]
            for sample, rows, block in zip((X, X, Y, Y), (pairs[0::2], pairs[1::2]) * 2, blocks):
                # a permutation's rows are all in range: "clip" changes none of
                # them, and unlike "raise" lets take write into the block directly
                sample.take(rows, axis=0, out=block, mode="clip")
            for row, (a, b) in zip(sq, ((x1, x2), (y1, y2), (x1, y2), (x2, y1))):
                _paired_sq_distances(a, b, row, diff)
            for kappa, summand in zip(kappas, summands[:, start : start + size]):
                np.exp(np.divide(sq, -2.0 * kappa**2, out=kern), out=kern)
                np.add(kern[0], kern[1], out=summand)
                summand -= kern[2]
                summand -= kern[3]
        columns.append([summand.mean() for summand in summands])
    return np.array(columns).T.copy()


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


def median_heuristic_bandwidths(X, Y):
    """The experiment's bandwidth sweep: the median pairwise distance of the
    pooled sample, scaled by each of ``BANDWIDTH_SCALES``. Pools larger than
    ``MEDIAN_POOL_ROWS`` are thinned deterministically by striding."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    total = len(X) + len(Y)
    step = total // MEDIAN_POOL_ROWS + 1 if total > MEDIAN_POOL_ROWS else 1
    # every step-th row of X stacked on Y, without the stack
    med = _median_distance(np.vstack([X[::step], Y[-len(X) % step :: step]]))
    if med <= 0:
        med = 1.0
    return tuple(sorted(med * s for s in BANDWIDTH_SCALES))


def _pair_tiles(rows: np.ndarray, buf: np.ndarray):
    """The squared distances of the unordered pairs of ``rows`` as int64 bit
    patterns, in tiles of ``_TILE_ROWS`` rows: the strict upper triangle of
    a tile's diagonal square, then the rectangle to its right. Each value
    equals ``pdist``'s squared distance bit for bit. ``buf``, of shape
    (2, ``_TILE_ROWS * len(rows)``), holds every rectangle in turn, so a
    caller may overwrite one."""
    n = len(rows)
    upper = ~np.tri(_TILE_ROWS, dtype=bool)

    def block(i0, i1, j0, j1):
        shape = (i1 - i0, j1 - j0)
        out, scratch = buf[:, : shape[0] * shape[1]].reshape(2, *shape)
        return _sq_distances(rows[i0:i1, None], rows[None, j0:j1], out=out, scratch=scratch).view(np.int64)

    for i0 in range(0, n - 1, _TILE_ROWS):
        i1 = min(i0 + _TILE_ROWS, n)
        yield block(i0, i1, i0, i1)[upper[: i1 - i0, : i1 - i0]]
        yield block(i0, i1, i1, n).ravel()


def _offsets_in_bucket(bits: np.ndarray, start: int, shift: int) -> np.ndarray:
    """``bits - start`` for the ``bits`` in [start, start + 2**shift); the
    subtraction is made in place."""
    bits -= start
    return bits[bits.view(np.uint64) < 1 << shift]


def _middle_bits(tiles, pairs: int):
    """The bit patterns of the two middle squared distances, of ranks
    (pairs - 1) // 2 and pairs // 2, found by a radix select over the
    ``tiles`` (bit patterns of doubles >= 0 sort like their values)."""
    # the ranks counted among the patterns in [start, start + 2**shift)
    lo, hi = (pairs - 1) // 2, pairs // 2
    start, shift = 0, 64
    while True:
        counts = np.zeros(1 << 16, dtype=np.int64)  # by the next 16 bits
        for bits in tiles():
            if shift < 64:
                bits = _offsets_in_bucket(bits, start, shift)
            found = np.bincount(np.right_shift(bits, shift - 16, out=bits))
            counts[: len(found)] += found
        shift -= 16
        ends = np.cumsum(counts, out=counts)
        lo_bucket, hi_bucket = np.searchsorted(ends, (lo, hi), side="right").tolist()
        if lo_bucket != hi_bucket:
            # lo is the largest pattern below hi's bucket, hi the smallest in it
            split = start + (hi_bucket << shift)
            lower, upper = 0, np.iinfo(np.int64).max
            for bits in tiles():
                below = bits < split
                lower = max(lower, bits.max(where=below, initial=lower))
                upper = min(upper, bits.min(where=~below, initial=upper))
            return lower, upper
        skipped = int(ends[lo_bucket - 1]) if lo_bucket else 0
        size = int(ends[lo_bucket]) - skipped
        lo, hi, start = lo - skipped, hi - skipped, start + (lo_bucket << shift)
        if shift == 0:
            return start, start  # all 64 bits fixed: every pattern left equals start
        if size <= _CANDIDATE_CAP:
            offsets, filled = np.empty(size, dtype=np.int64), 0
            for bits in tiles():
                found = _offsets_in_bucket(bits, start, shift)
                offsets[filled : filled + len(found)] = found
                filled += len(found)
            # one partition point, then the largest value below it:
            # partitioning about both middle ranks at once is several times slower
            offsets.partition(hi)
            lower = offsets[:hi].max() if lo < hi else offsets[hi]
            return start + int(lower), start + int(offsets[hi])


def _median_distance(pool: np.ndarray) -> float:
    """Median Euclidean distance over the unordered pairs of rows of
    ``pool``, equal to ``np.median(scipy.spatial.distance.pdist(pool))``,
    in a working set that does not hold every pair."""
    n = len(pool)
    if n < 2:
        raise ValueError("need at least 2 pooled rows")
    # columns contiguous, so each feature's differences run over contiguous memory
    tiles = partial(_pair_tiles, np.asfortranarray(pool), np.empty((2, _TILE_ROWS * n)))
    middle = np.array(_middle_bits(tiles, n * (n - 1) // 2), dtype=np.int64).view(np.float64)
    return (math.sqrt(middle[0]) + math.sqrt(middle[1])) / 2

