import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from shiftbound import (
    MmdConfig,
    median_heuristic_bandwidths,
    mmd_estimate,
)
from shiftbound.divergences import (
    BANDWIDTH_SCALES,
    MEDIAN_POOL_ROWS,
    _PAIR_ROWS,
    _linear_statistics,
    _median_distance,
    _paired_sq_distances,
    _shuffle_permutations,
    _sq_distances,
    _truncate_even,
)

from oracles import (
    _kernel_matrix,
    gaussian_kernel,
    mmd_linear_shuffled,
    mmd_linear_statistic,
    mmd_quadratic_biased,
)


def test_gaussian_kernel_basic():
    x = np.array([1.0, 2.0])
    assert gaussian_kernel(x, x, 0.7) == 1.0
    kappa = 1.3
    y = x + np.array([kappa * math.sqrt(2), 0.0])
    assert gaussian_kernel(x, y, kappa) == pytest.approx(math.exp(-1), rel=1e-12)
    vals = [gaussian_kernel(x, x + np.array([t, 0.0]), 1.0) for t in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_kernel([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel([1.0], [1.0, 2.0], 1.0)


def test_mmd_quadratic_identical_zero_and_symmetry():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    assert mmd_quadratic_biased(X, X, 1.0) == 0.0
    Y = rng.standard_normal((30, 3)) + 0.5
    assert mmd_quadratic_biased(X, Y, 1.0) == pytest.approx(
        mmd_quadratic_biased(Y, X, 1.0), rel=1e-12
    )


def test_mmd_quadratic_two_point_hand_value():
    kappa = 2.0
    x = np.array([[0.0, 0.0]])
    y = np.array([[kappa * math.sqrt(2), 0.0]])
    want_sq = 2.0 * (1.0 - math.exp(-1))
    got = mmd_quadratic_biased(x, y, kappa)
    assert got == pytest.approx(math.sqrt(want_sq), rel=1e-12)
    assert got == pytest.approx(1.1243847, abs=1e-6)


def test_mmd_quadratic_ordering():
    rng = np.random.default_rng(1)
    same_a = rng.standard_normal((500, 2))
    same_b = rng.standard_normal((500, 2))
    far = rng.standard_normal((500, 2)) + np.array([20.0, 0.0])
    kappa = 1.0
    assert mmd_quadratic_biased(same_a, same_b, kappa) < mmd_quadratic_biased(same_a, far, kappa)


def test_mmd_linear_statistic_identity_zero():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 2))
    assert mmd_linear_statistic(X, X, 1.0) == 0.0


def test_mmd_linear_truncates_to_even_min():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((11, 2))
    Y = rng.standard_normal((8, 2))
    assert mmd_linear_statistic(X, Y, 1.0) == mmd_linear_statistic(X[:8], Y, 1.0)
    with pytest.raises(ValueError):
        mmd_linear_statistic(X[:1], Y[:1], 1.0)


def test_mmd_linear_shuffled_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((64, 2))
    Y = rng.standard_normal((64, 2)) + 0.3
    a = mmd_linear_shuffled(X, Y, 1.0, shuffles=5, seed=9)
    b = mmd_linear_shuffled(X, Y, 1.0, shuffles=5, seed=9)
    c = mmd_linear_shuffled(X, Y, 1.0, shuffles=5, seed=10)
    assert a == b
    assert a != c


def _offdiag_mean(K):
    n = K.shape[0]
    return (K.sum() - np.trace(K)) / (n * (n - 1))


def _ustat_oracle(X, Y, kappa):
    """Exact expectation of the paired-block statistic under a random joint
    permutation: off-diagonal pair means for all three kernel blocks."""
    Kxx = np.exp(-cdist(X, X, "sqeuclidean") / (2 * kappa**2))
    Kyy = np.exp(-cdist(Y, Y, "sqeuclidean") / (2 * kappa**2))
    Kxy = np.exp(-cdist(X, Y, "sqeuclidean") / (2 * kappa**2))
    return _offdiag_mean(Kxx) + _offdiag_mean(Kyy) - 2 * _offdiag_mean(Kxy)


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_mmd_linear_mean_matches_quadratic_oracle(shift):
    rng = np.random.default_rng(5)
    n = 1000
    X = rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 2)) + shift
    kappa = 1.5
    shuffles = 100
    from shiftbound.divergences import _shuffle_permutations

    perms = _shuffle_permutations(n, shuffles, seed=3)
    values = np.array([mmd_linear_statistic(X[p], Y[p], kappa) for p in perms])
    se = values.std(ddof=1) / math.sqrt(shuffles)
    oracle = _ustat_oracle(X, Y, kappa)
    assert abs(values.mean() - oracle) <= 4 * se
    assert mmd_linear_shuffled(X, Y, kappa, shuffles, seed=3) == values.mean()
    # the biased quadratic square differs from the off-diagonal value only by
    # diagonal contributions, at most 3/n in total
    assert abs(mmd_quadratic_biased(X, Y, kappa) ** 2 - oracle) <= 3.0 / n + 1e-12


def test_mmd_estimate_identical_zero():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 2))
    cfg = MmdConfig(bandwidths=(0.5, 1.0, 2.0), shuffles=4, seed=0)
    assert mmd_estimate(X, X, cfg) == 0.0


def test_mmd_estimate_single_bandwidth_equals_shuffled():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 2))
    Y = rng.standard_normal((60, 2)) + 1.0
    cfg = MmdConfig(bandwidths=(1.0,), shuffles=6, seed=2)
    lin = mmd_linear_shuffled(X, Y, 1.0, shuffles=6, seed=2)
    assert mmd_estimate(X, Y, cfg) == math.sqrt(max(lin, 0.0))


def test_mmd_estimate_equals_max_over_bandwidths_of_shuffled():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((61, 3))
    Y = rng.standard_normal((70, 3)) + 0.4
    bandwidths = (0.3, 1.0, 2.5, 6.0)
    cfg = MmdConfig(bandwidths=bandwidths, shuffles=7, seed=5)
    best = max(mmd_linear_shuffled(X, Y, k, shuffles=7, seed=5) for k in bandwidths)
    assert mmd_estimate(X, Y, cfg) == math.sqrt(max(0.0, best))


def test_median_heuristic_matches_full_distance_matrix():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((1500, 3))
    Y = rng.standard_normal((1101, 3)) + 0.5
    pool = np.vstack([X, Y])[::2]
    assert len(pool) % 2 == 1 and len(pool) * 2 > 2048
    dists = cdist(pool, pool, "euclidean")
    med = float(np.median(dists[np.triu_indices(len(pool), k=1)]))
    scales = (0.25, 0.5, 1.0, 2.0, 4.0)
    assert median_heuristic_bandwidths(X, Y) == tuple(med * s for s in scales)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 64])
@pytest.mark.parametrize("rows", [2, 3, 5, 50, 52])  # 1, 3, 10, 1225, 1326 pairs
@pytest.mark.parametrize("duplicates", [False, True])
def test_median_distance_equals_pdist_median(dim, rows, duplicates):
    rng = np.random.default_rng(dim * 100 + rows)
    pool = rng.standard_normal((rows, dim)) * rng.uniform(0.01, 100.0, size=dim)
    if duplicates:
        pool[rows // 2 :] = pool[: rows - rows // 2]
    assert _median_distance(pool) == float(np.median(pdist(pool)))


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_median_heuristic_on_a_thinned_pool_equals_pdist_median(dim):
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((2100, dim))
    Y = rng.standard_normal((1949, dim)) + 0.5
    pool = np.vstack([X, Y])[::2]  # 2025 rows: an even number of pairs
    med = float(np.median(pdist(pool)))
    assert median_heuristic_bandwidths(X, Y) == tuple(med * s for s in BANDWIDTH_SCALES)


def test_median_heuristic_gathers_its_pool_without_stacking_the_samples(peak_traced_bytes):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100000, 8))
    Y = rng.standard_normal((100000, 8)) + 0.5
    step = (len(X) + len(Y)) // MEDIAN_POOL_ROWS + 1
    rows = len(range(0, len(X) + len(Y), step))
    condensed = rows * (rows - 1) // 2 * 8
    peak = peak_traced_bytes(median_heuristic_bandwidths, X, Y)
    assert peak - condensed < (X.nbytes + Y.nbytes) / 4


def _tie_pools():
    rng = np.random.default_rng(11)
    return {
        # nine distinct squared distances; the middle bucket is refined until all 64 bits are fixed
        "binary": (rng.random((2048, 8)) < 0.5).astype(float),
        "identical": np.tile(rng.standard_normal(3), (2048, 1)),
        "lattice": rng.integers(0, 3, (2048, 2)).astype(float),
        # two tight clusters: half the pairs share their top 16 bits, then spread below them
        "clusters": np.vstack([rng.standard_normal((1024, 2)), rng.standard_normal((1024, 2)) + 1e4]) * 1e-3,
        # squared distances 1, 1, 1, 4, 4, 9: the middle two lie in different buckets
        "line": np.arange(4.0)[:, None],
    }


@pytest.mark.parametrize("name", ["binary", "identical", "lattice", "clusters", "line"])
def test_median_distance_with_heavy_ties_equals_pdist_median(name):
    pool = _tie_pools()[name]
    assert _median_distance(pool) == float(np.median(pdist(pool)))


@pytest.mark.parametrize("dim", [1, 2, 9])
@pytest.mark.parametrize("rows", [2047, 2048])  # an odd and an even number of pairs
def test_median_distance_of_a_full_pool_equals_pdist_median(dim, rows):
    rng = np.random.default_rng(dim * 10 + rows)
    pool = rng.standard_normal((rows, dim)) * rng.uniform(0.01, 100.0, size=dim)
    pool[rows // 2 :] += 0.5
    assert _median_distance(pool) == float(np.median(pdist(pool)))


@pytest.mark.parametrize("binary", [False, True])
def test_median_heuristic_holds_no_condensed_distance_array(binary, peak_traced_bytes):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100000, 8))
    Y = rng.standard_normal((100000, 8)) + 0.5
    if binary:  # heavy ties: the middle bucket's bits are fixed, its values never gathered
        X, Y = (X > 0).astype(float), (Y > 0).astype(float)
    condensed = MEDIAN_POOL_ROWS * (MEDIAN_POOL_ROWS - 1) // 2 * 8
    assert peak_traced_bytes(median_heuristic_bandwidths, X, Y) < condensed / 4


@pytest.mark.parametrize("dim", [2, 9])
def test_mmd_estimate_memory_does_not_grow_with_the_shuffles(dim, peak_traced_bytes):
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((20000, dim))
    Y = rng.standard_normal((20000, dim)) + 0.3
    peaks = {
        shuffles: peak_traced_bytes(mmd_estimate, X, Y, MmdConfig((0.5, 1.0, 2.0), shuffles=shuffles))
        for shuffles in (1, 50)
    }
    assert peaks[50] <= 1.5 * peaks[1]


def test_mmd_estimate_peak_memory_at_170k_rows(peak_traced_bytes):
    """A 70,000-row sample against a 100,000-row one, 2 features, five
    bandwidths: one block of pairs and one summand row per bandwidth, under
    4 MiB; full-height paired blocks and their distance and kernel rows alone
    would take 4.3 MiB."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((70000, 2))
    Y = rng.standard_normal((100000, 2)) + 0.3
    cfg = MmdConfig(median_heuristic_bandwidths(X, Y), shuffles=3)
    assert peak_traced_bytes(mmd_estimate, X, Y, cfg) < 4 * 2**20


def test_median_heuristic_falls_back_to_one_on_identical_rows():
    # a median distance of 0 would give zero bandwidths; 1.0 stands in for it
    assert median_heuristic_bandwidths(np.ones((5, 2)), np.ones((4, 2))) == tuple(sorted(BANDWIDTH_SCALES))


def test_median_distance_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        _median_distance(np.zeros((1, 3)))


@pytest.mark.parametrize("dim", [1, 2, 9, 17])
def test_kernel_matrix_equals_cdist(dim):
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((31, dim))
    Y = rng.standard_normal((40, dim)) * 3.0
    sq = cdist(X, Y, "sqeuclidean")
    assert np.array_equal(_sq_distances(X[:, None, :], Y[None, :, :]), sq)
    assert np.array_equal(_kernel_matrix(X, Y, 0.7), np.exp(-sq / (2.0 * 0.7**2)))


@pytest.mark.parametrize("dim", [*range(1, 41), 127, 128, 129, 255, 256, 257, 300])
def test_row_sums_equal_np_sum_bit_for_bit(dim):
    # the MMD's paired squared distances; columns on scales from 1e-4 to 1e4,
    # so their squares span 1e-8 to 1e8 and any other order of the additions
    # rounds differently
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.uniform(-4.0, 4.0, dim)
    a, b = rng.standard_normal((2, 203, dim)) * scale
    out = np.empty(len(a))
    assert _paired_sq_distances(a, b, out, np.empty_like(a)) is out
    assert np.array_equal(out, np.sum((a - b) ** 2, axis=1))


def _linear_statistics_reference(X, Y, kappas, perms):
    """Reorder both samples in full, then pair rows through strided views."""
    stats = np.empty((len(kappas), len(perms)))
    for j, p in enumerate(perms):
        Xp, Yp = X[p], Y[p]
        x1, x2, y1, y2 = Xp[0::2], Xp[1::2], Yp[0::2], Yp[1::2]
        sq = [np.sum((a - b) ** 2, axis=1) for a, b in ((x1, x2), (y1, y2), (x1, y2), (x2, y1))]
        for i, kappa in enumerate(kappas):
            k_xx, k_yy, k_xy, k_yx = (np.exp(-d / (2.0 * kappa**2)) for d in sq)
            stats[i, j] = (k_xx + k_yy - k_xy - k_yx).mean()
    return stats


# 7 and 8 straddle the width from which the squared distances are summed by
# np.sum instead of in order; 16 and 17 end on one of numpy's whole groups of
# eight and one past it, and 130 is above the width at which numpy splits a
# row into two halves
@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 17, 64, 130])
def test_linear_statistics_equal_the_reorder_then_stride_reference(dim):
    rng = np.random.default_rng(dim)
    X, Y, n = _truncate_even(rng.standard_normal((101, dim)), rng.standard_normal((133, dim)) + 0.3)
    assert n == 100
    kappas = (0.25, 1.0, 4.0)
    perms = list(_shuffle_permutations(n, 6, seed=2))
    assert np.array_equal(
        _linear_statistics(X, Y, kappas, perms), _linear_statistics_reference(X, Y, kappas, perms)
    )
    identity = _linear_statistics_reference(X, Y, (1.0,), [slice(None)])[0, 0]
    assert mmd_linear_statistic(X, Y, 1.0) == identity


# 2 and 9 features take both branches of _paired_sq_distances
@pytest.mark.parametrize("dim", [2, 9])
def test_linear_statistics_across_pair_blocks_equal_the_reference(dim):
    """Two full blocks of pairs and a partial third."""
    rng = np.random.default_rng(dim)
    n = 2 * (2 * _PAIR_ROWS + 3)
    X, Y = rng.standard_normal((n, dim)), rng.standard_normal((n, dim)) + 0.3
    kappas = (0.5, 2.0)
    perms = list(_shuffle_permutations(n, 2, seed=3))
    assert np.array_equal(
        _linear_statistics(X, Y, kappas, perms), _linear_statistics_reference(X, Y, kappas, perms)
    )


def test_mmd_estimate_monotone_under_added_bandwidths():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((80, 2))
    Y = rng.standard_normal((80, 2)) + 0.7
    small = mmd_estimate(X, Y, MmdConfig(bandwidths=(1.0,), shuffles=5, seed=1))
    grown = mmd_estimate(X, Y, MmdConfig(bandwidths=(0.25, 1.0, 3.0), shuffles=5, seed=1))
    assert grown >= small


def test_mmd_estimate_close_to_quadratic_on_separated_blobs():
    rng = np.random.default_rng(9)
    kappa = 1.0
    n = 500
    X = 0.25 * rng.standard_normal((n, 2))
    Y = 0.25 * rng.standard_normal((n, 2)) + np.array([10 * kappa, 0.0])
    est = mmd_estimate(X, Y, MmdConfig(bandwidths=(kappa,), shuffles=10, seed=4))
    quad = mmd_quadratic_biased(X, Y, kappa)
    assert abs(est - quad) / quad <= 0.10


def test_mmd_config_validation():
    with pytest.raises(ValueError):
        MmdConfig(bandwidths=())
    with pytest.raises(ValueError):
        MmdConfig(bandwidths=(1.0, 0.5))
    with pytest.raises(ValueError):
        MmdConfig(bandwidths=(-1.0,))
    with pytest.raises(ValueError):
        MmdConfig(bandwidths=(1.0,), shuffles=0)


def test_mmd_linear_shuffled_refuses_zero_shuffles():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="shuffles must be >= 1"):
        mmd_linear_shuffled(X, X, 1.0, shuffles=0)
