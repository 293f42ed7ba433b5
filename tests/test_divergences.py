import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from shiftbound import (
    MixtureTaskSpec,
    MmdConfig,
    OverlapError,
    beta_infinity,
    gaussian_kernel,
    median_heuristic_bandwidths,
    mixture_weights,
    mmd_estimate,
    mmd_linear_shuffled,
    mmd_linear_statistic,
    mmd_quadratic_biased,
    one_sided_weight,
)
from shiftbound.divergences import mixture_counts


def canonical_schedule(count=120):
    """Ten classes, origin-1 share stepping by 1/12 from 1/12."""
    return MixtureTaskSpec(
        num_classes=10,
        source_share=[Fraction(c + 1, 12) for c in range(10)],
        per_class_counts=[(count, count)] * 10,
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
    assert median_heuristic_bandwidths(X, Y, scales) == tuple(med * s for s in scales)


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


def test_mixture_weights_canonical_schedule():
    spec = canonical_schedule()
    table = mixture_weights(spec)
    assert table[0][1] == Fraction(11, 1)
    assert table[0][0] == Fraction(1, 11)
    assert float(table[0][0]) == pytest.approx(0.0909, abs=1e-4)
    assert beta_infinity(spec) == 11.0


def test_mixture_weights_no_shift():
    spec = MixtureTaskSpec(
        num_classes=4,
        source_share=[Fraction(1, 2)] * 4,
        per_class_counts=[(10, 10)] * 4,
    )
    assert all(w == 1 for row in mixture_weights(spec) for w in row)
    assert beta_infinity(spec) == 1.0


def test_mixture_overlap_violation_refused():
    spec = MixtureTaskSpec(
        num_classes=2,
        source_share=[Fraction(0), Fraction(1, 2)],
        per_class_counts=[(10, 10)] * 2,
    )
    with pytest.raises(OverlapError):
        mixture_weights(spec)
    spec_full = MixtureTaskSpec(
        num_classes=2,
        source_share=[Fraction(1), Fraction(1, 2)],
        per_class_counts=[(10, 10)] * 2,
    )
    with pytest.raises(OverlapError):
        beta_infinity(spec_full)


def test_mixture_mass_balance_identity():
    spec = canonical_schedule(count=60)
    src, tgt = mixture_counts(spec)
    table = mixture_weights(spec)
    total_s = sum(a + b for a, b in src)
    total_t = sum(a + b for a, b in tgt)
    for c in range(spec.num_classes):
        for o in range(2):
            assert Fraction(src[c][o]) * table[c][o] == Fraction(tgt[c][o] * total_s, total_t)


def test_one_sided_weight_values():
    w = one_sided_weight(0.2, 246072, 89696)
    assert w == pytest.approx(4 * 246072 / 89696, rel=1e-12)
    assert abs(w - 10.974) < 1e-3
    assert one_sided_weight(0.5, 1000, 1000) == 1.0
    with pytest.raises(ValueError):
        one_sided_weight(0.0, 10, 10)


def test_weight_table_cells():
    spec = canonical_schedule(count=12)
    src, tgt = mixture_counts(spec)
    table = mixture_weights(spec)
    # one cell per (class, origin)
    assert sum(map(len, src)) == sum(map(len, tgt)) == sum(map(len, table)) == 20
    assert (src[0][0], tgt[0][0]) == (11, 1)
    assert float(table[0][0]) == pytest.approx(1 / 11)
