import csv
import io
import json
import math
import re
import shutil
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from shiftbound import (
    LabeledSample,
    MixtureTaskSpec,
    MlpArchitecture,
    OneSidedSpec,
    OverlapError,
    PosteriorSampleSet,
    SyntheticSpec,
    apply_label_rule,
    beta_infinity,
    build_mixture_task,
    build_one_sided_task,
    build_synthetic_task,
    density_ratio,
    estimate_risks,
    load_dataset,
    load_task,
    one_sided_weight,
    save_dataset,
    save_task,
    tasks,
)
from shiftbound.tasks import (
    CHUNK,
    TaskInstance,
    _fraction_to_json,
    _logaddexp_columns,
    _write_csv,
    default_synthetic_spec,
    mixture_counts,
    mixture_weights,
    synthetic_beta_infinity,
)


def make_pools(per_class_counts, num_classes, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    pools = []
    for origin in range(2):
        feats, labels = [], []
        for c in range(num_classes):
            n = per_class_counts[c][origin]
            feats.append(rng.standard_normal((n, dim)) + c)
            labels.extend([c] * n)
        pools.append(
            LabeledSample(features=np.vstack(feats), labels=np.array(labels))
        )
    return pools


def canonical_spec(count=24):
    return MixtureTaskSpec(
        num_classes=10,
        source_share=[Fraction(c + 1, 12) for c in range(10)],
        per_class_counts=[(count, count)] * 10,
    )


def test_mixture_task_canonical_beta():
    spec = canonical_spec()
    pool0, pool1 = make_pools(spec.per_class_counts, 10)
    task = build_mixture_task(pool0, pool1, spec, seed=1)
    assert task.beta_inf == 11.0
    assert float(task.source.weights.max()) == 11.0
    # attached weights are exact lookups of the weight table
    table = mixture_weights(spec)
    max_weight_rows = task.source.weights == 11.0
    assert np.all(task.source.origin[max_weight_rows] == 1)
    assert float(table[0][1]) == 11.0


def test_mixture_task_even_shares_no_shift():
    spec = MixtureTaskSpec(
        num_classes=4,
        source_share=[Fraction(1, 2)] * 4,
        per_class_counts=[(20, 20)] * 4,
    )
    pool0, pool1 = make_pools(spec.per_class_counts, 4)
    task = build_mixture_task(pool0, pool1, spec, seed=0)
    assert np.all(task.source.weights == 1.0)
    assert len(task.source) == len(task.target_labeled_oracle)
    assert task.beta_inf == 1.0


def test_mixture_task_partition_exact():
    spec = canonical_spec(count=12)
    pool0, pool1 = make_pools(spec.per_class_counts, 10)
    task = build_mixture_task(pool0, pool1, spec, seed=3)
    all_pool_rows = np.vstack([pool0.features, pool1.features])
    all_task_rows = np.vstack([task.source.features, task.target_labeled_oracle.features])
    assert all_pool_rows.shape == all_task_rows.shape
    pool_sorted = all_pool_rows[np.lexsort(all_pool_rows.T)]
    task_sorted = all_task_rows[np.lexsort(all_task_rows.T)]
    assert np.array_equal(pool_sorted, task_sorted)


def test_mixture_task_binarises_labels():
    spec = canonical_spec(count=12)
    pool0, pool1 = make_pools(spec.per_class_counts, 10)
    task = build_mixture_task(pool0, pool1, spec, seed=2)
    assert set(np.unique(task.source.labels)) <= {0, 1}
    assert set(np.unique(task.target_labeled_oracle.labels)) <= {0, 1}
    # classes 0-4 map to 0: the share-weighted label balance must follow
    assert spec.binary_label(4) == 0 and spec.binary_label(5) == 1


def test_mixture_task_count_mismatch_rejected():
    spec = canonical_spec(count=12)
    pool0, pool1 = make_pools([(12, 12)] * 9 + [(13, 12)], 10)
    with pytest.raises(ValueError):
        build_mixture_task(pool0, pool1, spec, seed=0)


TWO_CLASS_SPEC = MixtureTaskSpec(num_classes=2, source_share=["1/2", "1/2"], per_class_counts=[(20, 20)] * 2)


def _zero_pool(labels, dim=2):
    return LabeledSample(features=np.zeros((len(labels), dim)), labels=labels)


@pytest.mark.parametrize("bad_pool, labels, outside", [
    (1, np.repeat([0, 1, 2], 20), 20),
    (0, np.append(np.repeat([0, 1], 20), -1), 1),
], ids=["undeclared class", "negative label"])
def test_mixture_task_refuses_labels_outside_the_classes(bad_pool, labels, outside):
    pools = [_zero_pool(np.repeat([0, 1], 20)) for _ in range(2)]
    pools[bad_pool] = _zero_pool(labels)
    message = f"pool{bad_pool} has {outside} rows outside the spec's classes 0..1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_mixture_task(*pools, TWO_CLASS_SPEC, seed=0)


@pytest.mark.parametrize("build, message", [
    (lambda narrow, wide: build_mixture_task(narrow, wide, TWO_CLASS_SPEC, seed=0),
     "pool1 has 3 features, pool0 has 2"),
    (lambda narrow, wide: build_one_sided_task(narrow, wide, 0.5),
     "pool_shared has 3 features, pool_source_only has 2"),
], ids=["mixture", "one_sided"])
def test_pooled_task_refuses_pools_of_unequal_feature_counts(build, message):
    labels = np.repeat([0, 1], 20)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(_zero_pool(labels), _zero_pool(labels, dim=3))


def test_mixture_weights_canonical_schedule():
    spec = canonical_spec(count=120)
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
    spec = canonical_spec(count=60)
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


@pytest.mark.parametrize("num_source, num_target", [(0, 10), (10, 0)])
def test_one_sided_weight_refuses_an_empty_side(num_source, num_target):
    with pytest.raises(ValueError, match="^counts must be positive$"):
        one_sided_weight(0.5, num_source, num_target)


def test_weight_table_cells():
    spec = canonical_spec(count=12)
    src, tgt = mixture_counts(spec)
    table = mixture_weights(spec)
    # one cell per (class, origin)
    assert sum(map(len, src)) == sum(map(len, tgt)) == sum(map(len, table)) == 20
    assert (src[0][0], tgt[0][0]) == (11, 1)
    assert float(table[0][0]) == pytest.approx(1 / 11)


def test_one_sided_task_weights_and_counts():
    rng = np.random.default_rng(0)
    pool0 = LabeledSample(
        features=rng.standard_normal((300, 2)), labels=rng.integers(0, 2, 300)
    )
    shared = LabeledSample(
        features=rng.standard_normal((200, 2)), labels=rng.integers(0, 2, 200)
    )
    # 40 (then 70) shared rows move to the source: weight ((1 - f)/f) * (#S/#T),
    # rounded once from exact arithmetic (float arithmetic misses at 0.35)
    for move_fraction, k in ((0.2, 40), (0.35, 70)):
        task = build_one_sided_task(pool0, shared, move_fraction=move_fraction, seed=1)
        assert len(task.source) == 300 + k
        assert len(task.target_labeled_oracle) == 200 - k
        want = float(Fraction(200 - k, k) * Fraction(300 + k, 200 - k))
        shared_rows = task.source.origin == 1
        assert np.all(task.source.weights[shared_rows] == want)
        assert np.all(task.source.weights[~shared_rows] == 0.0)
        assert task.beta_inf == want


def test_one_sided_task_balanced_gives_unit_weight():
    rng = np.random.default_rng(1)
    pool0 = LabeledSample(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
    shared = LabeledSample(
        features=rng.standard_normal((300, 2)), labels=rng.integers(0, 2, 300)
    )
    task = build_one_sided_task(pool0, shared, move_fraction=0.5, seed=0)
    assert task.beta_inf == 1.0
    assert len(task.target_labeled_oracle) == 150


def test_one_sided_task_degenerate_fraction():
    rng = np.random.default_rng(2)
    pool0 = LabeledSample(features=rng.standard_normal((5, 2)), labels=[0] * 5)
    shared = LabeledSample(features=rng.standard_normal((5, 2)), labels=[1] * 5)
    with pytest.raises(ValueError):
        build_one_sided_task(pool0, shared, move_fraction=0.0)
    with pytest.raises(OverlapError):
        build_one_sided_task(pool0, shared, move_fraction=0.01)


@pytest.mark.parametrize("move_fraction, seed, message", [
    ("0.3", 0, "move_fraction must be a number, got '0.3'"),
    (0.5, None, "seed must be an integer, got None"),
])
def test_one_sided_task_refuses_a_spec_value_by_name(move_fraction, seed, message):
    pool = LabeledSample(features=np.zeros((4, 1)), labels=[0, 1, 0, 1])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_one_sided_task(pool, pool, move_fraction, seed)


@pytest.mark.parametrize("ternary_first", [True, False], ids=["source-only pool", "shared pool"])
def test_one_sided_task_refuses_a_non_binary_label(ternary_first):
    binary = LabeledSample(features=np.zeros((4, 1)), labels=[0, 1, 0, 1])
    ternary = LabeledSample(features=np.zeros((4, 1)), labels=[0, 1, 2, 1])
    pools = (ternary, binary) if ternary_first else (binary, ternary)
    with pytest.raises(ValueError, match="^one-sided pools must carry binary labels$"):
        build_one_sided_task(*pools, 0.5)


@pytest.mark.parametrize("weights, message", [
    (None, "task source must carry importance weights"),
    ([1.0, 2.5], "attached weights exceed the declared beta_inf"),
])
def test_task_instance_refuses_missing_or_excess_weights(weights, message):
    source = LabeledSample(features=np.zeros((2, 1)), labels=[0, 1], weights=weights)
    target = LabeledSample(features=np.zeros((2, 1)), labels=[0, 1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        TaskInstance(source=source, target_labeled_oracle=target, spec=default_synthetic_spec(0), beta_inf=2.0)


def risks_of(arch, w, task):
    """``estimate_risks`` for the single classifier ``w`` (a pair of identical
    draws), with the task's labeled target as oracle."""
    draws = PosteriorSampleSet(draws=np.stack([w, w]))
    return estimate_risks(arch, draws, task.source, task.target_labeled_oracle)


def test_one_sided_weighted_risk_ignores_out_of_support_rows():
    rng = np.random.default_rng(3)
    pool0 = LabeledSample(features=rng.standard_normal((50, 1)) + 10, labels=[0] * 50)
    shared = LabeledSample(
        features=rng.standard_normal((100, 1)), labels=rng.integers(0, 2, 100)
    )
    task = build_one_sided_task(pool0, shared, move_fraction=0.5, seed=0)
    arch = MlpArchitecture((1, 1))
    always_one = np.array([0.0, 5.0])
    # pool0 rows (all labeled 0, all misclassified) have weight 0 and must
    # contribute nothing: the weighted risk reduces to a sum over shared rows
    wr = risks_of(arch, always_one, task).gibbs_weighted_risk
    shared_mask = task.source.origin == 1
    shared_errors = task.source.labels[shared_mask] == 0
    manual = float(
        np.sum(task.source.weights[shared_mask] * shared_errors) / len(task.source)
    )
    assert wr == pytest.approx(manual, abs=1e-15)
    assert np.all(task.source.weights[~shared_mask] == 0.0)
    assert np.any(task.source.labels[~shared_mask] == 0)  # those rows do err


def test_synthetic_no_shift_unit_weights():
    spec = SyntheticSpec(
        dim=2,
        component_means=((-1.0, 0.0), (1.0, 0.0)),
        component_std=1.0,
        source_mix=(0.5, 0.5),
        target_mix=(0.5, 0.5),
        n_source=100,
        n_target=100,
        seed=0,
        rule_vector=(0.0, 1.0),
    )
    task = build_synthetic_task(spec)
    assert np.all(task.source.weights == 1.0)
    assert task.beta_inf == 1.0


def test_synthetic_beta_nine_and_grid_maximisation():
    spec = SyntheticSpec(
        dim=1,
        component_means=((-2.0,), (2.0,)),
        component_std=1.0,
        source_mix=(0.9, 0.1),
        target_mix=(0.1, 0.9),
        n_source=50,
        n_target=50,
        seed=1,
    )
    beta = synthetic_beta_infinity(spec)
    assert beta == pytest.approx(9.0, abs=1e-9)
    grid = np.linspace(-10, 10, 20001)[:, None]
    ratios = density_ratio(spec, grid)
    assert ratios.max() <= beta + 1e-9
    assert ratios.max() >= beta - 0.05
    task = build_synthetic_task(spec)
    assert task.source.weights.max() <= beta + 1e-9


def _density_ratio_reference(spec, X):
    """The log-space ratio through scipy's logsumexp."""
    means = np.asarray(spec.component_means)
    logphi = np.stack(
        [-np.sum((X - means[k]) ** 2, axis=1) / (2.0 * spec.component_std**2) for k in range(2)],
        axis=1,
    )
    with np.errstate(divide="ignore"):
        log_t = logsumexp(logphi + np.log(spec.target_mix), axis=1)
        log_s = logsumexp(logphi + np.log(spec.source_mix), axis=1)
    return np.exp(log_t - log_s)


@pytest.mark.parametrize(
    "source_mix, target_mix",
    [((0.9, 0.1), (0.1, 0.9)), ((0.5, 0.5), (0.5, 0.5)), ((0.3, 0.7), (1.0, 0.0)), ((0.5, 0.5), (0.0, 1.0))],
    ids=["flipped", "equal-mixes-tie", "zero-target-component", "zero-first-target-component"],
)
@pytest.mark.parametrize("std", [1.0, 0.01])  # 0.01: |log phi| up to about 1e10
def test_density_ratio_equals_logsumexp_formula(source_mix, target_mix, std):
    spec = SyntheticSpec(
        dim=2,
        component_means=((-1.0, 0.0), (1.0, 0.0)),
        component_std=std,
        source_mix=source_mix,
        target_mix=target_mix,
        n_source=1,
        n_target=1,
        seed=0,
    )
    rng = np.random.default_rng(0)
    bisector = np.column_stack([np.zeros(50), rng.standard_normal(50)])  # equal component likelihoods
    X = np.vstack([bisector, rng.standard_normal((500, 2)), 1e3 * rng.standard_normal((50, 2))])
    assert np.array_equal(density_ratio(spec, X), _density_ratio_reference(spec, X), equal_nan=True)


def test_logaddexp_columns_equals_logsumexp_on_edge_entries():
    big = np.finfo(np.float64).max
    values = [-np.inf, -1e308, -745.2, -1.0, -0.0, 0.0, 1e-300, 0.5, 700.0, big, np.inf, np.nan]
    a = np.array([(u, v) for u in values for v in values])
    with np.errstate(all="ignore"):
        expected = logsumexp(a, axis=1)
    got = _logaddexp_columns(a)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_synthetic_unbounded_ratio_refused():
    with pytest.raises(OverlapError):
        SyntheticSpec(
            dim=1,
            component_means=((-2.0,), (2.0,)),
            component_std=1.0,
            source_mix=(1.0, 0.0),
            target_mix=(0.1, 0.9),
            n_source=10,
            n_target=10,
            seed=0,
        )


# A spec field of the wrong type is refused by its name, not truncated or
# passed on to fail later without one.
SHARE = "must be a fraction such as '1/12' or a finite number"
SPEC_FIELD_REFUSALS = {
    "fractional n_source": ("synthetic", "n_source", 300.5, "n_source must be an integer, got 300.5"),
    "bool n_target": ("synthetic", "n_target", True, "n_target must be an integer, got True"),
    "string dim": ("synthetic", "dim", "2", "dim must be an integer, got '2'"),
    "fractional seed": ("synthetic", "seed", 1.5, "seed must be an integer, got 1.5"),
    "string seed": ("synthetic", "seed", "x", "seed must be an integer, got 'x'"),
    "fractional count": (
        "mixture", "per_class_counts", [[2.7, 3]] + [[3, 3]] * 3, "per_class_counts[0][0] must be an integer, got 2.7"
    ),
    "string count": (
        "mixture", "per_class_counts", [[3, 3], [3, "5"]] + [[3, 3]] * 2,
        "per_class_counts[1][1] must be an integer, got '5'",
    ),
    "count triple": (
        "mixture", "per_class_counts", [[3, 3]] * 3 + [[3, 3, 3]], "per_class_counts[3] must be a pair, got [3, 3, 3]"
    ),
    "fractional threshold": (
        "mixture", "binary_relabel_threshold", 1.9, "binary_relabel_threshold must be an integer, got 1.9"
    ),
    # a single class, or a threshold outside [1, num_classes - 1], would give
    # both domains one label
    "one class": ("mixture", "num_classes", 1, "num_classes must be >= 2"),
    **{
        f"threshold {t}": ("mixture", "binary_relabel_threshold", t,
                           f"binary_relabel_threshold must be 0 or lie in [1, 3], got {t}")
        for t in (4, 7, -2)
    },
    # a NaN or an infinity is refused with its field and index, not passed on
    # to build labels that are all 0 or features that fail without a key
    "nan mean": (
        "synthetic", "component_means", [[-0.5, 0.0], [math.nan, 0.0]], "component_means[1][0] must be finite, got nan"
    ),
    "inf std": ("synthetic", "component_std", math.inf, "component_std must be finite, got inf"),
    "nan source mix": ("synthetic", "source_mix", [math.nan, 0.1], "source_mix[0] must be finite, got nan"),
    "-inf target mix": ("synthetic", "target_mix", [0.1, -math.inf], "target_mix[1] must be finite, got -inf"),
    "inf rule vector": ("synthetic", "rule_vector", [0.0, math.inf], "rule_vector[1] must be finite, got inf"),
    "nan rule offset": ("synthetic", "rule_offset", math.nan, "rule_offset must be finite, got nan"),
    "share string": ("mixture", "source_share", "1/3", "source_share must be a list, got '1/3'"),
    "share null": ("mixture", "source_share", [None, "2/3", "1/3", "2/3"], f"source_share[0] {SHARE}, got None"),
    "share bool": ("mixture", "source_share", [True, "2/3", "1/3", "2/3"], f"source_share[0] {SHARE}, got True"),
    "share nan": ("mixture", "source_share", ["1/3", math.nan, "1/3", "2/3"], f"source_share[1] {SHARE}, got nan"),
    "share inf": ("mixture", "source_share", ["1/3", "2/3", math.inf, "2/3"], f"source_share[2] {SHARE}, got inf"),
    "share text": ("mixture", "source_share", ["1/3", "2/3", "x", "2/3"], f"source_share[2] {SHARE}, got 'x'"),
    "share over zero": ("mixture", "source_share", ["1/3", "2/3", "1/3", "1/0"], f"source_share[3] {SHARE}, got '1/0'"),
    "share list": ("mixture", "source_share", [["1/3"], "2/3", "1/3", "2/3"], f"source_share[0] {SHARE}, got ['1/3']"),
    # a well-typed field outside the construction's domain
    "three components": (
        "synthetic", "component_means", [[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0]],
        "exactly two mixture components are supported",
    ),
    "short mean": ("synthetic", "component_means", [[-0.5], [0.5, 0.0]], "component means must have length dim"),
    "equal means": ("synthetic", "component_means", [[0.5, 0.0], [0.5, 0.0]], "component means must be distinct"),
    "zero std": ("synthetic", "component_std", 0.0, "component_std must be positive"),
    "source mix over 1": (
        "synthetic", "source_mix", [0.9, 0.2], "mixes must be two nonnegative weights summing to 1"
    ),
    "negative target mix": (
        "synthetic", "target_mix", [-0.1, 1.1], "mixes must be two nonnegative weights summing to 1"
    ),
    "zero n_target": ("synthetic", "n_target", 0, "sample sizes must be positive"),
    "unknown label rule": ("synthetic", "label_rule", "ball", "label_rule must be one of ('halfspace',)"),
    "short rule vector": ("synthetic", "rule_vector", [1.0], "rule_vector must have length dim"),
    "three shares": ("mixture", "source_share", ["1/3", "2/3", "1/3"], "need one source share per class"),
    "share over 1": ("mixture", "source_share", ["1/3", "4/3", "1/3", "2/3"], "shares must lie in [0, 1]"),
    "three count pairs": ("mixture", "per_class_counts", [[3, 3]] * 3, "need per-origin counts for every class"),
    "zero count": (
        "mixture", "per_class_counts", [[3, 3], [0, 3], [3, 3], [3, 3]], "per-class counts must be >= 1"
    ),
}
SPEC_DOCS = {
    "synthetic": {
        "dim": 2, "component_means": [[-0.5, 0.0], [0.5, 0.0]], "component_std": 1.0, "source_mix": [0.9, 0.1],
        "target_mix": [0.1, 0.9], "n_source": 300, "n_target": 300, "seed": 0,
    },
    "mixture": {"num_classes": 4, "source_share": ["1/3", "2/3", "1/3", "2/3"], "per_class_counts": [[3, 3]] * 4},
}


@pytest.mark.parametrize("kind, key, value, message", SPEC_FIELD_REFUSALS.values(), ids=SPEC_FIELD_REFUSALS)
def test_spec_from_json_refuses_a_field_by_name(kind, key, value, message):
    tasks.spec_from_json(kind, SPEC_DOCS[kind])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tasks.spec_from_json(kind, {**SPEC_DOCS[kind], key: value})


def test_mixture_shares_are_held_exactly():
    spec = MixtureTaskSpec(
        num_classes=5,
        source_share=[Fraction(1, 3), "2/3", 0.1, 1, np.float32(0.25)],
        per_class_counts=[(3, 3)] * 5,
    )
    assert spec.source_share == (Fraction(1, 3), Fraction(2, 3), Fraction(0.1), Fraction(1), Fraction(1, 4))
    assert all(type(share) is Fraction for share in spec.source_share)


def test_synthetic_covariate_shift_invariance():
    task = build_synthetic_task(default_synthetic_spec(seed=5, n_source=200, n_target=200))
    relabeled = apply_label_rule(task.spec, task.target_x.features)
    assert np.array_equal(relabeled, task.target_labeled_oracle.labels)
    relabeled_src = apply_label_rule(task.spec, task.source.features)
    assert np.array_equal(relabeled_src, task.source.labels)


def test_synthetic_importance_weighting_identity():
    # E[weighted source risk] equals E[target risk] for a fixed classifier
    arch = MlpArchitecture((2, 4, 1))
    rng = np.random.default_rng(7)
    w = rng.standard_normal(arch.num_params)
    ws, rt = [], []
    for rep in range(50):
        spec = default_synthetic_spec(seed=1000 + rep, n_source=400, n_target=400)
        task = build_synthetic_task(spec)
        est = risks_of(arch, w, task)
        ws.append(est.gibbs_weighted_risk)
        rt.append(est.oracle_target_gibbs_risk)
    ws, rt = np.array(ws), np.array(rt)
    se = np.sqrt(ws.var(ddof=1) / 50 + rt.var(ddof=1) / 50)
    assert abs(ws.mean() - rt.mean()) <= 4 * se


def test_source_weight_mean_near_one():
    # exact density ratios self-normalise: E_source[w] = 1
    means = []
    for rep in range(50):
        task = build_synthetic_task(
            default_synthetic_spec(seed=2000 + rep, n_source=400, n_target=10)
        )
        means.append(task.source.weights.mean())
    means = np.array(means)
    se = means.std(ddof=1) / np.sqrt(50)
    assert abs(means.mean() - 1.0) <= 4 * se


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    sample = LabeledSample(
        features=rng.standard_normal((7, 3)),
        labels=rng.integers(0, 2, 7),
        origin=rng.integers(0, 2, 7),
    )
    path = tmp_path / "data.csv"
    save_dataset(sample, path)
    loaded = load_dataset(path, num_classes=2)
    assert np.array_equal(loaded.features, sample.features)
    assert np.array_equal(loaded.labels, sample.labels)
    assert np.array_equal(loaded.origin, sample.origin)


def test_dataset_csv_header_and_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    sample = load_dataset(path, num_classes=2)
    assert len(sample) == 3
    assert sample.origin is None


def test_dataset_csv_label_range(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("f0,label\n1.0,7\n")
    assert load_dataset(path, num_classes=10).labels[0] == 7
    path.write_text("f0,label\n1.0,11\n")
    with pytest.raises(ValueError, match="11"):
        load_dataset(path, num_classes=10)


def test_dataset_csv_rejects_nan_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\nnan,2.0,1\n")
    with pytest.raises(ValueError, match=":3"):
        load_dataset(path)


def test_dataset_csv_malformed_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("f0,f1,label\n1.0,0\n")
    with pytest.raises(ValueError, match=":2"):
        load_dataset(path)
    path.write_text("x0,f1,label\n1.0,2.0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(path)


def test_task_directory_roundtrip(tmp_path):
    task = build_synthetic_task(default_synthetic_spec(seed=3, n_source=60, n_target=40))
    save_task(task, tmp_path / "task")
    loaded = load_task(tmp_path / "task")
    assert loaded.kind == "synthetic"
    assert loaded.beta_inf == task.beta_inf
    assert np.array_equal(loaded.source.features, task.source.features)
    assert np.array_equal(loaded.source.weights, task.source.weights)
    assert np.array_equal(loaded.target_x.features, task.target_x.features)
    assert np.array_equal(loaded.target_labeled_oracle.labels, task.target_labeled_oracle.labels)
    assert loaded.spec == task.spec


def test_mixture_task_directory_roundtrip(tmp_path):
    spec = canonical_spec(count=12)
    pool0, pool1 = make_pools(spec.per_class_counts, 10)
    task = build_mixture_task(pool0, pool1, spec, seed=4)
    save_task(task, tmp_path / "mix")
    loaded = load_task(tmp_path / "mix")
    assert loaded.kind == "mixture"
    assert loaded.beta_inf == 11.0
    assert loaded.spec == spec
    assert np.array_equal(loaded.source.weights, task.source.weights)


def test_manifest_writes_fractions_only():
    assert _fraction_to_json(Fraction(1, 12)) == "1/12"
    assert _fraction_to_json(Fraction(1)) == "1"
    for value in (np.int64(1), {1, 2}, 0.5):
        with pytest.raises(TypeError, match="cannot write .* to a task manifest"):
            _fraction_to_json(value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("", "weights.csv:3: expected 1 fields, got 0"),
        ("1.0,2.0", "weights.csv:3: expected 1 fields, got 2"),
        ("abc", "weights.csv:3: bad weight value"),
    ],
)
def test_task_weights_csv_malformed_row_refused_with_line(tmp_path, line, message):
    task = build_synthetic_task(default_synthetic_spec(seed=3, n_source=60, n_target=40))
    save_task(task, tmp_path / "task")
    weights = tmp_path / "task" / "weights.csv"
    lines = weights.read_text().splitlines()
    lines[2] = line
    weights.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_task(tmp_path / "task")


def _small_task():
    feats = np.array([[-0.0, 5e-324], [1e308, 0.1], [1 / 3, -2.5], [3.0, -1e-7]])
    source = LabeledSample(
        features=feats, labels=[0, 1, 1, 0], origin=[1, 0, 0, 1], weights=[0.0, 1 / 3, 2.5, 0.1]
    )
    target = LabeledSample(features=feats[::-1] * 0.5, labels=[1, 0, 1, 1])
    return TaskInstance(
        source=source,
        target_labeled_oracle=target,
        spec=OneSidedSpec(0.25, 0),
        beta_inf=2.5,
    )


def test_task_target_x_is_the_oracle_view():
    task = _small_task()
    assert task.target_x.features is task.target_labeled_oracle.features
    views = {k: getattr(task, k) for k in ("source", "target_labeled_oracle", "spec", "beta_inf")}
    with pytest.raises(TypeError):  # no separate target view can be passed in
        TaskInstance(target_x=task.target_x, **views)


def test_save_task_writes_pinned_bytes(tmp_path):
    # the bytes csv.writer wrote for these rows: repr floats, CRLF endings
    save_task(_small_task(), tmp_path / "task")
    files = {p.name: p.read_bytes() for p in (tmp_path / "task").iterdir()}
    assert files == {
        "source.csv": b"f0,f1,label,origin\r\n-0.0,5e-324,0,1\r\n1e+308,0.1,1,0\r\n"
        b"0.3333333333333333,-2.5,1,0\r\n3.0,-1e-07,0,1\r\n",
        "target.csv": b"f0,f1,label\r\n1.5,-5e-08,1\r\n0.16666666666666666,-1.25,0\r\n"
        b"5e+307,0.05,1\r\n-0.0,0.0,1\r\n",
        "weights.csv": b"weight\r\n0.0\r\n0.3333333333333333\r\n2.5\r\n0.1\r\n",
        "manifest.json": b'{\n  "beta_inf": 2.5,\n  "files": {\n    "source": "source.csv",\n'
        b'    "target": "target.csv",\n    "weights": "weights.csv"\n  },\n'
        b'  "kind": "one_sided",\n  "spec": {\n    "move_fraction": 0.25,\n    "seed": 0\n  }\n}\n',
    }
    save_dataset(_small_task().source, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == files["source.csv"]


def test_save_task_peak_memory_at_40k_rows(tmp_path, peak_traced_bytes):
    """A 20,000 + 20,000-row synthetic task is written a CHUNK of rows at a
    time, under 1.5 MiB; its source features alone take 0.3 MiB."""
    task = build_synthetic_task(default_synthetic_spec(seed=0, n_source=20000, n_target=20000))
    assert peak_traced_bytes(save_task, task, tmp_path / "task") < 1.5 * 2**20


@pytest.mark.parametrize("with_origin", [True, False])
def test_dataset_csv_roundtrip_across_chunks(tmp_path, with_origin):
    n = 2 * CHUNK + 3
    rng = np.random.default_rng(1)
    sample = LabeledSample(
        features=rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3)),
        labels=rng.integers(0, 2, n),
        origin=rng.integers(0, 2, n) if with_origin else None,
    )
    save_dataset(sample, tmp_path / "data.csv")
    loaded = load_dataset(tmp_path / "data.csv")
    assert np.array_equal(loaded.features, sample.features)
    assert loaded.features.flags["C_CONTIGUOUS"]
    assert np.array_equal(loaded.labels, sample.labels)
    if with_origin:
        assert np.array_equal(loaded.origin, sample.origin)
    else:
        assert loaded.origin is None


# Refusals as `path<suffix>`, each the exact message the row-by-row parser
# gave; the files hold a little more than SPAN rows, four whole CHUNKs, so a
# fault can sit on either side of a chunk boundary.
SPAN = 4 * CHUNK
LAST_OF_SPAN = SPAN + 1  # data rows start on line 2
DATASET_FAULTS = [
    ({3: "1.0,2.0,0"}, ":3: expected 4 fields, got 3"),
    ({3: "1.0,2.0,0,1,5"}, ":3: expected 4 fields, got 5"),
    ({3: ""}, ":3: expected 4 fields, got 0"),
    ({3: "abc,2.0,0,1"}, ":3: bad feature value (could not convert string to float: 'abc')"),
    ({3: "nan,2.0,0,1"}, ":3: non-finite feature value"),
    ({3: "1.0,inf,0,1"}, ":3: non-finite feature value"),
    ({3: "1e999,2.0,0,1"}, ":3: non-finite feature value"),
    ({3: "1.0,2.0,1.0,1"}, ":3: bad label '1.0'"),
    ({3: "1.0,2.0,x,1"}, ":3: bad label 'x'"),
    ({3: "1.0,2.0,2,1"}, ":3: label 2 outside declared 2 classes"),
    ({3: "1.0,2.0,-1,1"}, ":3: label -1 outside declared 2 classes"),
    ({3: "1.0,2.0,99999999999999999999,1"}, ":3: label 99999999999999999999 outside declared 2 classes"),
    ({3: "1.0,2.0,0,x"}, ":3: bad origin 'x'"),
    ({3: "1.0,2.0,0,1.0"}, ":3: bad origin '1.0'"),
    ({3: "1.0,2.0,0,2"}, ":3: origin must be 0 or 1"),
    ({3: "1.0,2.0,0,99999999999999999999"}, ":3: origin must be 0 or 1"),
    ({LAST_OF_SPAN: "nan,1,0,1"}, f":{LAST_OF_SPAN}: non-finite feature value"),
    ({LAST_OF_SPAN + 1: "1,1,0,7"}, f":{LAST_OF_SPAN + 1}: origin must be 0 or 1"),
    ({SPAN + 10: "1,1"}, f":{SPAN + 10}: expected 4 fields, got 2"),
    ({3: "nan,1,0,1", 4: "1,1"}, ":3: non-finite feature value"),
    ({3: "1,1", 4: "nan,1,0,1"}, ":3: expected 4 fields, got 2"),
    ({3: "1,1,0,2", 6: "1,1,0,1,1"}, ":3: origin must be 0 or 1"),
    ({SPAN: "1,1,5,1", SPAN + 15: "1,1"}, f":{SPAN}: label 5 outside declared 2 classes"),
]
# A blank line and an extra field are in
# test_task_weights_csv_malformed_row_refused_with_line.
WEIGHTS_FAULTS = [
    ({3: "abc"}, ":3: bad weight value (could not convert string to float: 'abc')"),
    ({3: "nan"}, ":3: non-finite weight value"),
    ({3: "-inf"}, ":3: non-finite weight value"),
    ({LAST_OF_SPAN: "inf"}, f":{LAST_OF_SPAN}: non-finite weight value"),
    (
        {LAST_OF_SPAN + 1: "x"},
        f":{LAST_OF_SPAN + 1}: bad weight value (could not convert string to float: 'x')",
    ),
    ({SPAN + 10: "1,1"}, f":{SPAN + 10}: expected 1 fields, got 2"),
    ({3: "inf", 4: "1,1"}, ":3: non-finite weight value"),
    ({3: "1,1", 4: "inf"}, ":3: expected 1 fields, got 2"),
    (
        {SPAN: "abc", SPAN + 15: ""},
        f":{SPAN}: bad weight value (could not convert string to float: 'abc')",
    ),
    ({3: "-1.0"}, ":3: negative weight value"),
    ({LAST_OF_SPAN + 1: "-5e-324"}, f":{LAST_OF_SPAN + 1}: negative weight value"),
    ({3: "-1.0", 4: "nan"}, ":3: negative weight value"),
    ({3: "nan", 4: "-1.0"}, ":3: non-finite weight value"),
]
FILE_FAULTS = {
    "dataset": [
        ("", ": empty file"),
        ("f0,f1,label,origin\n", ": no data rows"),
        ("x0,f1,label,origin\n0.5,1.5,0,1\n", ": header must be f0..f{d-1},label[,origin]"),
        ("\nf0,f1,label,origin\n0.5,1.5,0,1\n", ": header must be f0..f{d-1},label[,origin]"),
        ("label,origin\n0,1\n", ": header must be f0..f{d-1},label[,origin]"),
    ],
    "weights": [
        ("", ": header must be the single column 'weight'"),
        ("w\n0.5\n", ": header must be the single column 'weight'"),
    ],
}


def _edit_lines(path, edits):
    lines = path.read_text().splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def chunked_task(tmp_path_factory):
    """A task directory whose source holds a little more than SPAN rows."""
    path = tmp_path_factory.mktemp("chunked") / "task"
    spec = default_synthetic_spec(seed=3, n_source=SPAN + 20, n_target=40)
    save_task(build_synthetic_task(spec), path)
    return path


def _refusal(load, path):
    with pytest.raises(ValueError) as info:
        load()
    return str(info.value).removeprefix(str(path))


@pytest.mark.parametrize("edits, suffix", DATASET_FAULTS)
def test_dataset_csv_refusal_names_first_faulty_line(tmp_path, edits, suffix):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label,origin\n" + "0.5,1.5,0,1\n" * (SPAN + 20))
    _edit_lines(path, edits)
    assert _refusal(lambda: load_dataset(path), path) == suffix


@pytest.mark.parametrize("edits, suffix", WEIGHTS_FAULTS)
def test_task_weights_csv_refusal_names_first_faulty_line(tmp_path, chunked_task, edits, suffix):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    _edit_lines(task / "weights.csv", edits)
    assert _refusal(lambda: load_task(task), task / "weights.csv") == suffix


@pytest.mark.parametrize(
    "kind, text, suffix", [(kind, *case) for kind, cases in FILE_FAULTS.items() for case in cases]
)
def test_task_csv_whole_file_refusals(tmp_path, chunked_task, kind, text, suffix):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    path = task / ("source.csv" if kind == "dataset" else "weights.csv")
    path.write_text(text)
    assert _refusal(lambda: load_task(task), path) == suffix


@pytest.mark.parametrize("num_weights", [0, SPAN + 19, SPAN + 21])
def test_task_weights_count_must_match_source_rows(tmp_path, chunked_task, num_weights):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    (task / "weights.csv").write_text("weight\n" + "1.0\n" * num_weights)
    message = f": {num_weights} weights for {SPAN + 20} source rows"
    assert _refusal(lambda: load_task(task), task / "weights.csv") == message


def _edited_manifest_task(tmp_path, chunked_task, edit):
    """A copy of ``chunked_task`` whose manifest is ``edit(manifest)``, as
    JSON, or as it is where the edit gives bytes."""
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    edited = edit(json.loads((task / "manifest.json").read_text()))
    (task / "manifest.json").write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
    return task


def _set_key(key, value=None, delete=False):
    """A manifest edit that sets, or deletes, the dotted ``key``."""
    def edit(manifest):
        *parents, leaf = key.split(".")
        node = manifest
        for parent in parents:
            node = node[parent]
        if delete:
            del node[leaf]
        else:
            node[leaf] = value
        return manifest
    return edit


MANIFEST_MISSING_KEYS = ["kind", "spec", "beta_inf", "files", "files.source", "files.target", "files.weights"]


@pytest.mark.parametrize("key", MANIFEST_MISSING_KEYS)
def test_task_manifest_missing_key_refused(tmp_path, chunked_task, key):
    task = _edited_manifest_task(tmp_path, chunked_task, _set_key(key, delete=True))
    assert _refusal(lambda: load_task(task), task / "manifest.json") == f": manifest key {key!r} is missing"


MANIFEST_BAD_VALUES = {
    "nan": ("beta_inf", math.nan, ": beta_inf must be a finite number > 0, got nan"),
    "inf": ("beta_inf", math.inf, ": beta_inf must be a finite number > 0, got inf"),
    "zero": ("beta_inf", 0, ": beta_inf must be a finite number > 0, got 0"),
    "string": ("beta_inf", "9", ": beta_inf must be a finite number > 0, got '9'"),
    "bool": ("beta_inf", True, ": beta_inf must be a finite number > 0, got True"),
    "beyond-float-range": ("beta_inf", 10**309, f": beta_inf must be a finite number > 0, got {10**309}"),
    "kind": ("kind", "bogus", ": kind must be one of synthetic, mixture, one_sided, got 'bogus'"),
    "files-null": ("files", None, ": manifest key 'files' must be an object, got None"),
    "files-string": ("files", "x", ": manifest key 'files' must be an object, got 'x'"),
    "files-list": ("files", ["source"], ": manifest key 'files' must be an object, got ['source']"),
    "name-number": ("files.source", 5, ": files.source must be a string, got 5"),
    "name-null": ("files.target", None, ": files.target must be a string, got None"),
    "name-empty": ("files.source", "", ": files.source must be a file name, got ''"),
    "name-dot": ("files.weights", ".", ": files.weights must be a file name, got '.'"),
    "name-dotdot": ("files.weights", "..", ": files.weights must be a file name, got '..'"),
    "name-absolute": ("files.target", "/source.csv", ": files.target must be a file name, got '/source.csv'"),
    "name-parent": ("files.source", "../source.csv", ": files.source must be a file name, got '../source.csv'"),
    "name-subdir": ("files.weights", "sub/weights.csv", ": files.weights must be a file name, got 'sub/weights.csv'"),
    "spec-missing-fields": ("spec", {"dim": 2}, ": spec: spec key 'component_means' is missing"),
    "spec-unknown-field": ("spec.bogus", 1, ": spec: unknown spec keys: bogus"),
    "spec-bad-field": ("spec.dim", 0, ": spec: dim must be >= 1"),
    "spec-fractional-size": ("spec.n_source", 300.5, ": spec: n_source must be an integer, got 300.5"),
    "spec-nan-offset": ("spec.rule_offset", math.nan, ": spec: rule_offset must be finite, got nan"),
    "spec-inf-mean": ("spec.component_means", [[-0.5, 0.0], [math.inf, 0.0]],
                      ": spec: component_means[1][0] must be finite, got inf"),
    "spec-null": ("spec", None, ": spec: spec must be an object, got None"),
    # every key is walked, in ``files`` too
    "unknown-key": ("bogus", 1, ": unknown manifest keys: bogus"),
    "unknown-file-key": ("files.labels", "labels.csv", ": unknown manifest keys: files.labels"),
}


@pytest.mark.parametrize("key, value, suffix", MANIFEST_BAD_VALUES.values(), ids=MANIFEST_BAD_VALUES)
def test_task_manifest_bad_value_refused(tmp_path, chunked_task, key, value, suffix):
    task = _edited_manifest_task(tmp_path, chunked_task, _set_key(key, value))
    assert _refusal(lambda: load_task(task), task / "manifest.json") == suffix


# a one-sided spec is walked like the others: its two keys, each required,
# and its values, each read by its name
ONE_SIDED_SPEC_REFUSALS = {
    "unknown-key": ({"move_fraction": 0.25, "seed": 0, "bogus": 1}, ": spec: unknown spec keys: bogus"),
    "only-unknown-key": ({"bogus": 1}, ": spec: unknown spec keys: bogus"),
    "no-move-fraction": ({"seed": 0}, ": spec: spec key 'move_fraction' is missing"),
    "no-seed": ({"move_fraction": 0.25}, ": spec: spec key 'seed' is missing"),
    "text-fraction": ({"move_fraction": "abc", "seed": None}, ": spec: move_fraction must be a number, got 'abc'"),
    "null-seed": ({"move_fraction": 0.25, "seed": None}, ": spec: seed must be an integer, got None"),
    "fraction-over-one": ({"move_fraction": 1.5, "seed": 0}, ": spec: move_fraction must lie in (0, 1)"),
    "nan-fraction": ({"move_fraction": math.nan, "seed": 0}, ": spec: move_fraction must be finite, got nan"),
}


@pytest.mark.parametrize("spec, suffix", ONE_SIDED_SPEC_REFUSALS.values(), ids=ONE_SIDED_SPEC_REFUSALS)
def test_one_sided_manifest_spec_keys_refused(tmp_path, spec, suffix):
    save_task(_small_task(), tmp_path / "one_sided")
    assert load_task(tmp_path / "one_sided").spec == OneSidedSpec(0.25, 0)
    task = _edited_manifest_task(tmp_path, tmp_path / "one_sided", _set_key("spec", spec))
    assert _refusal(lambda: load_task(task), task / "manifest.json") == suffix


MANIFEST_NOT_OBJECTS = {"list": [1], "key-names": "kind spec beta_inf files", "null": None}


@pytest.mark.parametrize("doc", MANIFEST_NOT_OBJECTS.values(), ids=MANIFEST_NOT_OBJECTS)
def test_task_manifest_not_an_object_refused(tmp_path, chunked_task, doc):
    task = _edited_manifest_task(tmp_path, chunked_task, lambda manifest: doc)
    assert _refusal(lambda: load_task(task), task / "manifest.json") == f": manifest must be an object, got {doc!r}"


# Manifest bytes that are not JSON text: cut short, and not UTF-8 (whose
# refusal follows the locale's encoding)
MANIFEST_UNREADABLE = [b'{"kind": ', b"\xff"]


def test_task_manifest_unreadable_json_refused(tmp_path, chunked_task):
    task = _edited_manifest_task(tmp_path, chunked_task, lambda manifest: MANIFEST_UNREADABLE[0])
    message = ": Expecting value: line 1 column 10 (char 9)"
    assert _refusal(lambda: load_task(task), task / "manifest.json") == message


@pytest.mark.parametrize(
    "edit",
    [_set_key(key, delete=True) for key in MANIFEST_MISSING_KEYS]
    + [_set_key(key, value) for key, value, _ in MANIFEST_BAD_VALUES.values()]
    + [lambda manifest, doc=doc: doc for doc in MANIFEST_NOT_OBJECTS.values()]
    + [lambda manifest, text=text: text for text in MANIFEST_UNREADABLE],
)
def test_task_manifest_refused_before_any_csv_is_read(tmp_path, chunked_task, monkeypatch, edit):
    def load_dataset(path, num_classes=2):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(tasks, "load_dataset", load_dataset)
    task = _edited_manifest_task(tmp_path, chunked_task, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(task / 'manifest.json'))}: "):
        load_task(task)


def test_task_target_feature_count_must_match_source(tmp_path, chunked_task):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    target = load_dataset(task / "target.csv")
    wider = np.column_stack([target.features, np.ones(len(target))])
    save_dataset(LabeledSample(features=wider, labels=target.labels), task / "target.csv")
    message = f": 3 features, but {task / 'source.csv'} has 2"
    assert _refusal(lambda: load_task(task), task / "target.csv") == message


def test_task_beta_inf_below_largest_weight_refused(tmp_path, chunked_task):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    largest = float(load_task(task).source.weights.max())
    assert largest > 1.0
    manifest = json.loads((task / "manifest.json").read_text())
    manifest["beta_inf"] = 1.0
    (task / "manifest.json").write_text(json.dumps(manifest))
    message = f": beta_inf 1.0 is below the largest weight {largest!r} in {task / 'weights.csv'}"
    assert _refusal(lambda: load_task(task), task / "manifest.json") == message


# Reader parity: each file gives the arrays, or the refusal with its line,
# of the csv.reader row walk with Python's float and int. numpy's parser is
# stricter in some spellings (quotes, underscores, non-ASCII digits) and
# looser in others (blank lines, the ASCII information separators, integers
# written as floats); the walk decides every such file.
EDGE_ROWS = "1.5,0\n2.5,1\n"
DATASET_EDGE_CASES = {
    "blank line first": ("f0,label\n\n" + EDGE_ROWS, ":2: expected 2 fields, got 0"),
    "blank line in the middle": ("f0,label\n1.5,0\n\n2.5,1\n", ":3: expected 2 fields, got 0"),
    "blank line last": ("f0,label\n" + EDGE_ROWS + "\n", ":4: expected 2 fields, got 0"),
    "CRLF": ("f0,label\r\n1.5,0\r\n2.5,1\r\n", ([[1.5], [2.5]], [0, 1])),
    "LF only": ("f0,label\n" + EDGE_ROWS, ([[1.5], [2.5]], [0, 1])),
    "CR only": ("f0,label\r1.5,0\r2.5,1\r", ([[1.5], [2.5]], [0, 1])),
    "mixed line endings": ("f0,label\r1.5,0\n2.5,1\r\n", ([[1.5], [2.5]], [0, 1])),
    "no final newline": ("f0,label\n1.5,0\n2.5,1", ([[1.5], [2.5]], [0, 1])),
    "quoted fields": ('f0,label\n"1.5","0"\n2.5,"1"\n', ([[1.5], [2.5]], [0, 1])),
    "underscores": ("f0,label\n1_000,0\n2.5,1\n", ([[1000.0], [2.5]], [0, 1])),
    "whitespace padding": ("f0,label\n 1.5 ,\t0 \n2.5,1\n", ([[1.5], [2.5]], [0, 1])),
    "plus-signed label": ("f0,label\n1.5,+1\n2.5,1\n", ([[1.5], [2.5]], [1, 1])),
    "float label": ("f0,label\n1.5,0\n2.5,1.0\n", ":3: bad label '1.0'"),
    "hash in a field": (
        "f0,label\n1.5#,0\n",
        ":2: bad feature value (could not convert string to float: '1.5#')",
    ),
    "hash first": ("f0,label\n#1.5,0\n", ":2: bad feature value (could not convert string to float: '#1.5')"),
    "nan": ("f0,label\n1.5,0\nnan,1\n", ":3: non-finite feature value"),
    "inf": ("f0,label\n-inf,0\n", ":2: non-finite feature value"),
    "header only": ("f0,label\n", ": no data rows"),
    "information separator": (
        "f0,label\n1.5\x1c,0\n",
        ":2: bad feature value (could not convert string to float: '1.5\\x1c')",
    ),
    "information separator in a label": ("f0,label\n1.5,\x1f0\n", ":2: bad label '\\x1f0'"),
    "non-ASCII digits": ("f0,label\n\u0661.5,\u0660\n", ([[1.5]], [0])),
    "non-ASCII space": ("f0,label\n\u20031.5,0\u00a0\n", ([[1.5]], [0])),
    "signed zero and subnormal": ("f0,f1,label\n-0.0,5e-324,0\n", ([[-0.0, 5e-324]], [0])),
    "no features": ("label\n1\n0\n", ": header must be f0..f{d-1},label[,origin]"),
    "no features, with origin": ("label,origin\n1,0\n", ": header must be f0..f{d-1},label[,origin]"),
}
WEIGHTS_EDGE_CASES = {
    "blank line first": ("weight\n\n0.5\n1.5\n", ":2: expected 1 fields, got 0"),
    "blank line in the middle": ("weight\n0.5\n\n1.5\n", ":3: expected 1 fields, got 0"),
    "blank line last": ("weight\n0.5\n1.5\n\n", ":4: expected 1 fields, got 0"),
    "LF only": ("weight\n0.5\n1.5\n", [0.5, 1.5]),
    "CR only": ("weight\r0.5\r1.5\r", [0.5, 1.5]),
    "no final newline": ("weight\r\n0.5\r\n1.5", [0.5, 1.5]),
    "quoted fields": ('weight\n"0.5"\n1.5\n', [0.5, 1.5]),
    "underscores": ("weight\n1_000\n1.5\n", [1000.0, 1.5]),
    "whitespace padding": ("weight\n 0.5\t\n1.5 \n", [0.5, 1.5]),
    "plus sign and integer": ("weight\n+1\n2\n", [1.0, 2.0]),
    "hash in a field": (
        "weight\n0.5\n1.5#\n",
        ":3: bad weight value (could not convert string to float: '1.5#')",
    ),
    "nan": ("weight\nnan\n1.5\n", ":2: non-finite weight value"),
    "inf": ("weight\n0.5\ninf\n", ":3: non-finite weight value"),
    "header only": ("weight\n", ": 0 weights for 2 source rows"),
    "information separator": (
        "weight\n0.5\n\x1e1.5\n",
        ":3: bad weight value (could not convert string to float: '\\x1e1.5')",
    ),
    "non-ASCII digits": ("weight\n\u0660.5\n1.5\n", [0.5, 1.5]),
    "signed zero and subnormal": ("weight\n-0.0\n5e-324\n", [-0.0, 5e-324]),
    "negative": ("weight\n0.5\n-1e-300\n", ":3: negative weight value"),
}


def _outcome(load, path):
    try:
        return load()
    except ValueError as exc:
        return str(exc).removeprefix(str(path))


def _same_bits(actual, expected, dtype):
    expected = np.asarray(expected, dtype=dtype)
    return actual.dtype == dtype and actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, expected", DATASET_EDGE_CASES.values(), ids=DATASET_EDGE_CASES)
def test_dataset_reader_parity_on_edge_cases(tmp_path, text, expected):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    result = _outcome(lambda: load_dataset(path), path)
    if isinstance(expected, str):
        assert result == expected
    else:
        assert isinstance(result, LabeledSample), result
        assert _same_bits(result.features, expected[0], np.float64)
        assert result.features.flags["C_CONTIGUOUS"]
        assert _same_bits(result.labels, expected[1], np.int64)
        assert result.origin is None



@pytest.mark.parametrize("case", ["float label", "header only"])
def test_dataset_reader_does_not_depend_on_warning_filters(tmp_path, case):
    # numpy warns on a file without data rows (and older numpy on an integer
    # written as a float); the reader refuses either without a warning,
    # whatever filters the caller has set
    text, expected = DATASET_EDGE_CASES[case]
    path = tmp_path / "data.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(lambda: load_dataset(path), path) == expected
    assert caught == []


@pytest.fixture(scope="module")
def two_row_task(tmp_path_factory):
    """A task directory with two source rows and room for weights up to 1e6."""
    path = tmp_path_factory.mktemp("two_row") / "task"
    spec = default_synthetic_spec(seed=3, n_source=2, n_target=2)
    save_task(build_synthetic_task(spec), path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["beta_inf"] = 1e6
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("text, expected", WEIGHTS_EDGE_CASES.values(), ids=WEIGHTS_EDGE_CASES)
def test_weights_reader_parity_on_edge_cases(tmp_path, two_row_task, text, expected):
    task = tmp_path / "task"
    shutil.copytree(two_row_task, task)
    path = task / "weights.csv"
    path.write_bytes(text.encode())
    result = _outcome(lambda: load_task(task), path)
    if isinstance(expected, str):
        assert result == expected
    else:
        assert isinstance(result, TaskInstance), result
        assert _same_bits(result.source.weights, expected, np.float64)


@pytest.mark.parametrize(
    "lineno, text, suffix",
    [
        (LAST_OF_SPAN, "", f":{LAST_OF_SPAN}: expected 3 fields, got 0"),
        (LAST_OF_SPAN + 1, "", f":{LAST_OF_SPAN + 1}: expected 3 fields, got 0"),
        (LAST_OF_SPAN, "0.5,1.0,0", f":{LAST_OF_SPAN}: bad label '1.0'"),
        (LAST_OF_SPAN + 1, "0.5,1,1.0", f":{LAST_OF_SPAN + 1}: bad origin '1.0'"),
        (LAST_OF_SPAN + 1, "0.5,\x1d1,0", f":{LAST_OF_SPAN + 1}: bad label '\\x1d1'"),
    ],
)
def test_dataset_reader_parity_across_chunk_boundary(tmp_path, lineno, text, suffix):
    path = tmp_path / "data.csv"
    path.write_text("f0,label,origin\n" + "0.5,1,0\n" * (SPAN + 2))
    _edit_lines(path, {lineno: text})
    assert _refusal(lambda: load_dataset(path), path) == suffix


@pytest.mark.parametrize(
    "lineno, text, suffix",
    [
        (LAST_OF_SPAN, "", f":{LAST_OF_SPAN}: expected 1 fields, got 0"),
        (LAST_OF_SPAN + 1, "", f":{LAST_OF_SPAN + 1}: expected 1 fields, got 0"),
        (LAST_OF_SPAN, "nan", f":{LAST_OF_SPAN}: non-finite weight value"),
        (LAST_OF_SPAN + 1, "-0.5", f":{LAST_OF_SPAN + 1}: negative weight value"),
    ],
)
def test_weights_reader_parity_across_chunk_boundary(tmp_path, chunked_task, lineno, text, suffix):
    task = tmp_path / "task"
    shutil.copytree(chunked_task, task)
    _edit_lines(task / "weights.csv", {lineno: text})
    assert _refusal(lambda: load_task(task), task / "weights.csv") == suffix


def test_dataset_reader_accepts_spellings_only_python_parses_across_chunks(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n" + "0.5,1\n" * (SPAN + 2))
    _edit_lines(path, {3: '"0.5",1', LAST_OF_SPAN + 1: "1_0.5,1"})
    loaded = load_dataset(path)
    expected = np.full((SPAN + 2, 1), 0.5)
    expected[LAST_OF_SPAN - 1] = 10.5
    assert _same_bits(loaded.features, expected, np.float64)
    assert _same_bits(loaded.labels, np.ones(SPAN + 2), np.int64)


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]


@pytest.mark.parametrize("width", [1, 3, 4])
def test_write_csv_matches_csv_writer(tmp_path, width):
    n = CHUNK + 5
    rng = np.random.default_rng(width)
    floats = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
    floats[:, : len(EDGE_FLOATS)] = EDGE_FLOATS
    floats[:, CHUNK - 2 : CHUNK + 3] = EDGE_FLOATS
    ints = rng.integers(0, 2, (2, n))
    columns = [floats[0]] if width == 1 else [*floats, *ints[: width - 2]]
    header = [f"c{j}" for j in range(width)]
    _write_csv(tmp_path / "table.csv", header, columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(zip(*(col.tolist() for col in columns)))
    assert (tmp_path / "table.csv").read_bytes() == expected.getvalue().encode()
