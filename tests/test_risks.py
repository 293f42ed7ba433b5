import numpy as np
import pytest

import shiftbound.risks
from shiftbound import (
    BoundInputs,
    IsotropicGaussian,
    LabeledSample,
    MlpArchitecture,
    OracleAccessError,
    PosteriorSampleSet,
    UnlabeledSample,
    estimate_risks,
    forward,
    gibbs_risk,
    grid_search,
    lambda_rho_oracle,
    predict,
    sample_posterior,
)

# threshold unit: weights [a, b] predict 1 iff a*x + b > 0
UNIT = MlpArchitecture((1, 1))


def draws_from(*weight_vectors):
    w = np.asarray(weight_vectors, dtype=float)
    return PosteriorSampleSet(
        draws=w, source_distribution=IsotropicGaussian(w[0], 1.0), seed=0
    )


def col(values):
    return np.asarray(values, dtype=float)[:, None]


def risks(arch, samples, source, target=None):
    """``estimate_risks`` with ``source`` as the source sample and ``target``
    (default: the source rows) as the unlabeled target. An unlabeled source
    gets all-zero labels, which no disagreement reads. ``draws_from(h, h)``
    makes the Gibbs quantities those of the single classifier ``h``."""
    if not isinstance(source, LabeledSample):
        source = LabeledSample(features=source.features, labels=np.zeros(len(source), dtype=int))
    target = UnlabeledSample(features=(source if target is None else target).features)
    return estimate_risks(arch, samples, source, target)


def test_empirical_risk_perfect_and_constant():
    data = LabeledSample(features=col([-1, -2, 1, 2]), labels=[0, 0, 1, 1])
    h = [1.0, 0.0]
    assert risks(UNIT, draws_from(h, h), data).gibbs_risk == 0.0
    always_zero = [0.0, -5.0]
    balanced = LabeledSample(features=col([1, 2, 3, 4]), labels=[0, 0, 1, 1])
    assert risks(UNIT, draws_from(always_zero, always_zero), balanced).gibbs_risk == 0.5


def test_empirical_risk_matches_loop_oracle():
    rng = np.random.default_rng(0)
    arch = MlpArchitecture((3, 4, 1), "tanh")
    w = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((50, 3)), labels=rng.integers(0, 2, 50))
    naive = sum(
        int((1 if forward(arch, w, data.features[i]) > 0 else 0) != data.labels[i])
        for i in range(50)
    ) / 50
    assert risks(arch, draws_from(w, w), data).gibbs_risk == naive


def test_empirical_risk_empty_rejected():
    h = [1.0, 0.0]
    with pytest.raises(ValueError):
        risks(UNIT, draws_from(h, h), LabeledSample(features=np.zeros((0, 1)), labels=[]))


def test_weighted_risk_unit_weights_equal_plain():
    rng = np.random.default_rng(1)
    data = LabeledSample(
        features=col(rng.standard_normal(30)),
        labels=rng.integers(0, 2, 30),
        weights=np.ones(30),
    )
    w = [1.0, 0.1]
    est = risks(UNIT, draws_from(w, w), data)
    assert est.gibbs_weighted_risk == est.gibbs_risk


def test_weighted_risk_hand_arithmetic():
    # one error out of ten rows, sitting on the weight-11 row: risk 11/10
    feats = col([1.0] * 10)
    labels = [0] + [1] * 9
    weights = [11.0] + [0.5] * 9
    data = LabeledSample(features=feats, labels=labels, weights=weights)
    h = [1.0, 0.0]
    assert risks(UNIT, draws_from(h, h), data).gibbs_weighted_risk == pytest.approx(1.1)


def test_weighted_risk_zero_errors():
    data = LabeledSample(features=col([1, 2]), labels=[1, 1], weights=[7.0, 9.0])
    h = [1.0, 0.0]
    assert risks(UNIT, draws_from(h, h), data).gibbs_weighted_risk == 0.0


def test_weighted_risk_requires_weights():
    data = LabeledSample(features=col([1.0]), labels=[1])
    h = [1.0, 0.0]
    est = risks(UNIT, draws_from(h, h), data)
    assert est.gibbs_weighted_risk is None
    inputs = BoundInputs(m_source=1, n_target=1, kl=0.0, delta=0.05, estimates=est, beta_inf=1.0)
    with pytest.raises(ValueError):
        grid_search("iw", inputs)


def test_gibbs_risk_degenerate_sigma():
    rng = np.random.default_rng(2)
    arch = MlpArchitecture((2, 5, 1))
    mu = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((100, 2)), labels=rng.integers(0, 2, 100))
    samples = sample_posterior(IsotropicGaussian(mu, 1e-12), pairs=3, seed=0)
    est = risks(arch, samples, data).gibbs_risk
    assert est == pytest.approx(risks(arch, draws_from(mu, mu), data).gibbs_risk, abs=1e-9)


def test_gibbs_risk_two_draws_mean():
    # first draw errs on 1/10 rows, second on 3/10
    feats = col([5, 5, 5, 5, 20, -5, -5, -5, -5, -5])
    labels = [0, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    data = LabeledSample(features=feats, labels=labels)
    h1 = [1.0, 0.0]     # 1 iff x > 0
    h2 = [1.0, -10.0]   # 1 iff x > 10
    assert risks(UNIT, draws_from(h1, h1), data).gibbs_risk == pytest.approx(0.1)
    assert risks(UNIT, draws_from(h2, h2), data).gibbs_risk == pytest.approx(0.3)
    est = risks(UNIT, draws_from(h1, h2), data)
    assert est.gibbs_risk == pytest.approx(0.2)
    assert est.mc_std["gibbs_risk"] > 0


def test_gibbs_risk_mc_consistency():
    rng = np.random.default_rng(3)
    arch = MlpArchitecture((2, 4, 1))
    mu = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((200, 2)), labels=rng.integers(0, 2, 200))
    g = IsotropicGaussian(mu, 0.5)
    small = risks(arch, sample_posterior(g, pairs=5, seed=1), data)
    big = risks(arch, sample_posterior(g, pairs=500, seed=2), data)
    mc_small, mc_big = small.mc_std["gibbs_risk"], big.mc_std["gibbs_risk"]
    assert abs(small.gibbs_risk - big.gibbs_risk) <= 4 * (mc_small**2 + mc_big**2) ** 0.5


def test_expected_disagreement_cases():
    X = UnlabeledSample(features=col([1, 2, 3, -1]))
    h = [1.0, 0.0]
    assert risks(UNIT, draws_from(h, h), X).disagreement_target == 0.0
    const0 = [0.0, -5.0]
    const1 = [0.0, 5.0]
    assert risks(UNIT, draws_from(const0, const1), X).disagreement_target == 1.0


def test_expected_disagreement_matches_loop_oracle():
    rng = np.random.default_rng(4)
    arch = MlpArchitecture((2, 4, 1))
    w1, w2 = rng.standard_normal((2, arch.num_params))
    X = rng.standard_normal((60, 2))
    naive = sum(
        int((forward(arch, w1, X[i]) > 0) != (forward(arch, w2, X[i]) > 0)) for i in range(60)
    ) / 60
    got = risks(arch, draws_from(w1, w2), UnlabeledSample(features=X)).disagreement_target
    assert got == naive


def test_expected_joint_error_cases():
    data = LabeledSample(features=col([1, 2, 3]), labels=[0, 0, 0])
    const1 = [0.0, 5.0]
    assert risks(UNIT, draws_from(const1, const1), data).joint_error_source == 1.0
    perfect = [1.0, 0.0]
    data2 = LabeledSample(features=col([1, 2, -3]), labels=[1, 1, 0])
    assert risks(UNIT, draws_from(perfect, const1), data2).joint_error_source == 0.0


def test_expected_joint_error_matches_loop_oracle():
    rng = np.random.default_rng(5)
    arch = MlpArchitecture((2, 3, 1), "tanh")
    w1, w2 = rng.standard_normal((2, arch.num_params))
    X = rng.standard_normal((40, 2))
    y = rng.integers(0, 2, 40)
    naive = sum(
        int(
            ((forward(arch, w1, X[i]) > 0) != y[i])
            and ((forward(arch, w2, X[i]) > 0) != y[i])
        )
        for i in range(40)
    ) / 40
    data = LabeledSample(features=X, labels=y)
    assert risks(arch, draws_from(w1, w2), data).joint_error_source == naive


def test_pair_symmetry():
    rng = np.random.default_rng(6)
    arch = MlpArchitecture((2, 4, 1))
    w1, w2 = rng.standard_normal((2, arch.num_params))
    data = LabeledSample(features=rng.standard_normal((30, 2)), labels=rng.integers(0, 2, 30))
    forward_pair = risks(arch, draws_from(w1, w2), data)
    reverse_pair = risks(arch, draws_from(w2, w1), data)
    assert forward_pair.disagreement_target == reverse_pair.disagreement_target
    assert forward_pair.joint_error_source == reverse_pair.joint_error_source


def test_domain_disagreement_cases():
    h1 = [1.0, 0.0]     # 1 iff x > 0
    h2 = [1.0, -10.0]   # 1 iff x > 10
    pair = draws_from(h1, h2)

    def disagreement_gap(source, target):
        est = risks(UNIT, pair, source, target)
        return abs(est.disagreement_target - est.disagreement_source)

    same = UnlabeledSample(features=col([1, 20, -5]))
    assert disagreement_gap(same, same) == 0.0

    # disagreement happens exactly on x in (0, 10]
    source = UnlabeledSample(features=col([5] + [-1] * 5 + [20] * 4))      # 1/10
    target = UnlabeledSample(features=col([1, 2, 3] + [-1] * 4 + [20] * 3))  # 3/10
    assert disagreement_gap(source, target) == pytest.approx(0.2)

    agree_source = UnlabeledSample(features=col([-1, 20]))
    all_disagree_target = UnlabeledSample(features=col([1, 5, 9]))
    assert disagreement_gap(agree_source, all_disagree_target) == 1.0


def test_lambda_rho_oracle_refusal_and_values():
    h1 = [1.0, 0.0]
    h2 = [1.0, -10.0]
    pair = draws_from(h1, h2)
    # both wrong simultaneously exactly on rows with x > 10 labeled 0
    source = LabeledSample(features=col([20] + [-1] * 19), labels=[0] + [0] * 19)  # 1/20
    target = LabeledSample(features=col([20, 20] + [-1] * 8), labels=[0, 0] + [0] * 8)  # 2/10
    with pytest.raises(OracleAccessError):
        lambda_rho_oracle(UNIT, pair, source, target)
    lam = lambda_rho_oracle(UNIT, pair, source, target, oracle=True)
    assert lam == pytest.approx(abs(0.2 - 0.05))
    same = LabeledSample(features=col([1, -1]), labels=[1, 0])
    assert lambda_rho_oracle(UNIT, pair, same, same, oracle=True) == 0.0


def test_gibbs_decomposition_over_disjoint_union():
    rng = np.random.default_rng(7)
    arch = MlpArchitecture((2, 4, 1))
    samples = sample_posterior(IsotropicGaussian(rng.standard_normal(arch.num_params), 0.3), 4, 0)
    d1 = LabeledSample(features=rng.standard_normal((30, 2)), labels=rng.integers(0, 2, 30))
    d2 = LabeledSample(features=rng.standard_normal((50, 2)), labels=rng.integers(0, 2, 50))
    union = LabeledSample(
        features=np.vstack([d1.features, d2.features]),
        labels=np.concatenate([d1.labels, d2.labels]),
    )
    r1, r2, ru = (risks(arch, samples, d).gibbs_risk for d in (d1, d2, union))
    assert ru == pytest.approx((30 * r1 + 50 * r2) / 80, abs=1e-12)


def test_estimate_risks_assembly_and_ranges():
    rng = np.random.default_rng(8)
    arch = MlpArchitecture((2, 5, 1))
    samples = sample_posterior(IsotropicGaussian(rng.standard_normal(arch.num_params), 0.2), 5, 3)
    source = LabeledSample(
        features=rng.standard_normal((80, 2)),
        labels=rng.integers(0, 2, 80),
        weights=rng.uniform(0.5, 2.0, 80),
    )
    target_x = UnlabeledSample(features=rng.standard_normal((60, 2)) + 1.0)
    oracle = LabeledSample(features=target_x.features, labels=rng.integers(0, 2, 60))
    est = estimate_risks(arch, samples, source, target_x, target_oracle=oracle, oracle=True)
    for v in (est.gibbs_risk, est.disagreement_source, est.disagreement_target,
              est.joint_error_source, est.joint_error_target):
        assert 0.0 <= v <= 1.0
    assert est.gibbs_weighted_risk <= source.weights.max()
    assert set(est.mc_std) == {
        "gibbs_risk", "gibbs_weighted_risk", "disagreement_source",
        "disagreement_target", "joint_error_source", "joint_error_target",
    }
    # agrees with straight-line references: one forward pass per draw, a
    # mean over rows per draw or pair, then a mean over draws or pairs
    source_preds = np.stack([predict(forward(arch, w, source.features)) for w in samples.draws])
    target_preds = np.stack([predict(forward(arch, w, target_x.features)) for w in samples.draws])
    source_errors = source_preds != source.labels
    target_errors = target_preds != oracle.labels
    assert est.gibbs_risk == source_errors.mean(axis=1).mean()
    assert est.disagreement_target == (target_preds[0::2] != target_preds[1::2]).mean(axis=1).mean()
    assert est.joint_error_source == (source_errors[0::2] & source_errors[1::2]).mean(axis=1).mean()
    assert est.gibbs_weighted_risk == (source.weights * source_errors).mean(axis=1).mean()
    assert est.joint_error_target == (target_errors[0::2] & target_errors[1::2]).mean(axis=1).mean()
    assert est.oracle_target_gibbs_risk == target_errors.mean(axis=1).mean()
    # the two estimators kept beside estimate_risks agree with it
    assert gibbs_risk(arch, samples, source) == (est.gibbs_risk, est.mc_std["gibbs_risk"])
    assert abs(est.joint_error_target - est.joint_error_source) == lambda_rho_oracle(
        arch, samples, source, oracle, oracle=True
    )

    est_blind = estimate_risks(arch, samples, source, target_x)
    assert est_blind.joint_error_target is None


def test_estimate_risks_oracle_needs_labels():
    rng = np.random.default_rng(9)
    arch = MlpArchitecture((2, 3, 1))
    samples = sample_posterior(IsotropicGaussian(np.zeros(arch.num_params), 0.1), 2, 0)
    source = LabeledSample(features=rng.standard_normal((10, 2)), labels=rng.integers(0, 2, 10))
    target_x = UnlabeledSample(features=rng.standard_normal((10, 2)))
    with pytest.raises(OracleAccessError):
        estimate_risks(arch, samples, source, target_x, oracle=True)


def _estimate_risks_case(seed=10):
    rng = np.random.default_rng(seed)
    arch = MlpArchitecture((2, 5, 1))
    samples = sample_posterior(IsotropicGaussian(rng.standard_normal(arch.num_params), 0.2), 4, 1)
    source = LabeledSample(
        features=rng.standard_normal((70, 2)),
        labels=rng.integers(0, 2, 70),
        weights=rng.uniform(0.5, 2.0, 70),
    )
    target_x = UnlabeledSample(features=rng.standard_normal((50, 2)) - 0.5)
    oracle = LabeledSample(features=target_x.features, labels=rng.integers(0, 2, 50))
    return arch, samples, source, target_x, oracle, rng


def test_estimate_risks_evaluates_each_draw_once_per_sample(monkeypatch):
    arch, samples, source, target_x, oracle, _ = _estimate_risks_case()
    calls = []
    original = shiftbound.risks.forward

    def counting_forward(*args, **kwargs):
        calls.append(np.atleast_2d(args[1]).shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(shiftbound.risks, "forward", counting_forward)
    estimate_risks(arch, samples, source, target_x, target_oracle=oracle, oracle=True)
    assert len(calls) == 2
    assert sum(calls) == 2 * samples.num_draws


def test_estimate_risks_rejects_mismatched_target_oracle():
    arch, samples, source, target_x, oracle, _ = _estimate_risks_case()
    shifted = LabeledSample(features=oracle.features + 1.0, labels=oracle.labels)
    fewer = oracle.subset(np.arange(len(oracle) - 1))
    for bad in (shifted, fewer):
        for mode in (False, True):
            with pytest.raises(ValueError):
                estimate_risks(arch, samples, source, target_x, target_oracle=bad, oracle=mode)


def test_estimate_risks_blind_mode_ignores_target_labels():
    arch, samples, source, target_x, oracle, rng = _estimate_risks_case()
    relabeled = LabeledSample(features=oracle.features, labels=rng.integers(0, 2, len(oracle)))
    assert not np.array_equal(relabeled.labels, oracle.labels)
    a = estimate_risks(arch, samples, source, target_x, target_oracle=oracle)
    b = estimate_risks(arch, samples, source, target_x, target_oracle=relabeled)
    assert a.joint_error_target is None and b.joint_error_target is None
    for name in ("gibbs_risk", "gibbs_weighted_risk", "disagreement_source",
                 "disagreement_target", "joint_error_source"):
        assert getattr(a, name) == getattr(b, name)
    assert a.mc_std == b.mc_std
    assert "joint_error_target" not in a.mc_std

    def bound_values(est):
        inputs = BoundInputs(
            m_source=len(source), n_target=len(target_x), kl=2.0, delta=0.05,
            estimates=est, beta_inf=2.0, mmd_value=0.1,
        )
        return [grid_search(name, inputs).value for name in ("mcallester", "iw", "mmd", "mult")]

    assert bound_values(a) == bound_values(b)
