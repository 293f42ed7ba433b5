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
    domain_disagreement,
    empirical_risk,
    estimate_risks,
    expected_disagreement,
    expected_joint_error,
    forward,
    gibbs_risk,
    gibbs_weighted_risk,
    grid_search,
    lambda_rho_oracle,
    predict,
    sample_posterior,
    weighted_empirical_risk,
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


def test_empirical_risk_perfect_and_constant():
    data = LabeledSample(features=col([-1, -2, 1, 2]), labels=[0, 0, 1, 1])
    assert empirical_risk(UNIT, [1.0, 0.0], data) == 0.0
    always_zero = [0.0, -5.0]
    balanced = LabeledSample(features=col([1, 2, 3, 4]), labels=[0, 0, 1, 1])
    assert empirical_risk(UNIT, always_zero, balanced) == 0.5


def test_empirical_risk_matches_loop_oracle():
    rng = np.random.default_rng(0)
    arch = MlpArchitecture((3, 4, 1), "tanh")
    w = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((50, 3)), labels=rng.integers(0, 2, 50))
    naive = sum(
        int((1 if forward(arch, w, data.features[i]) > 0 else 0) != data.labels[i])
        for i in range(50)
    ) / 50
    assert empirical_risk(arch, w, data) == naive


def test_empirical_risk_empty_rejected():
    with pytest.raises(ValueError):
        empirical_risk(UNIT, [1.0, 0.0], LabeledSample(features=np.zeros((0, 1)), labels=[]))


def test_weighted_risk_unit_weights_equal_plain():
    rng = np.random.default_rng(1)
    data = LabeledSample(
        features=col(rng.standard_normal(30)),
        labels=rng.integers(0, 2, 30),
        weights=np.ones(30),
    )
    w = [1.0, 0.1]
    assert weighted_empirical_risk(UNIT, w, data) == empirical_risk(UNIT, w, data)


def test_weighted_risk_hand_arithmetic():
    # one error out of ten rows, sitting on the weight-11 row: risk 11/10
    feats = col([1.0] * 10)
    labels = [0] + [1] * 9
    weights = [11.0] + [0.5] * 9
    data = LabeledSample(features=feats, labels=labels, weights=weights)
    assert weighted_empirical_risk(UNIT, [1.0, 0.0], data) == pytest.approx(1.1)


def test_weighted_risk_zero_errors():
    data = LabeledSample(features=col([1, 2]), labels=[1, 1], weights=[7.0, 9.0])
    assert weighted_empirical_risk(UNIT, [1.0, 0.0], data) == 0.0


def test_weighted_risk_requires_weights():
    data = LabeledSample(features=col([1.0]), labels=[1])
    with pytest.raises(ValueError):
        weighted_empirical_risk(UNIT, [1.0, 0.0], data)


def test_gibbs_risk_degenerate_sigma():
    rng = np.random.default_rng(2)
    arch = MlpArchitecture((2, 5, 1))
    mu = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((100, 2)), labels=rng.integers(0, 2, 100))
    samples = sample_posterior(IsotropicGaussian(mu, 1e-12), pairs=3, seed=0)
    est, _ = gibbs_risk(arch, samples, data)
    assert est == pytest.approx(empirical_risk(arch, mu, data), abs=1e-9)


def test_gibbs_risk_two_draws_mean():
    # first draw errs on 1/10 rows, second on 3/10
    feats = col([5, 5, 5, 5, 20, -5, -5, -5, -5, -5])
    labels = [0, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    data = LabeledSample(features=feats, labels=labels)
    h1 = [1.0, 0.0]     # 1 iff x > 0
    h2 = [1.0, -10.0]   # 1 iff x > 10
    assert empirical_risk(UNIT, h1, data) == pytest.approx(0.1)
    assert empirical_risk(UNIT, h2, data) == pytest.approx(0.3)
    est, mc = gibbs_risk(UNIT, draws_from(h1, h2), data)
    assert est == pytest.approx(0.2)
    assert mc > 0


def test_gibbs_risk_mc_consistency():
    rng = np.random.default_rng(3)
    arch = MlpArchitecture((2, 4, 1))
    mu = rng.standard_normal(arch.num_params)
    data = LabeledSample(features=rng.standard_normal((200, 2)), labels=rng.integers(0, 2, 200))
    g = IsotropicGaussian(mu, 0.5)
    small, mc_small = gibbs_risk(arch, sample_posterior(g, pairs=5, seed=1), data)
    big, mc_big = gibbs_risk(arch, sample_posterior(g, pairs=500, seed=2), data)
    assert abs(small - big) <= 4 * (mc_small**2 + mc_big**2) ** 0.5


def test_expected_disagreement_cases():
    X = UnlabeledSample(features=col([1, 2, 3, -1]))
    h = [1.0, 0.0]
    assert expected_disagreement(UNIT, draws_from(h, h), X) == 0.0
    const0 = [0.0, -5.0]
    const1 = [0.0, 5.0]
    assert expected_disagreement(UNIT, draws_from(const0, const1), X) == 1.0


def test_expected_disagreement_matches_loop_oracle():
    rng = np.random.default_rng(4)
    arch = MlpArchitecture((2, 4, 1))
    w1, w2 = rng.standard_normal((2, arch.num_params))
    X = rng.standard_normal((60, 2))
    naive = sum(
        int((forward(arch, w1, X[i]) > 0) != (forward(arch, w2, X[i]) > 0)) for i in range(60)
    ) / 60
    got = expected_disagreement(arch, draws_from(w1, w2), UnlabeledSample(features=X))
    assert got == naive


def test_expected_joint_error_cases():
    data = LabeledSample(features=col([1, 2, 3]), labels=[0, 0, 0])
    const1 = [0.0, 5.0]
    assert expected_joint_error(UNIT, draws_from(const1, const1), data) == 1.0
    perfect = [1.0, 0.0]
    data2 = LabeledSample(features=col([1, 2, -3]), labels=[1, 1, 0])
    assert expected_joint_error(UNIT, draws_from(perfect, const1), data2) == 0.0


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
    assert expected_joint_error(arch, draws_from(w1, w2), LabeledSample(features=X, labels=y)) == naive


def test_pair_symmetry():
    rng = np.random.default_rng(6)
    arch = MlpArchitecture((2, 4, 1))
    w1, w2 = rng.standard_normal((2, arch.num_params))
    X = UnlabeledSample(features=rng.standard_normal((30, 2)))
    data = LabeledSample(features=X.features, labels=rng.integers(0, 2, 30))
    assert expected_disagreement(arch, draws_from(w1, w2), X) == expected_disagreement(
        arch, draws_from(w2, w1), X
    )
    assert expected_joint_error(arch, draws_from(w1, w2), data) == expected_joint_error(
        arch, draws_from(w2, w1), data
    )


def test_domain_disagreement_cases():
    h1 = [1.0, 0.0]     # 1 iff x > 0
    h2 = [1.0, -10.0]   # 1 iff x > 10
    pair = draws_from(h1, h2)
    same = UnlabeledSample(features=col([1, 20, -5]))
    assert domain_disagreement(UNIT, pair, same, same) == 0.0

    # disagreement happens exactly on x in (0, 10]
    source = UnlabeledSample(features=col([5] + [-1] * 5 + [20] * 4))      # 1/10
    target = UnlabeledSample(features=col([1, 2, 3] + [-1] * 4 + [20] * 3))  # 3/10
    assert domain_disagreement(UNIT, pair, source, target) == pytest.approx(0.2)

    agree_source = UnlabeledSample(features=col([-1, 20]))
    all_disagree_target = UnlabeledSample(features=col([1, 5, 9]))
    assert domain_disagreement(UNIT, pair, agree_source, all_disagree_target) == 1.0


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
    r1, _ = gibbs_risk(arch, samples, d1)
    r2, _ = gibbs_risk(arch, samples, d2)
    ru, _ = gibbs_risk(arch, samples, union)
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
    # agrees with the standalone estimators
    assert est.gibbs_risk == gibbs_risk(arch, samples, source)[0]
    assert est.disagreement_target == expected_disagreement(arch, samples, target_x)
    assert est.joint_error_source == expected_joint_error(arch, samples, source)
    assert est.gibbs_weighted_risk == gibbs_weighted_risk(arch, samples, source)[0]
    assert est.joint_error_target == expected_joint_error(arch, samples, oracle)
    assert est.oracle_target_gibbs_risk == gibbs_risk(arch, samples, oracle)[0]
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
