import math
import re

import numpy as np
import pytest

from shiftbound import (
    IsotropicGaussian,
    LabeledSample,
    MlpArchitecture,
    PosteriorSampleSet,
    TrainConfig,
    init_weights,
    kl_isotropic,
    learn_prior_posterior,
    sample_posterior,
    stochastic,
)
from shiftbound import seeding
from shiftbound.seeding import derive_seed, stream_rng


def mc_kl_estimate(rho, pi, n_draws, seed):
    """Monte-Carlo oracle for KL: mean and standard error of log(rho/pi) under rho."""
    rng = np.random.default_rng(seed)
    d = rho.dim
    z = rng.standard_normal((n_draws, d))
    w = rho.mean[None, :] + rho.sigma * z
    sq_rho = rho.sigma**2 * np.sum(z**2, axis=1)
    sq_pi = np.sum((w - pi.mean[None, :]) ** 2, axis=1)
    log_ratio = (
        d * math.log(pi.sigma / rho.sigma)
        + sq_pi / (2 * pi.sigma**2)
        - sq_rho / (2 * rho.sigma**2)
    )
    return float(log_ratio.mean()), float(log_ratio.std(ddof=1) / math.sqrt(n_draws))


def test_kl_identical_is_zero():
    g = IsotropicGaussian(np.arange(5.0), 0.3)
    assert kl_isotropic(g, g) == 0.0


def test_kl_equal_sigma_closed_form():
    mu_pi = np.zeros(2)
    mu_rho = np.array([0.03, 0.03])  # squared distance 0.0018
    kl = kl_isotropic(IsotropicGaussian(mu_rho, 0.03), IsotropicGaussian(mu_pi, 0.03))
    assert kl == pytest.approx(1.0, abs=1e-12)


def test_kl_validation():
    with pytest.raises(ValueError):
        kl_isotropic(IsotropicGaussian(np.zeros(2), 1.0), IsotropicGaussian(np.zeros(3), 1.0))
    with pytest.raises(ValueError):
        IsotropicGaussian(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        IsotropicGaussian(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError, match="^mean must be a flat vector$"):
        IsotropicGaussian(np.zeros((2, 2)), 1.0)


def test_kl_nonnegative_and_monotone_in_mean_distance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        pi = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2)))
        rho = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2)))
        assert kl_isotropic(rho, pi) >= 0.0
    pi = IsotropicGaussian(np.zeros(3), 0.5)
    values = [
        kl_isotropic(IsotropicGaussian(np.full(3, t), 0.5), pi) for t in (0.1, 0.2, 0.4)
    ]
    assert values[0] < values[1] < values[2]


def test_kl_against_monte_carlo_oracle():
    rng = np.random.default_rng(123)
    for case in range(5):
        d = 10
        pi = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2)))
        rho = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2)))
        closed = kl_isotropic(rho, pi)
        est, se = mc_kl_estimate(rho, pi, 10**6, seed=1000 + case)
        assert abs(closed - est) <= 3 * se


def test_sample_posterior_degenerate_sigma():
    mu = np.arange(6.0)
    draws = sample_posterior(IsotropicGaussian(mu, 1e-12), pairs=3, seed=0).draws
    assert np.max(np.abs(draws - mu[None, :])) < 1e-10


def test_sample_posterior_law_of_large_numbers():
    mu = np.array([1.0, -2.0, 0.5])
    sigma = 1.0
    n = 10**5
    draws = sample_posterior(IsotropicGaussian(mu, sigma), pairs=n // 2, seed=5).draws
    dev = np.abs(draws.mean(axis=0) - mu)
    assert np.all(dev <= 4 * sigma / math.sqrt(n))


def test_sample_posterior_deterministic_and_shaped():
    g = IsotropicGaussian(np.zeros(4), 0.1)
    s1 = sample_posterior(g, pairs=5, seed=9)
    s2 = sample_posterior(g, pairs=5, seed=9)
    assert np.array_equal(s1.draws, s2.draws)
    assert s1.draws.shape[0] // 2 == 5 and s1.draws.shape[0] == 10
    with pytest.raises(ValueError):
        sample_posterior(g, pairs=0, seed=0)


def _toy_sample(rng, m=200):
    labels = rng.integers(0, 2, m)
    feats = np.column_stack([rng.standard_normal(m), 2.0 * labels - 1.0 + 0.3 * rng.standard_normal(m)])
    return LabeledSample(features=feats, labels=labels)


ARCH = MlpArchitecture((2, 6, 1))
CFG_PRIOR = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=32, seed=100)
CFG_POST = TrainConfig(learning_rate=3e-3, epochs=5, batch_size=32, seed=200)


def test_learn_prior_posterior_alpha_zero_uninformed():
    S = _toy_sample(np.random.default_rng(0))
    pair = learn_prior_posterior(S, 0.0, ARCH, CFG_PRIOR, CFG_POST, sigma=0.03, seed=7)
    assert np.array_equal(pair.prior.mean, init_weights(ARCH, 7))
    assert len(pair.eval_set) == len(S)
    assert pair.split_indices.size == 0
    # the first checkpoint is the start of posterior training: zero divergence
    assert kl_isotropic(pair.posterior_checkpoints[0][1], pair.prior) == 0.0
    assert kl_isotropic(pair.posterior_checkpoints[-1][1], pair.prior) > 0.0


def test_learn_prior_posterior_split_arithmetic():
    S = _toy_sample(np.random.default_rng(1), m=1000)
    pair = learn_prior_posterior(S, 0.3, ARCH, CFG_PRIOR, CFG_POST, sigma=0.03, seed=3)
    assert pair.split_indices.size == 300
    assert len(pair.eval_set) == 700
    eval_rows = {tuple(row) for row in pair.eval_set.features}
    prior_rows = {tuple(row) for row in S.features[pair.split_indices]}
    assert not eval_rows & prior_rows
    assert len(eval_rows | prior_rows) == 1000


@pytest.mark.parametrize(
    "m, alpha, message",
    [
        pytest.param(100, 0.005, "alpha=0.005 with m=100 leaves no rows for the prior split", id="prior"),
        pytest.param(400, 0.999, "alpha=0.999 with m=400 leaves 1 held-out row; the bounds need at least 2",
                     id="held-out"),
        pytest.param(100, 1.0, "alpha must lie in [0, 1)", id="alpha one"),
        pytest.param(100, -0.1, "alpha must lie in [0, 1)", id="negative alpha"),
        pytest.param(0, 0.3, "S must be non-empty", id="empty"),
    ],
)
def test_learn_prior_posterior_degenerate_split_rejected(monkeypatch, m, alpha, message):
    def train(*args):
        raise AssertionError("a network was trained")

    monkeypatch.setattr(stochastic, "train", train)
    S = _toy_sample(np.random.default_rng(2), m=m)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        learn_prior_posterior(S, alpha, ARCH, CFG_PRIOR, CFG_POST, sigma=0.03, seed=0)


def test_posterior_trained_on_all_rows():
    S = _toy_sample(np.random.default_rng(3), m=300)
    pair = learn_prior_posterior(S, 0.3, ARCH, CFG_PRIOR, CFG_POST, sigma=0.03, seed=1)
    # final checkpoint has seen every row of S for every posterior epoch
    assert pair.posterior_checkpoints[-1][0] == 1.0
    assert len(pair.posterior_checkpoints) == 10 + CFG_POST.epochs


def test_informed_prior_shrinks_final_kl():
    S = _toy_sample(np.random.default_rng(4), m=1000)
    kls = {}
    for alpha in (0.0, 0.3):
        pair = learn_prior_posterior(S, alpha, ARCH, CFG_PRIOR, CFG_POST, sigma=0.03, seed=12)
        kls[alpha] = kl_isotropic(pair.posterior_checkpoints[-1][1], pair.prior)
    assert kls[0.3] < kls[0.0]


def test_stream_rng_refuses_an_unknown_stream():
    with pytest.raises(ValueError, match="^unknown stream 'prior'$"):
        stream_rng(0, "prior")


@pytest.mark.parametrize("table", [seeding._STREAMS, seeding._SEED_KEYS], ids=["streams", "seed keys"])
def test_named_seed_tables_give_each_name_its_own_value(table):
    assert len(set(table.values())) == len(table)


def test_derive_seed_refuses_an_unknown_key():
    with pytest.raises(ValueError, match="^unknown seed key 'init'$"):
        derive_seed(0, "init")


def test_posterior_sample_set_validation():
    # draws must be (2P, d) with P >= 1
    for shape in ((3, 3), (0, 3), (4,)):
        with pytest.raises(ValueError):
            PosteriorSampleSet(draws=np.zeros(shape))
    # a non-finite weight in any draw
    for bad in (np.nan, np.inf, -np.inf):
        draws = np.zeros((2, 3))
        draws[1, 2] = bad
        with pytest.raises(ValueError, match="^draws must be finite$"):
            PosteriorSampleSet(draws=draws)
