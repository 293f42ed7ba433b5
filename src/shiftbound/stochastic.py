"""Isotropic Gaussians over weight space, their KL divergence, posterior
sampling, and the data-dependent prior/posterior learning procedure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import CheckpointSchedule, MlpArchitecture, TrainConfig, init_weights, train
from .samples import LabeledSample
from .seeding import stream_rng


@dataclass(frozen=True)
class IsotropicGaussian:
    """N(mean, sigma^2 I) with a single scalar std shared by every coordinate."""

    mean: np.ndarray
    sigma: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        if mean.ndim != 1:
            raise ValueError("mean must be a flat vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite values")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PosteriorSampleSet:
    """2P weight draws organised as P consecutive pairs (2i, 2i+1)."""

    draws: np.ndarray
    source_distribution: IsotropicGaussian
    seed: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=np.float64)
        object.__setattr__(self, "draws", draws)
        if draws.ndim != 2 or draws.shape[0] < 2 or draws.shape[0] % 2:
            raise ValueError("draws must be a (2P, d) array with P >= 1")
        if draws.shape[1] != self.source_distribution.dim:
            raise ValueError("draw length does not match distribution dimension")

    @property
    def num_pairs(self) -> int:
        return self.draws.shape[0] // 2

    @property
    def num_draws(self) -> int:
        return self.draws.shape[0]


def kl_isotropic(rho: IsotropicGaussian, pi: IsotropicGaussian) -> float:
    """Closed-form KL(rho || pi) between isotropic Gaussians of equal dimension:

        d * [ln(s_pi/s_rho) + s_rho^2/(2 s_pi^2) - 1/2] + ||mu_rho - mu_pi||^2 / (2 s_pi^2)
    """
    if rho.dim != pi.dim:
        raise ValueError("distributions have different dimensions")
    d = rho.dim
    var_ratio = (rho.sigma / pi.sigma) ** 2
    mean_term = float(np.sum((rho.mean - pi.mean) ** 2)) / (2.0 * pi.sigma**2)
    return d * (math.log(pi.sigma / rho.sigma) + 0.5 * var_ratio - 0.5) + mean_term


def sample_posterior(g: IsotropicGaussian, pairs: int, seed: int) -> PosteriorSampleSet:
    """Draw 2*pairs independent weight vectors w = mean + sigma * z, z ~ N(0, I)."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = stream_rng(seed, "posterior")
    z = rng.standard_normal((2 * pairs, g.dim))
    return PosteriorSampleSet(draws=g.mean[None, :] + g.sigma * z, source_distribution=g, seed=seed)


@dataclass
class PriorPosteriorPair:
    """A learned prior, the posterior trajectory, and the held-out rows the
    bounds must be evaluated on.

    The prior was trained only on the rows in ``split_indices``; ``eval_set``
    is their complement, so bound validity is preserved by construction.
    """

    prior: IsotropicGaussian
    posterior_checkpoints: list
    eval_set: LabeledSample
    alpha: float
    split_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.split_indices = np.asarray(self.split_indices, dtype=np.int64)
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        for _, g in self.posterior_checkpoints:
            if g.dim != self.prior.dim:
                raise ValueError("posterior checkpoint dimension mismatch")

    @property
    def final_posterior(self) -> IsotropicGaussian:
        return self.posterior_checkpoints[-1][1]


def learn_prior_posterior(
    S: LabeledSample,
    alpha: float,
    arch: MlpArchitecture,
    cfg_prior: TrainConfig,
    cfg_post: TrainConfig,
    sigma: float,
    seed: int,
    sched: CheckpointSchedule = CheckpointSchedule(),
) -> PriorPosteriorPair:
    """Split S, train a prior on the alpha fraction, continue training on all
    of S for the posterior trajectory, and attach the held-out complement.

    With alpha = 0 the prior is uninformed: its mean is the fresh
    initialisation and no prior training happens.
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    m = len(S)
    if m == 0:
        raise ValueError("S must be non-empty")
    # floor of alpha*m, guarded against float slop (0.7 * 1000 == 699.999...)
    n_prior = int(math.floor(alpha * m + 1e-9))
    if alpha > 0 and n_prior < 1:
        raise ValueError(f"alpha={alpha} with m={m} leaves no rows for the prior split")

    perm = stream_rng(seed, "split").permutation(m)
    prior_idx = np.sort(perm[:n_prior])
    eval_idx = np.sort(perm[n_prior:])

    w_init = init_weights(arch, seed)
    if n_prior > 0:
        w_alpha, _ = train(arch, w_init, S.subset(prior_idx), cfg_prior, CheckpointSchedule(0, True))
    else:
        w_alpha = w_init

    _, checkpoints = train(arch, w_alpha, S, cfg_post, sched)

    prior = IsotropicGaussian(mean=w_alpha, sigma=sigma)
    posteriors = [(frac, IsotropicGaussian(mean=w, sigma=sigma)) for frac, w in checkpoints]
    return PriorPosteriorPair(
        prior=prior,
        posterior_checkpoints=posteriors,
        eval_set=S.subset(eval_idx),
        alpha=alpha,
        split_indices=prior_idx,
    )

