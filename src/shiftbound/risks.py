"""Empirical estimators feeding the bounds. ``estimate_risks`` returns
every one a checkpoint needs: the Gibbs risk and its importance-weighted
counterpart on the source, pairwise disagreement on source and target, and
joint error on the source (and, under oracle access, on the target).

Every estimate is a reduction of one prediction matrix per (draw set,
sample): ``_predictions`` evaluates all draws in one stacked float32
``forward`` call and returns the (2P, n) bool matrix of the float64 pass's
hard labels; nothing else here calls ``forward``. Gibbs risks reduce each
draw's row over the sample, then average over all 2P draws; pairwise
quantities reduce the rows of each consecutive draw pair (2i, 2i+1) over
the sample, then average over the P pairs. Means and Monte-Carlo standard
deviations over draws or pairs come from ``_mean_and_mc_std``;
``gibbs_risk`` is that reduction for a Gibbs risk. ``lambda_rho_oracle``
forms lambda_rho from oracle-mode estimates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import MlpArchitecture, float64_labels, forward
from .samples import LabeledSample, UnlabeledSample
from .stochastic import PosteriorSampleSet


class OracleAccessError(RuntimeError):
    """A target-label quantity was requested without oracle mode enabled."""


@dataclass
class RiskEstimates:
    """Estimator values consumed by the bounds, with Monte-Carlo standard
    deviations per field in ``mc_std``. ``joint_error_target`` is populated
    only under oracle access. ``oracle_target_gibbs_risk`` is the Gibbs risk
    on the labeled target when one is given: an evaluation-only value that no
    bound reads, and without an ``mc_std`` entry."""

    gibbs_risk: float
    disagreement_source: float
    disagreement_target: float
    joint_error_source: float
    gibbs_weighted_risk: float | None = None
    joint_error_target: float | None = None
    oracle_target_gibbs_risk: float | None = None
    mc_std: dict = field(default_factory=dict)


def _mean_and_mc_std(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


def _predictions(arch: MlpArchitecture, draws, data) -> np.ndarray:
    """(len(draws), n) hard labels as bools (True is label 1): row k is draw
    k evaluated on the sample. Comparing them with 0/1 labels gives bool
    error indicators. They are the labels of the float64 pass, bit for bit,
    taken from one float32 pass (``nn.float64_labels``)."""
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    draws = np.asarray(draws, dtype=np.float64)
    return float64_labels(arch, draws, data.features, forward(arch, draws.astype(np.float32), data.features))


def _row_means(indicators: np.ndarray, weights=None) -> np.ndarray:
    """Mean over the sample of each row, optionally weighted per column."""
    return np.mean(indicators if weights is None else weights * indicators, axis=1)


def _disagreement_per_pair(preds: np.ndarray) -> np.ndarray:
    return _row_means(preds[0::2] != preds[1::2])


def _joint_error_per_pair(errors: np.ndarray) -> np.ndarray:
    return _row_means(errors[0::2] & errors[1::2])


def gibbs_risk(errors: np.ndarray, weights=None) -> tuple[float, float]:
    """Mean over draws of each draw's empirical risk, optionally weighted
    per row, and its Monte-Carlo standard deviation: ``errors`` is one
    sample's (draws, n) error matrix."""
    return _mean_and_mc_std(_row_means(errors, weights))


def lambda_rho_oracle(estimates: RiskEstimates) -> float:
    """|joint error on target - joint error on source|, the add bound's
    lambda_rho. Refuses estimates made without ``oracle=True``, which carry
    no target joint error, so non-estimable quantities cannot slip into
    reported bounds unnoticed."""
    if estimates.joint_error_target is None:
        raise OracleAccessError("lambda_rho needs estimates made with oracle=True")
    return abs(estimates.joint_error_target - estimates.joint_error_source)


def estimate_risks(
    arch: MlpArchitecture,
    samples: PosteriorSampleSet,
    source_eval: LabeledSample,
    target: LabeledSample | UnlabeledSample,
    *,
    oracle: bool = False,
) -> RiskEstimates:
    """Assemble every estimator the bounds consume from one posterior sample
    set, evaluating each draw once on ``source_eval`` and once on ``target``.
    The estimable quantities read only ``target``'s features. A labeled
    ``target`` also gives ``oracle_target_gibbs_risk`` and, only with
    ``oracle=True``, ``joint_error_target``; an unlabeled one gives neither."""
    if oracle and not isinstance(target, LabeledSample):
        raise OracleAccessError("oracle=True but no labeled target sample given")

    source_preds = _predictions(arch, samples.draws, source_eval)
    target_preds = _predictions(arch, samples.draws, target)
    source_errors = source_preds != source_eval.labels
    per_pair = {
        "disagreement_source": _disagreement_per_pair(source_preds),
        "disagreement_target": _disagreement_per_pair(target_preds),
        "joint_error_source": _joint_error_per_pair(source_errors),
    }
    stats = {"gibbs_risk": gibbs_risk(source_errors)}
    if source_eval.weights is not None:
        stats["gibbs_weighted_risk"] = gibbs_risk(source_errors, source_eval.weights)

    oracle_risk = None
    if isinstance(target, LabeledSample):
        target_errors = target_preds != target.labels
        oracle_risk = gibbs_risk(target_errors)[0]
        if oracle:
            per_pair["joint_error_target"] = _joint_error_per_pair(target_errors)

    stats.update({name: _mean_and_mc_std(v) for name, v in per_pair.items()})
    return RiskEstimates(
        **{name: mean for name, (mean, _) in stats.items()},
        oracle_target_gibbs_risk=oracle_risk,
        mc_std={name: std for name, (_, std) in stats.items()},
    )
