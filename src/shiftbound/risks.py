"""Empirical estimators feeding the bounds. ``estimate_risks`` returns
every one a checkpoint needs: the Gibbs risk and its importance-weighted
counterpart on the source, pairwise disagreement on source and target, and
joint error on the source (and, under oracle access, on the target).

Every estimate is a reduction of one prediction matrix per (draw set,
sample): ``_predictions`` evaluates all draws in one stacked ``forward``
call and returns the (2P, n) matrix of hard labels; nothing else here calls
``forward``. Gibbs risks reduce each draw's row over the sample, then
average over all 2P draws; pairwise quantities reduce the rows of each
consecutive draw pair (2i, 2i+1) over the sample, then average over the P
pairs. Means and Monte-Carlo standard deviations over draws or pairs come
from ``_mean_and_mc_std``. ``gibbs_risk`` and ``lambda_rho_oracle`` remain
only as spans for the benchmark tracer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import MlpArchitecture, forward, predict
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
    """(len(draws), n) hard labels: row k is draw k evaluated on the sample."""
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    return predict(forward(arch, draws, data.features))


def _row_means(indicators: np.ndarray, weights=None) -> np.ndarray:
    """Mean over the sample of each row, optionally weighted per column."""
    return np.mean(indicators if weights is None else weights * indicators, axis=1)


def _disagreement_per_pair(preds: np.ndarray) -> np.ndarray:
    return _row_means(preds[0::2] != preds[1::2])


def _joint_error_per_pair(errors: np.ndarray) -> np.ndarray:
    return _row_means(errors[0::2] & errors[1::2])


def gibbs_risk(arch: MlpArchitecture, samples: PosteriorSampleSet, data: LabeledSample):
    """Mean empirical risk over all posterior draws; returns (estimate, mc_std).

    Kept only for the benchmark tracer's spans, until the benchmark drops
    them; runs get this value from :func:`estimate_risks`."""
    return _mean_and_mc_std(_row_means(_predictions(arch, samples.draws, data) != data.labels))


def lambda_rho_oracle(
    arch: MlpArchitecture,
    samples: PosteriorSampleSet,
    source: LabeledSample,
    target_labeled: LabeledSample,
    *,
    oracle: bool = False,
) -> float:
    """|joint error on target - joint error on source|, computable only with
    target labels. Refuses unless ``oracle=True`` so non-estimable quantities
    cannot slip into reported bounds unnoticed.

    Kept only for the benchmark tracer's spans, until the benchmark drops
    them; runs compute it from :func:`estimate_risks`."""
    if not oracle:
        raise OracleAccessError(
            "lambda_rho needs target labels; pass oracle=True to acknowledge"
        )
    target_joint, source_joint = (
        _joint_error_per_pair(_predictions(arch, samples.draws, data) != data.labels).mean()
        for data in (target_labeled, source)
    )
    return float(abs(target_joint - source_joint))


def estimate_risks(
    arch: MlpArchitecture,
    samples: PosteriorSampleSet,
    source_eval: LabeledSample,
    target_x: UnlabeledSample,
    *,
    target_oracle: LabeledSample | None = None,
    oracle: bool = False,
) -> RiskEstimates:
    """Assemble every estimator the bounds consume from one posterior sample
    set, evaluating each draw once on ``source_eval`` and once on
    ``target_x``. ``target_oracle`` must hold ``target_x``'s rows; its labels
    give ``oracle_target_gibbs_risk`` and, only with ``oracle=True``,
    ``joint_error_target``."""
    if oracle and target_oracle is None:
        raise OracleAccessError("oracle=True but no labeled target sample given")
    # array_equal is False on a shape mismatch too
    if target_oracle is not None and not np.array_equal(target_oracle.features, target_x.features):
        raise ValueError("target_oracle must hold the same feature rows as target_x")

    source_preds = _predictions(arch, samples.draws, source_eval)
    target_preds = _predictions(arch, samples.draws, target_x)
    source_errors = source_preds != source_eval.labels
    per_draw_or_pair = {
        "gibbs_risk": _row_means(source_errors),
        "disagreement_source": _disagreement_per_pair(source_preds),
        "disagreement_target": _disagreement_per_pair(target_preds),
        "joint_error_source": _joint_error_per_pair(source_errors),
    }
    if source_eval.weights is not None:
        per_draw_or_pair["gibbs_weighted_risk"] = _row_means(source_errors, source_eval.weights)

    oracle_risk = None
    if target_oracle is not None:
        target_errors = target_preds != target_oracle.labels
        oracle_risk = _mean_and_mc_std(_row_means(target_errors))[0]
        if oracle:
            per_draw_or_pair["joint_error_target"] = _joint_error_per_pair(target_errors)

    stats = {name: _mean_and_mc_std(v) for name, v in per_draw_or_pair.items()}
    return RiskEstimates(
        **{name: mean for name, (mean, _) in stats.items()},
        oracle_target_gibbs_risk=oracle_risk,
        mc_std={name: std for name, (_, std) in stats.items()},
    )
