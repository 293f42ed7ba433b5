"""Certified upper bounds on target risk, plus union-bound-corrected grid
search over their free parameters.

Five bounds are implemented. Writing KL for the prior-posterior divergence,
m for the labeled source sample size and n for the unlabeled target sample
size (both as actually used to evaluate the estimators):

  mcallester   (1/g) R_hat + (KL + ln(1/d)) / (2 g (1-g) m)
  iw           (1/g) R_hat_w + B (KL + ln(1/d)) / (2 g (1-g) m)
  mult         a' d_t/2 + b' B e_s + (a'/(n a) + b' B/(m b)) (2 KL + ln(2/d))
  add          w' R_hat + g' Dis/2 + (w'/w + g'/g)(KL + ln(3/d))/m
                 + lambda + (g' - 1)/2          [uses min(m, n); oracle only]
  mmd          (1/g) R_hat + (KL + ln(2/d)) / (2 g (1-g) m) + MMD
                 + 2 sqrt(1/m) (2 + sqrt(ln(4/d)))   [uses min(m, n)]

where B is the worst-case density ratio, x' = x/(1 - e^-x) for a, b, w and
g' = 2g/(1 - e^-2g). The mmd constant is 2 sqrt(K/m) (...) with K the sup of
the kernel, which is 1 for the Gaussian kernel of ``divergences``.
mcallester, iw and mmd share one gamma form (``_gamma_form``). Values above
1 are reported as-is; vacuity is information, never clipped away.

Each bound is declared once, in ``_BOUNDS``: its terms function, its default
free-parameter grid and whether it reads oracle target labels.
``BOUND_NAMES``, ``default_grid``, ``bound_terms``, ``grid_search``'s
``oracle_used`` and ``ORACLE_BOUNDS`` all derive from that table.
"""

import itertools
import math
from dataclasses import dataclass

from .risks import OracleAccessError, RiskEstimates

# Free-parameter candidates: {1, 5} x 10^k sweeps for the unconstrained
# parameters, and a (0, 1) grid for the gamma of the single-sample bounds.
POSITIVE_GRID = tuple(
    c * 10.0**e for e in range(-3, 5) for c in (1.0, 5.0)
) + (1e5,)
GAMMA_GRID = (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 9.9e-1)


@dataclass(frozen=True)
class ParamGrid:
    """Ordered map of free-parameter name to candidate values."""

    values: dict

    def __post_init__(self):
        clean = {k: tuple(sorted(float(v) for v in vs)) for k, vs in self.values.items()}
        object.__setattr__(self, "values", clean)
        if not clean or any(len(v) == 0 for v in clean.values()):
            raise ValueError("grid must have at least one candidate per parameter")

    @property
    def size(self) -> int:
        return math.prod(len(v) for v in self.values.values())


@dataclass(frozen=True)
class BoundInputs:
    """Everything a bound evaluation may consume. ``m_source`` and ``n_target``
    are the sizes of the samples the estimates were computed on (for the
    source, the held-out evaluation split). Optional fields are validated by
    the bounds that need them."""

    m_source: int
    n_target: int
    kl: float
    delta: float
    estimates: RiskEstimates
    beta_inf: float | None = None
    mmd_value: float | None = None
    lambda_rho: float | None = None

    def __post_init__(self):
        if self.m_source < 1 or self.n_target < 1:
            raise ValueError("sample sizes must be positive")
        if not (math.isfinite(self.kl) and self.kl >= 0):
            raise ValueError("kl must be finite and >= 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.beta_inf is not None and not (math.isfinite(self.beta_inf) and self.beta_inf > 0):
            raise ValueError("beta_inf must be finite and > 0")
        if self.mmd_value is not None and not (math.isfinite(self.mmd_value) and self.mmd_value >= 0):
            raise ValueError("mmd_value must be finite and >= 0")
        if self.lambda_rho is not None and not (math.isfinite(self.lambda_rho) and self.lambda_rho >= 0):
            raise ValueError("lambda_rho must be finite and >= 0")


@dataclass(frozen=True)
class BoundResult:
    name: str
    value: float
    params: dict
    delta_effective: float
    terms: tuple  # ordered ((label, value), ...); their sum is the bound value
    oracle_used: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "params": dict(self.params),
            "delta_effective": self.delta_effective,
            "terms": [{"label": lab, "value": val} for lab, val in self.terms],
            "oracle_used": self.oracle_used,
        }


def convexity_constant(a: float) -> float:
    """a / (1 - e^{-a}) for a > 0; tends to 1 as a -> 0+.

    expm1 keeps the denominator accurate for small a, so no series fallback
    is needed.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError("a must be finite and > 0")
    return a / -math.expm1(-a)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _gamma_form(inputs: BoundInputs, delta: float, gamma: float, risk: float, m: int, c: float,
                scale: float = 1.0, domain: float = 0.0, constant: float = 0.0):
    """The gamma form that mcallester, iw and mmd share:
    risk/g + scale (KL + ln(c/d)) / (2 g (1-g) m) + domain + constant."""
    _require(0 < gamma < 1, f"gamma must lie in (0, 1), got {gamma}")
    return (
        ("risk", risk / gamma),
        ("kl", scale * (inputs.kl + math.log(c / delta)) / (2.0 * gamma * (1.0 - gamma) * m)),
        ("domain", domain),
        ("constant", constant),
    )


def _mcallester_terms(inputs: BoundInputs, delta: float, gamma: float):
    return _gamma_form(inputs, delta, gamma, inputs.estimates.gibbs_risk, inputs.m_source, 1.0)


def _iw_terms(inputs: BoundInputs, delta: float, gamma: float):
    _require(inputs.beta_inf is not None, "iw bound needs beta_inf")
    _require(
        inputs.estimates.gibbs_weighted_risk is not None,
        "iw bound needs a weighted Gibbs risk (importance weights attached)",
    )
    return _gamma_form(
        inputs, delta, gamma, inputs.estimates.gibbs_weighted_risk, inputs.m_source, 1.0,
        scale=inputs.beta_inf,
    )


def _mult_terms(inputs: BoundInputs, delta: float, a: float, b: float):
    _require(a > 0 and b > 0, "a and b must be positive")
    _require(inputs.beta_inf is not None, "mult bound needs beta_inf")
    # no unseen-target-mass term: every task builder refuses a task without
    # overlap (OverlapError), so that term is identically zero
    beta = inputs.beta_inf
    a_c = convexity_constant(a)
    b_c = convexity_constant(b)
    m, n = inputs.m_source, inputs.n_target
    est = inputs.estimates
    return (
        ("risk", b_c * beta * est.joint_error_source),
        (
            "kl",
            (a_c / (n * a) + b_c * beta / (m * b))
            * (2.0 * inputs.kl + math.log(2.0 / delta)),
        ),
        ("domain", a_c * 0.5 * est.disagreement_target),
        ("constant", 0.0),
    )


def _add_terms(inputs: BoundInputs, delta: float, omega: float, gamma: float):
    _require(omega > 0 and gamma > 0, "omega and gamma must be positive")
    if inputs.lambda_rho is None:
        raise OracleAccessError(
            "add bound needs lambda_rho, which requires oracle target labels"
        )
    w_c = convexity_constant(omega)
    g_c = convexity_constant(2.0 * gamma)  # 2 gamma / (1 - e^{-2 gamma})
    m = min(inputs.m_source, inputs.n_target)
    est = inputs.estimates
    dis = abs(est.disagreement_target - est.disagreement_source)
    return (
        ("risk", w_c * est.gibbs_risk),
        ("kl", (w_c / omega + g_c / gamma) * (inputs.kl + math.log(3.0 / delta)) / m),
        ("domain", g_c * 0.5 * dis),
        ("lambda_rho", inputs.lambda_rho),
        ("constant", 0.5 * (g_c - 1.0)),
    )


def _mmd_terms(inputs: BoundInputs, delta: float, gamma: float):
    _require(inputs.mmd_value is not None, "mmd bound needs an mmd_value")
    m = min(inputs.m_source, inputs.n_target)
    # K = sup k(x, x') = 1 for the Gaussian kernel, so sqrt(K/m) = sqrt(1/m);
    # 1/sqrt(m) rounds differently for many m and would change the reports
    constant = 2.0 * math.sqrt(1.0 / m) * (2.0 + math.sqrt(math.log(4.0 / delta)))
    return _gamma_form(
        inputs, delta, gamma, inputs.estimates.gibbs_risk, m, 2.0,
        domain=inputs.mmd_value, constant=constant,
    )


@dataclass(frozen=True)
class _Bound:
    terms: object  # (inputs, delta, **params) -> ((label, value), ...)
    grid: ParamGrid
    oracle: bool  # whether the bound reads oracle target labels


_GAMMA = ParamGrid({"gamma": GAMMA_GRID})

# Every bound once, in report order: its terms, its default free-parameter
# grid, and whether it needs oracle target labels.
_BOUNDS = {
    "mcallester": _Bound(_mcallester_terms, _GAMMA, oracle=False),
    "mult": _Bound(_mult_terms, ParamGrid({"a": POSITIVE_GRID, "b": POSITIVE_GRID}), oracle=False),
    "add": _Bound(_add_terms, ParamGrid({"omega": POSITIVE_GRID, "gamma": POSITIVE_GRID}), oracle=True),
    "iw": _Bound(_iw_terms, _GAMMA, oracle=False),
    "mmd": _Bound(_mmd_terms, _GAMMA, oracle=False),
}
BOUND_NAMES = tuple(_BOUNDS)
ORACLE_BOUNDS = tuple(name for name, b in _BOUNDS.items() if b.oracle)


def _bound(name: str) -> _Bound:
    if name not in _BOUNDS:
        raise ValueError(f"unknown bound {name!r}")
    return _BOUNDS[name]


def default_grid(bound: str) -> ParamGrid:
    return _bound(bound).grid


def bound_terms(name: str, inputs: BoundInputs, delta: float, **params):
    return _bound(name).terms(inputs, delta, **params)


def _value(terms) -> float:
    return sum(v for _, v in terms)


def grid_search(bound: str, inputs: BoundInputs, grid: ParamGrid | None = None) -> BoundResult:
    """Minimise a bound over its free-parameter grid with the union-bound
    correction: every candidate is evaluated at delta / grid_size, so the
    returned minimum is itself a valid (1 - delta) guarantee.

    Ties go to the lexicographically smallest parameter tuple.
    """
    spec = _bound(bound)
    if grid is None:
        grid = spec.grid
    delta_eff = inputs.delta / grid.size
    names = list(grid.values.keys())
    best = None
    for combo in itertools.product(*grid.values.values()):
        params = dict(zip(names, combo))
        terms = spec.terms(inputs, delta_eff, **params)
        value = _value(terms)
        if best is None or value < best[0]:
            best = (value, params, terms)
    value, params, terms = best
    return BoundResult(
        name=bound,
        value=value,
        params=params,
        delta_effective=delta_eff,
        terms=tuple(terms),
        oracle_used=spec.oracle,
    )
