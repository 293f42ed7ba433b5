import itertools
import math

import numpy as np
import pytest

from shiftbound import (
    BoundInputs,
    OracleAccessError,
    ParamGrid,
    RiskEstimates,
    convexity_constant,
    default_grid,
    grid_search,
)
from shiftbound.bounds import BOUND_NAMES, ORACLE_BOUNDS, bound_terms

# ---------------------------------------------------------------------------
# independent straight-line reference evaluations (kept deliberately separate
# from the library implementations)

def ref_cc(x):
    return x / (1.0 - math.exp(-x))


def ref_mcallester(r, kl, delta, m, gamma):
    return r / gamma + (kl + math.log(1 / delta)) / (2 * gamma * (1 - gamma) * m)


def ref_iw(rw, kl, delta, m, gamma, beta):
    return rw / gamma + beta * (kl + math.log(1 / delta)) / (2 * gamma * (1 - gamma) * m)


def ref_mult(dis_t, joint_s, kl, delta, m, n, beta, a, b):
    ap, bp = ref_cc(a), ref_cc(b)
    return (
        ap * 0.5 * dis_t
        + bp * beta * joint_s
        + (ap / (n * a) + bp * beta / (m * b)) * (2 * kl + math.log(2 / delta))
    )


def ref_add(r, dis, lam, kl, delta, m, n, omega, gamma):
    wp = ref_cc(omega)
    gp = 2 * gamma / (1 - math.exp(-2 * gamma))
    mm = min(m, n)
    return (
        wp * r
        + gp * 0.5 * dis
        + (wp / omega + gp / gamma) * (kl + math.log(3 / delta)) / mm
        + lam
        + 0.5 * (gp - 1)
    )


def ref_mmd(r, kl, delta, m, n, gamma, mmd):
    mm = min(m, n)
    return (
        r / gamma
        + (kl + math.log(2 / delta)) / (2 * gamma * (1 - gamma) * mm)
        + mmd
        + 2 * math.sqrt(1 / mm) * (2 + math.sqrt(math.log(4 / delta)))
    )


def bound(name, inputs, **params):
    """A bound's value at ``inputs.delta``: the sum of its terms."""
    return sum(v for _, v in bound_terms(name, inputs, inputs.delta, **params))


def make_inputs(
    r=0.1,
    rw=0.1,
    dis_s=0.05,
    dis_t=0.15,
    joint_s=0.02,
    kl=10.0,
    delta=0.05,
    m=10000,
    n=10000,
    beta=11.0,
    mmd=0.0,
    lam=None,
):
    est = RiskEstimates(
        gibbs_risk=r,
        gibbs_weighted_risk=rw,
        disagreement_source=dis_s,
        disagreement_target=dis_t,
        joint_error_source=joint_s,
    )
    return BoundInputs(
        m_source=m,
        n_target=n,
        kl=kl,
        delta=delta,
        estimates=est,
        beta_inf=beta,
        mmd_value=mmd,
        lambda_rho=lam,
    )


def test_convexity_constant_values():
    assert convexity_constant(1.0) == pytest.approx(1.581977, abs=1e-6)
    assert convexity_constant(5.0) == pytest.approx(5.033918, abs=1e-6)
    # analytic small-argument limit is 1
    assert convexity_constant(1e-12) == pytest.approx(1.0, abs=1e-9)
    assert convexity_constant(1e-300) == 1.0
    grid = [1e-3, 1e-2, 0.1, 1.0, 2.0, 5.0, 50.0]
    vals = [convexity_constant(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        convexity_constant(0.0)
    with pytest.raises(ValueError):
        convexity_constant(-1.0)


# frozen straight-line evaluations of the worked parameter settings
WORKED = {
    "mcallester": 0.2025991464547108,
    "iw": 0.2285906110018188,
    "mult": 0.011671442741714166,
    "add": 0.6724651639204102,
    "mmd": 0.0826043574788812,
}


def test_worked_example_mcallester():
    inputs = make_inputs(r=0.1, kl=10.0, delta=0.05, m=10000)
    assert bound("mcallester", inputs, gamma=0.5) == pytest.approx(WORKED["mcallester"], abs=1e-6)
    assert bound("mcallester", inputs, gamma=0.5) == pytest.approx(0.202599, abs=1e-6)


def test_worked_example_iw():
    inputs = make_inputs(rw=0.1, kl=10.0, delta=0.05, m=10000, beta=11.0)
    assert bound("iw", inputs, gamma=0.5) == pytest.approx(WORKED["iw"], abs=1e-6)
    assert bound("iw", inputs, gamma=0.5) == pytest.approx(0.228590, abs=1e-6)


def test_worked_example_mult():
    inputs = make_inputs(dis_t=0.0, joint_s=0.0, kl=0.0, delta=0.05, m=1000, n=1000, beta=1.0)
    assert bound("mult", inputs, a=1.0, b=1.0) == pytest.approx(WORKED["mult"], abs=1e-6)
    assert bound("mult", inputs, a=1.0, b=1.0) == pytest.approx(0.011672, abs=1e-6)


def test_worked_example_add():
    inputs = make_inputs(
        r=0.0, dis_s=0.0, dis_t=0.0, kl=0.0, delta=0.05, m=1000, n=1000, lam=0.0
    )
    assert bound("add", inputs, omega=1.0, gamma=1.0) == pytest.approx(WORKED["add"], abs=1e-6)


def test_worked_example_mmd():
    inputs = make_inputs(r=0.0, kl=0.0, delta=0.05, m=10000, n=10000, mmd=0.0)
    assert bound("mmd", inputs, gamma=0.5) == pytest.approx(WORKED["mmd"], abs=1e-6)


def test_mcallester_limit_and_gamma_ordering():
    inputs = make_inputs(r=0.0, kl=0.0, delta=0.05, m=10**9)
    assert bound("mcallester", inputs, gamma=0.5) < 1e-8
    assert bound("mcallester", inputs, gamma=0.5) <= bound("mcallester", inputs, gamma=0.25)


def test_add_gamma_limit():
    # gamma -> 0+: the additive constant (g' - 1)/2 vanishes
    inputs = make_inputs(r=0.0, dis_s=0.0, dis_t=0.0, kl=0.0, lam=0.0)
    constants = [
        dict(bound_terms("add", inputs, 0.05, omega=1.0, gamma=g))["constant"]
        for g in (1e-2, 1e-4, 1e-6)
    ]
    assert constants[0] > constants[1] > abs(constants[2]) - 1e-12
    assert constants[2] == pytest.approx(0.0, abs=1e-5)


def random_valid_inputs(rng):
    return dict(
        r=float(rng.uniform(0, 1)),
        rw=float(rng.uniform(0, 5)),
        dis_s=float(rng.uniform(0, 1)),
        dis_t=float(rng.uniform(0, 1)),
        joint_s=float(rng.uniform(0, 1)),
        kl=float(rng.uniform(0, 1000)),
        delta=float(rng.uniform(0.001, 0.5)),
        m=int(rng.integers(10, 10**6)),
        n=int(rng.integers(10, 10**6)),
        beta=float(rng.uniform(1, 100)),
        mmd=float(rng.uniform(0, 2)),
        lam=float(rng.uniform(0, 1)),
    )


def test_formula_crosscheck_1000_random_inputs():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        v = random_valid_inputs(rng)
        inputs = make_inputs(**v)
        gamma = float(rng.uniform(0.01, 0.99))
        a = float(10 ** rng.uniform(-3, 5))
        b = float(10 ** rng.uniform(-3, 5))
        omega = float(10 ** rng.uniform(-3, 5))
        gpos = float(10 ** rng.uniform(-3, 5))
        assert bound("mcallester", inputs, gamma=gamma) == pytest.approx(
            ref_mcallester(v["r"], v["kl"], v["delta"], v["m"], gamma), rel=1e-12
        )
        assert bound("iw", inputs, gamma=gamma) == pytest.approx(
            ref_iw(v["rw"], v["kl"], v["delta"], v["m"], gamma, v["beta"]), rel=1e-12
        )
        assert bound("mult", inputs, a=a, b=b) == pytest.approx(
            ref_mult(
                v["dis_t"], v["joint_s"], v["kl"], v["delta"], v["m"], v["n"], v["beta"], a, b
            ),
            rel=1e-12,
        )
        assert bound("add", inputs, omega=omega, gamma=gpos) == pytest.approx(
            ref_add(
                v["r"], abs(v["dis_t"] - v["dis_s"]), v["lam"], v["kl"], v["delta"],
                v["m"], v["n"], omega, gpos,
            ),
            rel=1e-12,
        )
        assert bound("mmd", inputs, gamma=gamma) == pytest.approx(
            ref_mmd(v["r"], v["kl"], v["delta"], v["m"], v["n"], gamma, v["mmd"]),
            rel=1e-12,
        )


def test_iw_reduces_to_mcallester_when_beta_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = random_valid_inputs(rng)
        v["beta"] = 1.0
        v["rw"] = v["r"]
        inputs = make_inputs(**v)
        gamma = float(rng.uniform(0.01, 0.99))
        assert bound("iw", inputs, gamma=gamma) == bound("mcallester", inputs, gamma=gamma)


def test_mmd_reduces_to_mcallester_with_two_delta():
    # the risk and kl terms of mmd are mcallester's, with ln(2/delta)
    v = dict(r=0.3, kl=5.0, delta=0.1, m=5000, n=5000)
    inputs = make_inputs(r=v["r"], kl=v["kl"], delta=v["delta"], m=v["m"], n=v["n"], mmd=0.0)
    gamma = 0.5
    want = v["r"] / gamma + (v["kl"] + math.log(2 / v["delta"])) / (2 * gamma * (1 - gamma) * v["m"])
    terms = dict(bound_terms("mmd", inputs, v["delta"], gamma=gamma))
    assert terms["risk"] + terms["kl"] == pytest.approx(want, rel=1e-9)


def test_beta_linearity_in_mult_risk_term():
    base = make_inputs(joint_s=0.2, beta=3.0)
    doubled = make_inputs(joint_s=0.2, beta=6.0)
    t1 = dict(bound_terms("mult", base, 0.05, a=1.0, b=1.0))
    t2 = dict(bound_terms("mult", doubled, 0.05, a=1.0, b=1.0))
    assert t2["risk"] == pytest.approx(2 * t1["risk"], rel=1e-12)


def test_iw_monotone_in_beta():
    v1 = make_inputs(beta=2.0)
    v2 = make_inputs(beta=3.0)
    assert bound("iw", v2, gamma=0.5) > bound("iw", v1, gamma=0.5)


def test_mmd_term_additivity():
    a = make_inputs(mmd=0.0)
    b = make_inputs(mmd=0.3)
    assert bound("mmd", b, gamma=0.5) - bound("mmd", a, gamma=0.5) == pytest.approx(0.3, abs=1e-12)


def test_delta_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = random_valid_inputs(rng)
        lo = dict(v, delta=0.01)
        hi = dict(v, delta=0.2)
        for name, params in (
            ("mcallester", {"gamma": 0.5}),
            ("iw", {"gamma": 0.5}),
            ("mult", {"a": 1.0, "b": 1.0}),
            ("add", {"omega": 1.0, "gamma": 1.0}),
            ("mmd", {"gamma": 0.5}),
        ):
            assert bound(name, make_inputs(**hi), **params) < bound(name, make_inputs(**lo), **params)


def test_kl_term_scales_inversely_with_m():
    small = dict(bound_terms("mcallester", make_inputs(m=1000), 0.05, gamma=0.5))
    large = dict(bound_terms("mcallester", make_inputs(m=2000), 0.05, gamma=0.5))
    assert small["kl"] == pytest.approx(2 * large["kl"], rel=1e-12)


def test_term_breakdown_sums_to_value():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = random_valid_inputs(rng)
        inputs = make_inputs(**v)
        for name, params in (
            ("mcallester", {"gamma": 0.3}),
            ("iw", {"gamma": 0.3}),
            ("mult", {"a": 2.0, "b": 0.5}),
            ("add", {"omega": 2.0, "gamma": 0.5}),
            ("mmd", {"gamma": 0.3}),
        ):
            terms = bound_terms(name, inputs, v["delta"], **params)
            total = sum(val for _, val in terms)
            res = grid_search(name, inputs, ParamGrid({k: [x] for k, x in params.items()}))
            assert res.terms == tuple(terms)
            assert abs(res.value - total) <= 1e-12 * max(1, abs(total))


def test_vacuous_values_not_clipped():
    inputs = make_inputs(kl=1e6, m=100)
    assert bound("mcallester", inputs, gamma=0.5) > 1.0


def test_required_field_errors():
    est = RiskEstimates(
        gibbs_risk=0.1, disagreement_source=0.0, disagreement_target=0.0, joint_error_source=0.0
    )
    no_extras = BoundInputs(m_source=100, n_target=100, kl=1.0, delta=0.05, estimates=est)
    with pytest.raises(ValueError):
        bound("iw", no_extras, gamma=0.5)
    with pytest.raises(ValueError):
        bound("mult", no_extras, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        bound("mmd", no_extras, gamma=0.5)
    with pytest.raises(OracleAccessError):
        bound("add", make_inputs(lam=None), omega=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        bound("mcallester", make_inputs(), gamma=1.0)
    with pytest.raises(ValueError):
        bound("mcallester", make_inputs(), gamma=0.0)
    with pytest.raises(ValueError):
        bound("mult", make_inputs(), a=-1.0, b=1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_beta_inf_must_be_finite_and_positive(beta):
    with pytest.raises(ValueError, match="beta_inf must be finite and > 0"):
        make_inputs(beta=beta)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("field, key", [("mmd_value", "mmd"), ("lambda_rho", "lam")])
def test_mmd_and_lambda_rho_must_be_finite_and_nonnegative(field, key, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        make_inputs(**{key: value})


def test_grid_search_singleton():
    inputs = make_inputs()
    res = grid_search("mcallester", inputs, ParamGrid({"gamma": [0.5]}))
    assert res.delta_effective == inputs.delta
    assert res.value == bound("mcallester", inputs, gamma=0.5)
    assert res.params == {"gamma": 0.5}
    assert not res.oracle_used


def test_grid_search_union_bound_and_minimum():
    inputs = make_inputs()
    grid = ParamGrid({"gamma": [0.25, 0.5, 0.75]})
    res = grid_search("mcallester", inputs, grid)
    assert res.delta_effective == pytest.approx(0.05 / 3, rel=1e-15)
    values = [
        sum(v for _, v in bound_terms("mcallester", inputs, 0.05 / 3, gamma=g))
        for g in (0.25, 0.5, 0.75)
    ]
    assert res.value == min(values)
    assert res.value <= min(values) + 1e-15


def test_default_grid_sizes():
    assert default_grid("mult").size == 289
    assert default_grid("add").size == 289
    assert default_grid("iw").size == 7
    assert default_grid("mmd").size == 7
    assert default_grid("mcallester").size == 7
    assert default_grid("iw").values["gamma"] == (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 9.9e-1)
    germain = default_grid("mult").values["a"]
    assert len(germain) == 17
    assert germain[0] == 1e-3 and germain[-1] == 1e5
    assert 5e4 in germain and 5e-3 in germain


def test_grid_search_matches_exhaustive_recomputation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = random_valid_inputs(rng)
        inputs = make_inputs(**v)
        grid = ParamGrid({"a": [0.5, 1.0, 3.0], "b": [0.2, 2.0]})
        res = grid_search("mult", inputs, grid)
        deff = v["delta"] / 6
        best = math.inf
        best_params = None
        for a, b in itertools.product((0.5, 1.0, 3.0), (0.2, 2.0)):
            val = sum(x for _, x in bound_terms("mult", inputs, deff, a=a, b=b))
            if val < best:
                best, best_params = val, {"a": a, "b": b}
        assert res.value == best
        assert res.params == best_params
        assert res.delta_effective == deff
        assert sum(x for _, x in res.terms) == res.value


def test_grid_search_tie_keeps_first():
    inputs = make_inputs()
    res = grid_search("mcallester", inputs, ParamGrid({"gamma": [0.5, 0.5, 0.9]}))
    # duplicated candidates count toward the union-bound correction and the
    # first (lexicographically smallest) winner is kept
    assert res.delta_effective == pytest.approx(inputs.delta / 3)
    assert res.params["gamma"] in (0.5, 0.9)


def test_bound_table_names_order_and_oracle_flags():
    assert BOUND_NAMES == ("mcallester", "mult", "add", "iw", "mmd")
    assert ORACLE_BOUNDS == ("add",)
    with pytest.raises(ValueError, match="unknown bound 'nope'"):
        default_grid("nope")
    with pytest.raises(ValueError, match="unknown bound 'nope'"):
        grid_search("nope", make_inputs())


def test_grid_search_add_flags_oracle():
    res = grid_search("add", make_inputs(lam=0.1), ParamGrid({"omega": [1.0], "gamma": [1.0]}))
    assert res.oracle_used
    assert dict(res.terms)["lambda_rho"] == 0.1


def test_bound_result_json_roundtrip():
    import json

    res = grid_search("iw", make_inputs(), None)
    doc = json.loads(json.dumps(res.to_json_dict()))
    assert doc["name"] == "iw"
    assert set(doc) == {"name", "value", "params", "delta_effective", "terms", "oracle_used"}
    assert doc["value"] == pytest.approx(sum(t["value"] for t in doc["terms"]), abs=1e-12)
    labels = [t["label"] for t in doc["terms"]]
    assert labels == ["risk", "kl", "domain", "constant"]
