"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything is seeded and deterministic.
"""

import itertools
import json
import math
import time
from dataclasses import asdict

import numpy as np
from scipy.spatial.distance import cdist

from shiftbound import (
    BoundInputs,
    ExperimentConfig,
    IsotropicGaussian,
    MlpArchitecture,
    MixtureTaskSpec,
    ParamGrid,
    PosteriorSampleSet,
    RiskEstimates,
    TrainConfig,
    beta_infinity,
    bce_gradient,
    bce_loss,
    build_synthetic_task,
    estimate_risks,
    grid_search,
    kl_isotropic,
    learn_prior_posterior,
    mmd_linear_statistic,
    mmd_quadratic_biased,
    one_sided_weight,
    report_records,
    report_summary,
    run_experiment,
    sample_posterior,
)
from shiftbound.bounds import bound_terms
from shiftbound.divergences import _shuffle_permutations
from shiftbound.samples import LabeledSample
from shiftbound.tasks import default_synthetic_spec


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"\n[criterion {criterion:2d}] {status}: {name}{extra}")
    assert ok, f"criterion {criterion} ({name}) failed{extra}"


# --- criterion 1: formula exactness -----------------------------------------

def _ref_cc(x):
    return x / (1.0 - math.exp(-x))


def _refs(v, gamma, a, b, omega, gpos):
    mca = v["r"] / gamma + (v["kl"] + math.log(1 / v["delta"])) / (
        2 * gamma * (1 - gamma) * v["m"]
    )
    iw = v["rw"] / gamma + v["beta"] * (v["kl"] + math.log(1 / v["delta"])) / (
        2 * gamma * (1 - gamma) * v["m"]
    )
    ap, bp = _ref_cc(a), _ref_cc(b)
    mult = (
        ap * 0.5 * v["dis_t"]
        + bp * v["beta"] * v["joint_s"]
        + (ap / (v["n"] * a) + bp * v["beta"] / (v["m"] * b))
        * (2 * v["kl"] + math.log(2 / v["delta"]))
    )
    wp = _ref_cc(omega)
    gp = 2 * gpos / (1 - math.exp(-2 * gpos))
    mm = min(v["m"], v["n"])
    add = (
        wp * v["r"]
        + gp * 0.5 * abs(v["dis_t"] - v["dis_s"])
        + (wp / omega + gp / gpos) * (v["kl"] + math.log(3 / v["delta"])) / mm
        + v["lam"]
        + 0.5 * (gp - 1)
    )
    mmd = (
        v["r"] / gamma
        + (v["kl"] + math.log(2 / v["delta"])) / (2 * gamma * (1 - gamma) * mm)
        + v["mmd"]
        + 2 * math.sqrt(v["K"] / mm) * (2 + math.sqrt(math.log(4 / v["delta"])))
    )
    return mca, iw, mult, add, mmd


def bound(name, inputs, **params):
    """A bound's value at ``inputs.delta``: the sum of its terms."""
    return sum(v for _, v in bound_terms(name, inputs, inputs.delta, **params))


def _inputs(v):
    est = RiskEstimates(
        gibbs_risk=v["r"],
        gibbs_weighted_risk=v["rw"],
        disagreement_source=v["dis_s"],
        disagreement_target=v["dis_t"],
        joint_error_source=v["joint_s"],
    )
    return BoundInputs(
        m_source=v["m"], n_target=v["n"], kl=v["kl"], delta=v["delta"], estimates=est,
        beta_inf=v["beta"], mmd_value=v["mmd"], kernel_bound=v["K"], lambda_rho=v["lam"],
    )


def test_criterion_01_formula_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        v = dict(
            r=float(rng.uniform(0, 1)), rw=float(rng.uniform(0, 5)),
            dis_s=float(rng.uniform(0, 1)), dis_t=float(rng.uniform(0, 1)),
            joint_s=float(rng.uniform(0, 1)), kl=float(rng.uniform(0, 1000)),
            delta=float(rng.uniform(0.001, 0.5)), m=int(rng.integers(10, 10**6)),
            n=int(rng.integers(10, 10**6)), beta=float(rng.uniform(1, 100)),
            mmd=float(rng.uniform(0, 2)), K=float(rng.uniform(0.1, 2)),
            lam=float(rng.uniform(0, 1)),
        )
        gamma = float(rng.uniform(0.01, 0.99))
        a, b, omega, gpos = (float(10 ** rng.uniform(-3, 5)) for _ in range(4))
        inputs = _inputs(v)
        refs = _refs(v, gamma, a, b, omega, gpos)
        got = (
            bound("mcallester", inputs, gamma=gamma),
            bound("iw", inputs, gamma=gamma),
            bound("mult", inputs, a=a, b=b),
            bound("add", inputs, omega=omega, gamma=gpos),
            bound("mmd", inputs, gamma=gamma),
        )
        for g, r in zip(got, refs):
            worst = max(worst, abs(g - r) / max(abs(r), 1e-300))
    assert worst <= 1e-12

    # worked examples, frozen from straight-line evaluation of each formula
    w1 = bound("mcallester", _inputs(dict(
        r=0.1, rw=0.1, dis_s=0, dis_t=0, joint_s=0, kl=10.0, delta=0.05,
        m=10000, n=10000, beta=11.0, mmd=0.0, K=1.0, lam=0.0)), gamma=0.5)
    assert abs(w1 - 0.2025991464547108) <= 1e-6 and abs(w1 - 0.202599) <= 1e-6
    w2 = bound("iw", _inputs(dict(
        r=0.1, rw=0.1, dis_s=0, dis_t=0, joint_s=0, kl=10.0, delta=0.05,
        m=10000, n=10000, beta=11.0, mmd=0.0, K=1.0, lam=0.0)), gamma=0.5)
    assert abs(w2 - 0.2285906110018188) <= 1e-6 and abs(w2 - 0.228590) <= 1e-6
    w3 = bound("mult", _inputs(dict(
        r=0.0, rw=0.0, dis_s=0, dis_t=0.0, joint_s=0.0, kl=0.0, delta=0.05,
        m=1000, n=1000, beta=1.0, mmd=0.0, K=1.0, lam=0.0)), a=1.0, b=1.0)
    assert abs(w3 - 0.011671442741714166) <= 1e-6 and abs(w3 - 0.011672) <= 1e-6
    w4 = bound("add", _inputs(dict(
        r=0.0, rw=0.0, dis_s=0.0, dis_t=0.0, joint_s=0.0, kl=0.0, delta=0.05,
        m=1000, n=1000, beta=1.0, mmd=0.0, K=1.0, lam=0.0)), omega=1.0, gamma=1.0)
    assert abs(w4 - 0.6724651639204102) <= 1e-6
    w5 = bound("mmd", _inputs(dict(
        r=0.0, rw=0.0, dis_s=0.0, dis_t=0.0, joint_s=0.0, kl=0.0, delta=0.05,
        m=10000, n=10000, beta=1.0, mmd=0.0, K=1.0, lam=0.0)), gamma=0.5)
    assert abs(w5 - 0.0826043574788812) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(1, "formula exactness (1000 random inputs + worked examples)",
            elapsed < 1.0 and worst <= 1e-12, f"max rel err {worst:.2e}, {elapsed:.2f}s")


# --- criterion 2: beta_infinity reproduction ---------------------------------

def test_criterion_02_beta_infinity():
    t0 = time.perf_counter()
    schedule = MixtureTaskSpec(
        num_classes=10,
        source_share=[f"{c + 1}/12" for c in range(10)],
        per_class_counts=[(1200, 1200)] * 10,
    )
    beta = beta_infinity(schedule)
    one_sided = one_sided_weight(0.2, 246072, 89696)
    ok = beta == 11.0 and abs(one_sided - 10.974) <= 0.001
    elapsed = time.perf_counter() - t0
    _report(2, "worst-case density ratios (11 exact; 10.974 +/- 0.001)",
            ok and elapsed < 1.0, f"beta={beta}, one-sided={one_sided:.4f}")


# --- criterion 3: closed-form KL vs Monte-Carlo oracle -----------------------

def test_criterion_03_kl_oracle():
    t0 = time.perf_counter()
    from shiftbound import IsotropicGaussian

    rng = np.random.default_rng(7)
    failures = 0
    for case in range(50):
        d = 10
        pi = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2.0)))
        rho = IsotropicGaussian(rng.standard_normal(d), float(rng.uniform(0.5, 2.0)))
        closed = kl_isotropic(rho, pi)
        draw_rng = np.random.default_rng(10_000 + case)
        z = draw_rng.standard_normal((10**6, d))
        diff = rho.sigma * z + (rho.mean - pi.mean)[None, :]
        log_ratio = (
            d * math.log(pi.sigma / rho.sigma)
            + np.einsum("ij,ij->i", diff, diff) / (2 * pi.sigma**2)
            - np.einsum("ij,ij->i", z, z) / 2.0
        )
        se = log_ratio.std(ddof=1) / math.sqrt(log_ratio.size)
        if abs(closed - log_ratio.mean()) > 3 * se:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(3, "closed-form KL within 3 SE of 1e6-draw Monte Carlo, 50 cases",
            failures == 0 and elapsed < 30.0, f"{failures} failures, {elapsed:.1f}s")


# --- criterion 4: linear MMD statistic vs quadratic oracle -------------------

def test_criterion_04_mmd_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    n, shuffles, kappa = 2000, 200, 1.5
    ok = True
    details = []
    for shift in (0.0, 1.0):
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2)) + shift
        perms = _shuffle_permutations(n, shuffles, seed=5)
        values = np.array([mmd_linear_statistic(X[p], Y[p], kappa) for p in perms])
        se = values.std(ddof=1) / math.sqrt(shuffles)
        quad_sq = mmd_quadratic_biased(X, Y, kappa) ** 2
        # the biased estimator keeps kernel diagonals; that deterministic gap
        # is computed exactly and folded into the tolerance
        Kxx = np.exp(-cdist(X, X, "sqeuclidean") / (2 * kappa**2))
        Kyy = np.exp(-cdist(Y, Y, "sqeuclidean") / (2 * kappa**2))
        Kxy = np.exp(-cdist(X, Y, "sqeuclidean") / (2 * kappa**2))
        off = lambda K: (K.sum() - np.trace(K)) / (n * (n - 1))
        gap = quad_sq - (off(Kxx) + off(Kyy) - 2 * off(Kxy))
        dev = abs(values.mean() - quad_sq)
        ok &= dev <= 4 * se + abs(gap)
        details.append(f"shift={shift}: |dev|={dev:.2e} vs 4se+gap={4 * se + abs(gap):.2e}")
    elapsed = time.perf_counter() - t0
    _report(4, "linear MMD statistic agrees with quadratic oracle (n=2000)",
            ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f}s")


# --- criterion 5: gradient check ---------------------------------------------

def test_criterion_05_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    h = 1e-5
    probes = 0
    worst = 0.0
    while probes < 100:
        activation = "tanh" if probes % 2 == 0 else "relu"
        hidden = int(rng.integers(2, 10))
        arch = MlpArchitecture((4, hidden, 1), activation)
        assert arch.num_params <= 200
        w = 0.5 * rng.standard_normal(arch.num_params)
        data = LabeledSample(
            features=rng.standard_normal((5, 4)), labels=rng.integers(0, 2, 5)
        )
        if activation == "relu":
            pre = data.features @ w[: 4 * hidden].reshape(4, hidden) + w[4 * hidden : 5 * hidden]
            if np.min(np.abs(pre)) < 1e-2:
                continue
        g = bce_gradient(arch, w, data)
        for idx in rng.choice(arch.num_params, size=3, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (bce_loss(arch, wp, data) - bce_loss(arch, wm, data)) / (2 * h)
            rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8)
            worst = max(worst, rel)
        probes += 1
    elapsed = time.perf_counter() - t0
    _report(5, "backprop matches central finite differences (100 probes)",
            worst <= 1e-4 and elapsed < 30.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --- shared desk-scale experiment pieces -------------------------------------

ARCH = MlpArchitecture((2, 64, 64, 1))
LR = 2e-2


def _train_configs(seed):
    return (
        TrainConfig(learning_rate=LR, momentum=0.95, batch_size=128, epochs=1, seed=seed * 31 + 1),
        TrainConfig(learning_rate=LR, momentum=0.95, batch_size=128, epochs=5, seed=seed * 31 + 2),
    )


def _final_checkpoint_iw(seed):
    """One validity trial: fresh task, alpha=0.3 pair, final-checkpoint IW
    bound vs the oracle target Gibbs risk on the 10^4-point target sample."""
    task = build_synthetic_task(default_synthetic_spec(seed=seed))
    cfg_prior, cfg_post = _train_configs(seed)
    pair = learn_prior_posterior(
        task.source, 0.3, ARCH, cfg_prior, cfg_post, sigma=0.03, seed=seed
    )
    final = pair.final_posterior
    draws = sample_posterior(final, pairs=5, seed=seed + 777)
    est = estimate_risks(
        ARCH, draws, pair.eval_set, task.target_x, target_oracle=task.target_labeled_oracle
    )
    inputs = BoundInputs(
        m_source=len(pair.eval_set),
        n_target=len(task.target_x),
        kl=kl_isotropic(final, pair.prior),
        delta=0.05,
        estimates=est,
        beta_inf=task.beta_inf,
    )
    result = grid_search("iw", inputs)
    return result.value, est.oracle_target_gibbs_risk, task.beta_inf


def test_criterion_06_iw_bound_statistical_validity():
    t0 = time.perf_counter()
    holds = 0
    margins = []
    for seed in range(20):
        bound, oracle_risk, beta = _final_checkpoint_iw(seed)
        assert beta <= 10.0
        holds += bound >= oracle_risk
        margins.append(bound - oracle_risk)
    elapsed = time.perf_counter() - t0
    _report(6, "IW bound >= oracle target Gibbs risk in 20/20 fresh runs",
            holds == 20 and elapsed < 600.0,
            f"{holds}/20, min margin {min(margins):.3f}, {elapsed:.0f}s")


def test_criterion_07_data_dependent_prior_tightening():
    t0 = time.perf_counter()
    spec = default_synthetic_spec(seed=0)
    cfg = ExperimentConfig(
        task={"type": "synthetic", "spec": asdict(spec)},
        hidden=(64, 64),
        alphas=(0.0, 0.3),
        sigma=0.03,
        learning_rate=LR,
        bounds=("iw", "mmd"),
        seeds=(0, 1, 2, 3, 4),
    )
    report = run_experiment(cfg)
    mins = {(r.seed, r.alpha, r.bound): r.min_value for r in report_summary(report_records(report))}
    iw_wins = sum(mins[(s, 0.3, "iw")] < mins[(s, 0.0, "iw")] for s in range(5))
    mmd_wins = sum(mins[(s, 0.3, "mmd")] < mins[(s, 0.0, "mmd")] for s in range(5))
    finals_vacuous = all(
        row.bounds["iw"].value > 1.0 and row.bounds["mmd"].value > 1.0
        for row in report.rows
        if row.alpha == 0.0 and row.checkpoint_index == 14
    )
    informed_nonvacuous = all(mins[(s, 0.3, "iw")] < 1.0 for s in range(5))
    ok = iw_wins >= 4 and mmd_wins >= 4 and finals_vacuous and informed_nonvacuous
    elapsed = time.perf_counter() - t0
    _report(7, "data-dependent prior tightens IW and MMD bounds",
            ok and elapsed < 900.0,
            f"iw {iw_wins}/5, mmd {mmd_wins}/5, alpha0 final vacuous={finals_vacuous}, "
            f"alpha0.3 iw<1={informed_nonvacuous}, {elapsed:.0f}s")


def test_criterion_08_importance_weighting_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    w = rng.standard_normal(ARCH.num_params)
    # a pair of identical draws: its Gibbs risks are the risks of w itself
    draws = PosteriorSampleSet(
        draws=np.stack([w, w]), source_distribution=IsotropicGaussian(w, 1.0), seed=0
    )
    weighted, target = [], []
    for rep in range(50):
        task = build_synthetic_task(
            default_synthetic_spec(seed=5000 + rep, n_source=2000, n_target=2000)
        )
        est = estimate_risks(
            ARCH, draws, task.source, task.target_x, target_oracle=task.target_labeled_oracle
        )
        weighted.append(est.gibbs_weighted_risk)
        target.append(est.oracle_target_gibbs_risk)
    weighted, target = np.array(weighted), np.array(target)
    se = math.sqrt(weighted.var(ddof=1) / 50 + target.var(ddof=1) / 50)
    dev = abs(weighted.mean() - target.mean())
    elapsed = time.perf_counter() - t0
    _report(8, "E[weighted source risk] = E[target risk] over 50 resamples",
            dev <= 4 * se and elapsed < 120.0,
            f"dev {dev:.4f} vs 4se {4 * se:.4f}, {elapsed:.0f}s")


def test_criterion_09_grid_union_bound_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(50):
        v = dict(
            r=float(rng.uniform(0, 1)), rw=float(rng.uniform(0, 3)),
            dis_s=float(rng.uniform(0, 1)), dis_t=float(rng.uniform(0, 1)),
            joint_s=float(rng.uniform(0, 1)), kl=float(rng.uniform(0, 200)),
            delta=float(rng.uniform(0.01, 0.2)), m=int(rng.integers(50, 10**5)),
            n=int(rng.integers(50, 10**5)), beta=float(rng.uniform(1, 20)),
            mmd=float(rng.uniform(0, 1)), K=1.0, lam=float(rng.uniform(0, 1)),
        )
        inputs = _inputs(v)
        gammas = sorted(float(g) for g in rng.uniform(0.05, 0.95, size=4))
        grid = ParamGrid({"gamma": gammas})
        res = grid_search("iw", inputs, grid)
        deff = v["delta"] / 4
        evals = [
            sum(x for _, x in bound_terms("iw", inputs, deff, gamma=g)) for g in gammas
        ]
        ok &= res.delta_effective == deff
        ok &= res.value == min(evals)
        ok &= all(res.value <= e for e in evals)
        omegas = sorted(float(x) for x in 10 ** rng.uniform(-2, 2, size=3))
        gpos = sorted(float(x) for x in 10 ** rng.uniform(-2, 2, size=3))
        res2 = grid_search("add", inputs, ParamGrid({"omega": omegas, "gamma": gpos}))
        deff2 = v["delta"] / 9
        evals2 = {
            (o, g): sum(x for _, x in bound_terms("add", inputs, deff2, omega=o, gamma=g))
            for o, g in itertools.product(omegas, gpos)
        }
        ok &= res2.delta_effective == deff2
        ok &= res2.value == min(evals2.values())
        ok &= evals2[(res2.params["omega"], res2.params["gamma"])] == res2.value
    elapsed = time.perf_counter() - t0
    _report(9, "grid search uses delta/k everywhere and returns the exact min",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    from shiftbound.cli import main

    spec = default_synthetic_spec(seed=9, n_source=2000, n_target=1500)
    doc = {
        "task": {"type": "synthetic", "spec": asdict(spec)},
        "arch": {"hidden": [16, 16], "activation": "relu"},
        "alpha": [0.0, 0.3],
        "sigma": 0.03,
        "bounds": ["mcallester", "iw", "mmd", "mult", "add"],
        "oracle_mode": True,
        "train": {"learning_rate": 0.003},
        "mmd": {"shuffles": 5},
        "seeds": [0, 1],
        "report": {"dir": "out", "formats": ["csv", "json"], "stem": "report"},
    }
    blobs = {}
    for run_idx in (0, 1):
        run_dir = tmp_path / f"run{run_idx}"
        run_dir.mkdir()
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path)]) == 0
        blobs[run_idx] = (
            (run_dir / "out" / "report.csv").read_bytes(),
            (run_dir / "out" / "report.json").read_bytes(),
        )
    ok = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    _report(10, "identical config produces byte-identical report files",
            ok and elapsed < 300.0, f"{elapsed:.0f}s")
