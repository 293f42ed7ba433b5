"""Seed-0 reports must stay byte-identical: both benchmark workloads, run at
full size from bench/workloads.py, are compared with the golden CSVs in
bench/golden/, checked for the report invariants, and their CSV then JSON
bytes hashed as bench/worker.py hashes them. The benchmark files are loaded
from their paths, without editing them.

Both workloads have 2 features, so a 9-feature run is pinned too: it takes
the MMD's np.sum branch and runs forward over several row blocks. So are a
run on a 16-feature mixture task and one on a one-sided task, the only
reports whose weights are piecewise by (class, origin) or by pool, with the
one-sided task's weight-0 rows."""

import hashlib
import importlib.util
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from shiftbound import LabeledSample, MixtureTaskSpec, experiment
from shiftbound.tasks import (
    SyntheticSpec,
    build_mixture_task,
    build_one_sided_task,
    build_synthetic_task,
    default_synthetic_spec,
    save_task,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
DELTA = 0.05  # the ExperimentConfig default both workloads run with
# sha256 of the seed-0 CSV bytes followed by the JSON bytes
REPORT_SHA256 = {
    "quickstart_oracle": "0b7c2926731d0ee2cc9d30216ea8fc98f21f9ffdae3e9ca07cbb3276105c9a11",
    "cli_roundtrip": "3dad8d0c5c17b2d496265aa8af72d4cb830322d9b261388aa5e4935d9ca3b965",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["quickstart_oracle", "cli_roundtrip"])
def test_seed0_reports_match_golden(tmp_path, workload):
    workloads, check = _load("workloads"), _load("check")
    outcome = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, str(tmp_path))()
    assert all(code == 0 for code in outcome.exit_codes.values()), outcome.exit_codes
    assert check.check_golden(outcome.csv_path, BENCH / "golden" / f"{workload}.csv") == []
    assert check.check_invariants(outcome.csv_path, outcome.json_path, DELTA) == []
    if outcome.stdout:
        assert check.check_summary(outcome.stdout["run"], outcome.stdout["summarize"]) == []
    digest = hashlib.sha256()
    for path in (outcome.csv_path, outcome.json_path):
        digest.update(Path(path).read_bytes())
    assert digest.hexdigest() == REPORT_SHA256[workload]


# sha256 of the CSV then JSON bytes of the 9-feature run below
WIDE_REPORT_SHA256 = "193bd4629561efc0e3419695817c8cfcf3536cb56e6e4b804e8e9d3a4e80221f"


def _report_sha256(report, tmp_path):
    """sha256 of ``report``'s CSV bytes then its JSON bytes, as emitted under ``tmp_path``."""
    digest = hashlib.sha256()
    for fmt in ("csv", "json"):
        path = tmp_path / f"report.{fmt}"
        experiment.emit(report, fmt, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _axis(dim, k, value):
    return tuple(value if i == k else 0.0 for i in range(dim))


def test_nine_feature_report_is_pinned(tmp_path):
    spec = SyntheticSpec(
        dim=9, component_means=(_axis(9, 0, -0.5), _axis(9, 0, 0.5)), component_std=1.0,
        source_mix=(0.9, 0.1), target_mix=(0.1, 0.9), n_source=3001, n_target=3001,
        seed=0, label_rule="halfspace", rule_vector=_axis(9, 1, 1.0), rule_offset=0.0,
    )
    cfg = experiment.ExperimentConfig(
        task={"type": "synthetic", "spec": asdict(spec)}, hidden=(64, 64), alphas=(0.0, 0.3),
        bounds=("mcallester", "iw", "mmd", "mult", "add"), oracle_mode=True,
        posterior_pairs=5, learning_rate=2e-2, seeds=(0,), posterior_epochs=1,
    )
    report = experiment.run_experiment(cfg, build_synthetic_task(spec))
    assert _report_sha256(report, tmp_path) == WIDE_REPORT_SHA256


# sha256 of the source.csv, target.csv, weights.csv and manifest.json bytes,
# in that order, of the three tasks below; the synthetic one is the task
# ``make-task synthetic`` writes, at a small size
TASK_SHA256 = {
    "mixture": "27ff92a510fcb9acc48f353e0cc7e20f06cc04623c89f378fa34832dcf1b98bb",
    "one_sided": "ef6cafd4b2498b6719521b1e1445db69f3696ba8ab0f6bb30b2a5d09f37ee926",
    "synthetic": "a471a2e137702f746bbf8b02daa23556ab4f26f3b97a070bc083223ac19258f8",
}


def _pool(rng, labels, dim, origin=None):
    labels = np.asarray(labels, dtype=np.int64)
    origin = None if origin is None else np.full(len(labels), origin, dtype=np.int64)
    return LabeledSample(features=rng.standard_normal((len(labels), dim)), labels=labels, origin=origin)


def _mixture_task():
    """A 10-class, 16-feature mixture with unequal shares and cell counts."""
    rng = np.random.default_rng(16)
    counts = [(20 + 3 * c, 41 - 2 * c) for c in range(10)]
    spec = MixtureTaskSpec(
        num_classes=10, source_share=[f"{c + 1}/12" for c in range(10)], per_class_counts=counts
    )
    pools = [
        _pool(rng, rng.permutation(np.repeat(np.arange(10), [n[o] for n in counts])), 16, o) for o in range(2)
    ]
    return build_mixture_task(*pools, spec, seed=3)


def _one_sided_task():
    rng = np.random.default_rng(37)
    source_only = _pool(rng, rng.integers(0, 2, 50), 4)
    shared = _pool(rng, rng.integers(0, 2, 200), 4)
    return build_one_sided_task(source_only, shared, 0.37, seed=5)


def _synthetic_task():
    return build_synthetic_task(default_synthetic_spec(seed=0, n_source=200, n_target=150))


@pytest.mark.parametrize(
    "kind, build", [("mixture", _mixture_task), ("one_sided", _one_sided_task), ("synthetic", _synthetic_task)]
)
def test_saved_task_bytes_are_pinned(tmp_path, kind, build):
    save_task(build(), tmp_path)
    digest = hashlib.sha256()
    for name in ("source.csv", "target.csv", "weights.csv", "manifest.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == TASK_SHA256[kind]


# sha256 of the CSV then JSON bytes of a seed-0 run on each pooled task above
POOLED_REPORT_SHA256 = {
    "mixture": "af9511a0856bc2abb8596796a12b6c0073160c95cb8604a39057a8dba215e7ba",
    "one_sided": "17d1a3d10a7eddfb2e7a5d65ab0e9f3a0ea164caa3dbf98d6a78955bba46ed64",
}


@pytest.mark.parametrize("kind, build", [("mixture", _mixture_task), ("one_sided", _one_sided_task)])
def test_pooled_task_reports_are_pinned(tmp_path, kind, build):
    cfg = experiment.ExperimentConfig(
        task={"type": "manifest", "path": kind}, hidden=(16,), alphas=(0.0, 0.3),
        bounds=("mcallester", "iw", "mmd", "mult", "add"), oracle_mode=True,
        posterior_pairs=5, seeds=(0,), posterior_epochs=1,
    )
    assert _report_sha256(experiment.run_experiment(cfg, build()), tmp_path) == POOLED_REPORT_SHA256[kind]
