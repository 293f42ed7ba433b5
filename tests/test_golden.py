"""Seed-0 reports must stay byte-identical: both benchmark workloads, run at
full size from bench/workloads.py, are compared with the golden CSVs in
bench/golden/ and checked for the report invariants. The benchmark files
are loaded from their paths, without editing them."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
DELTA = 0.05  # the ExperimentConfig default both workloads run with


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
