"""Seed-0 reports must stay byte-identical: both benchmark workloads, run at
full size from bench/workloads.py, are compared with the golden CSVs in
bench/golden/, checked for the report invariants, and their CSV then JSON
bytes hashed as bench/worker.py hashes them. The benchmark files are loaded
from their paths, without editing them."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

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
