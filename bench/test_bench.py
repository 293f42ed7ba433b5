"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, SRC)

from check import check_golden, check_invariants  # noqa: E402
from tracer import METRICS  # noqa: E402
from worker import DELTA, run_repeat  # noqa: E402

import shiftbound.experiment  # noqa: E402

# layers each workload must reach; the rest of METRICS may read 0
EVERYWHERE = ("nn.", "risks.", "stochastic.", "bounds.", "divergences.", "experiment.")
CALLED = {
    "quickstart_oracle": EVERYWHERE + ("tasks.build_synthetic_task",),
    "cli_roundtrip": EVERYWHERE + ("tasks.", "cli."),
}
FORWARD_PER_ROW = {"quickstart_oracle": 90, "cli_roundtrip": 18}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_traces_every_layer(workload, tmp_path):
    original = shiftbound.experiment.estimate_risks
    result = run_repeat(workload, seed=3, trace=1, workdir=str(tmp_path), small=True)
    assert result["errors"] == []
    assert result["rows"] > 0 and result["end"] > result["start"]
    layers = result["layers"]
    assert set(layers) == {name for name, _ in METRICS}
    for name, value in layers.items():
        if name.startswith(CALLED[workload]):
            assert value > 0, name
    assert layers["risks.forward_per_row"] == FORWARD_PER_ROW[workload]
    assert shiftbound.experiment.estimate_risks is original  # patches undone


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)


def _small_report(tmp_path):
    outcome = WORKLOADS["quickstart_oracle"](1, str(tmp_path), small=True)()
    return outcome.csv_path, outcome.json_path


def test_checks_catch_a_perturbed_copy(tmp_path):
    csv_path, json_path = _small_report(tmp_path)
    assert check_invariants(csv_path, json_path, DELTA) == []
    assert check_golden(csv_path, csv_path) == []

    rows = _read_rows(csv_path)
    rows[5][5] = repr(float(rows[5][5]) + 1e-12)  # bound_value of a mult row
    bad_csv = _write_rows(tmp_path / "perturbed.csv", rows)
    assert len(check_golden(bad_csv, csv_path)) == 1

    with open(json_path) as fh:
        doc = json.load(fh)
    doc["rows"][2]["bounds"][1]["value"] += 1e-9
    bad_json = tmp_path / "perturbed.json"
    bad_json.write_text(json.dumps(doc))
    assert any("sum of terms" in e for e in check_invariants(csv_path, str(bad_json), DELTA))


def test_golden_allows_new_columns_and_bound_variants(tmp_path):
    csv_path, _ = _small_report(tmp_path)
    rows = _read_rows(csv_path)
    widened = [rows[0] + ["mc_certified"]] + [row + ["0.5"] for row in rows[1:]]
    widened.append(rows[1][:4] + ["add_certified"] + rows[1][5:] + ["0.5"])
    assert check_golden(_write_rows(tmp_path / "widened.csv", widened), csv_path) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quickstart_oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
