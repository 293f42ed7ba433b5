"""Correctness checks on the reports a workload emits.

Every seed gets the invariant checks; the default seed is also compared,
value by value, with a golden CSV captured from the same config. Each check
returns a list of error strings, empty when the report passes.
"""

import csv
import json
import math

from shiftbound.bounds import BOUND_NAMES, default_grid

KEY = ("seed", "alpha", "checkpoint_index", "bound_name")
TEXT_COLUMNS = {"bound_name", "param_json", "oracle_used"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_golden(csv_path, golden_path):
    """Golden rows must appear with every golden column equal as text.
    Extra columns, and rows of bound names the golden lacks (new bound
    variants), are allowed; extra rows of a golden bound name are not."""
    golden = {tuple(r[k] for k in KEY): r for r in read_csv(golden_path)}
    names = {key[3] for key in golden}
    got = {tuple(r[k] for k in KEY): r for r in read_csv(csv_path) if r["bound_name"] in names}
    errors = [f"golden row {key} missing" for key in golden.keys() - got.keys()]
    errors += [f"unexpected row {key}" for key in got.keys() - golden.keys()]
    for key in golden.keys() & got.keys():
        for col, want in golden[key].items():
            if got[key].get(col) != want:
                errors.append(f"{key} {col}: {got[key].get(col)!r} != golden {want!r}")
    return errors


def _walk_numbers(node, where, errors):
    if isinstance(node, dict):
        for k, v in node.items():
            _walk_numbers(v, f"{where}.{k}", errors)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _walk_numbers(v, f"{where}[{i}]", errors)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if not (math.isfinite(node) and node >= 0):
            errors.append(f"{where} = {node!r} is not finite and >= 0")


def check_invariants(csv_path, json_path, delta):
    """Bound value == sum of its terms, delta_effective == delta / grid
    size, oracle_used only on add, and every number finite and >= 0."""
    errors = []
    with open(json_path) as fh:
        doc = json.load(fh)
    _walk_numbers(doc["rows"], "rows", errors)
    for row in doc["rows"]:
        where = f"row ({row['seed']}, {row['alpha']}, {row['checkpoint_index']})"
        for b in row["bounds"]:
            if b["value"] != sum(t["value"] for t in b["terms"]):
                errors.append(f"{where} {b['name']}: value != sum of terms")
            if b["name"] in BOUND_NAMES:
                if b["delta_effective"] != delta / default_grid(b["name"]).size:
                    errors.append(f"{where} {b['name']}: delta_effective != delta / grid size")
                if b["oracle_used"] is not (b["name"] == "add"):
                    errors.append(f"{where} {b['name']}: oracle_used={b['oracle_used']}")
    for i, rec in enumerate(read_csv(csv_path)):
        if rec["bound_name"] in BOUND_NAMES and (rec["oracle_used"] == "true") != (rec["bound_name"] == "add"):
            errors.append(f"csv line {i + 2}: oracle_used={rec['oracle_used']} on {rec['bound_name']}")
        for col, text in rec.items():
            if col not in TEXT_COLUMNS and text != "":
                _walk_numbers(float(text), f"csv line {i + 2} {col}", errors)
    return errors


def check_summary(run_stdout, summarize_stdout):
    """``summarize`` must print the table ``run`` printed for the same
    report, which ``run`` builds with format_summary(report_summary(...))."""
    table = [line for line in run_stdout.splitlines() if not line.startswith("wrote ")]
    if not table or summarize_stdout.splitlines() != table:
        return ["summarize table differs from the table run printed"]
    return []
