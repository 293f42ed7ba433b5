import csv
import json
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from shiftbound import ExperimentConfig, emit, experiment, report_records, report_summary, run_experiment, tasks
from shiftbound.experiment import (
    CSV_COLUMNS,
    format_summary,
    parse_report_csv,
)
from shiftbound.tasks import build_synthetic_task, default_synthetic_spec


def small_config(**overrides):
    spec = default_synthetic_spec(seed=11, n_source=2000, n_target=1500)
    base = dict(
        task={"type": "synthetic", "spec": asdict(spec)},
        hidden=(8,),
        alphas=(0.3,),
        sigma=0.03,
        bounds=("mcallester", "iw", "mmd"),
        seeds=(0,),
        mmd_shuffles=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_config())


def test_checkpoint_row_count(small_report):
    # 10 first-epoch saves plus 5 epoch ends
    assert len(small_report) == 15
    assert [r.checkpoint_index for r in small_report] == list(range(15))


def test_config_validation():
    for bounds in (("add",), ("iw", "add")):
        with pytest.raises(ValueError, match=r"^the add bound needs oracle_mode=true \(it uses target labels\)$"):
            small_config(bounds=bounds, oracle_mode=False)
    with pytest.raises(ValueError):
        small_config(bounds=("nope",))
    with pytest.raises(ValueError):
        small_config(alphas=(1.0,))
    with pytest.raises(ValueError):
        small_config(seeds=())
    cfg = small_config(bounds=("add", "iw"), oracle_mode=True)
    assert cfg.oracle_mode


def test_run_refuses_a_one_row_target_before_training(monkeypatch):
    def learn_prior_posterior(*args):
        raise AssertionError("a network was trained")

    monkeypatch.setattr(experiment, "learn_prior_posterior", learn_prior_posterior)
    task = build_synthetic_task(default_synthetic_spec(seed=11, n_source=400, n_target=1))
    with pytest.raises(ValueError, match="^the target sample has 1 row; the MMD needs at least 2$"):
        run_experiment(small_config(), task)


def test_mmd_constant_across_checkpoints(small_report):
    values = {r.mmd for r in small_report}
    assert len(values) == 1


def test_bound_rows_use_eval_set_size(small_report):
    # alpha = 0.3 of 2000 leaves 1400 evaluation rows; recompute one bound
    # from the logged fields to pin the m actually used
    row = small_report[3]
    res = row.bounds["mcallester"]
    gamma = res.params["gamma"]
    m_eval = 1400
    want = row.estimates.gibbs_risk / gamma + (
        row.kl + math.log(1 / res.delta_effective)
    ) / (2 * gamma * (1 - gamma) * m_eval)
    assert res.value == pytest.approx(want, rel=1e-12)
    res_iw = row.bounds["iw"]
    g = res_iw.params["gamma"]
    want_iw = row.estimates.gibbs_weighted_risk / g + 9.0 * (
        row.kl + math.log(1 / res_iw.delta_effective)
    ) / (2 * g * (1 - g) * m_eval)
    assert res_iw.value == pytest.approx(want_iw, rel=1e-9)


def test_oracle_target_risk_reported_but_not_used(small_report):
    for row in small_report:
        assert row.estimates.oracle_target_gibbs_risk is not None
        for res in row.bounds.values():
            assert not res.oracle_used


def test_emit_csv_roundtrip(tmp_path, small_report):
    path = tmp_path / "report.csv"
    emit(small_report, "csv", path)
    records = parse_report_csv(path)
    assert len(records) == 15 * 3
    by_key = {(r["checkpoint_index"], r["bound_name"]): r for r in records}
    for row in small_report:
        for name, res in row.bounds.items():
            rec = by_key[(row.checkpoint_index, name)]
            assert rec["bound_value"] == res.value
            assert rec["kl"] == row.kl
            assert rec["seen_fraction"] == row.seen_fraction
            assert json.loads(rec["param_json"]) == res.params
            assert rec["oracle_target_gibbs_risk"] == row.estimates.oracle_target_gibbs_risk
    # every column of every record round-trips with its type
    assert records == list(report_records(small_report))
    assert all(list(rec) == CSV_COLUMNS for rec in records)


def test_parse_report_csv_refuses_short_row_with_line(tmp_path, small_report):
    path = tmp_path / "report.csv"
    emit(small_report, "csv", path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":3: expected 17 fields, got 16"):
        parse_report_csv(path)


# a field that its column cannot parse, one per checked column: an unknown
# bound, a param_json that is not JSON, and unparsable numbers and flags
REPORT_FIELD_FAULTS = {
    "seed": "1.5", "alpha": "x", "checkpoint_index": "", "seen_fraction": "x", "bound_name": "bogus",
    "bound_value": "0.5.1", "param_json": "not json", "delta_effective": "", "gibbs_source_risk": "x",
    "gibbs_weighted_risk": "x", "disagreement_source": "x", "disagreement_target": "x", "joint_error_source": "x",
    "kl": "x", "mmd": "x", "oracle_target_gibbs_risk": "none", "oracle_used": "yes",
}


# fields that parse but are refused: NaN in every float column, and a
# param_json that is JSON but not an object
MORE_REPORT_FIELD_FAULTS = {
    "nan alpha": ("alpha", "nan"), "nan seen_fraction": ("seen_fraction", "nan"), "nan bound": ("bound_value", "nan"),
    "nan delta_effective": ("delta_effective", "nan"), "nan gibbs_source_risk": ("gibbs_source_risk", "nan"),
    "nan gibbs_weighted_risk": ("gibbs_weighted_risk", "nan"),
    "nan disagreement_source": ("disagreement_source", "nan"),
    "nan disagreement_target": ("disagreement_target", "nan"),
    "nan joint_error_source": ("joint_error_source", "nan"), "nan kl": ("kl", "nan"), "nan mmd": ("mmd", "nan"),
    "nan oracle_target_gibbs_risk": ("oracle_target_gibbs_risk", "nan"),
    "param_json number": ("param_json", "3"), "param_json list": ("param_json", "[]"),
}


@pytest.mark.parametrize(
    "column, text",
    [*REPORT_FIELD_FAULTS.items(), *MORE_REPORT_FIELD_FAULTS.values()],
    ids=[*REPORT_FIELD_FAULTS, *MORE_REPORT_FIELD_FAULTS],
)
def test_parse_report_csv_refuses_a_bad_field_by_line_and_column(tmp_path, small_report, column, text):
    path = _report_with_fields(tmp_path, small_report, {column: text})
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:4: bad {column} value {text!r}')}$"):
        parse_report_csv(path)


def _report_with_fields(tmp_path, report, edits):
    """The CSV of ``report`` with the fields of its line 4 set from the
    column-to-text dict ``edits``."""
    path = tmp_path / "report.csv"
    emit(report, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for column, text in edits.items():
        rows[3][CSV_COLUMNS.index(column)] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def test_parse_report_csv_keeps_infinity_and_values_above_one(tmp_path, small_report):
    edits = {"bound_value": "inf", "kl": "inf", "mmd": "1.5", "disagreement_target": "1.5", "param_json": "{}"}
    record = parse_report_csv(_report_with_fields(tmp_path, small_report, edits))[2]
    assert {column: record[column] for column in edits} == {
        "bound_value": math.inf, "kl": math.inf, "mmd": 1.5, "disagreement_target": 1.5, "param_json": "{}",
    }


@pytest.mark.parametrize(
    "text", ["", "seed,alpha\n", ",".join(CSV_COLUMNS[::-1]) + "\n"], ids=["empty", "two columns", "reversed"]
)
def test_parse_report_csv_refuses_other_columns(tmp_path, text):
    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: unexpected report columns')}$"):
        parse_report_csv(path)


def test_emit_csv_columns_exact(tmp_path, small_report):
    path = tmp_path / "report.csv"
    emit(small_report, "csv", path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == CSV_COLUMNS == [
        "seed", "alpha", "checkpoint_index", "seen_fraction", "bound_name",
        "bound_value", "param_json", "delta_effective", "gibbs_source_risk",
        "gibbs_weighted_risk", "disagreement_source", "disagreement_target",
        "joint_error_source", "kl", "mmd", "oracle_target_gibbs_risk", "oracle_used",
    ]


def test_emit_empty_report_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == CSV_COLUMNS


def test_emit_json_schema(tmp_path, small_report):
    path = tmp_path / "report.json"
    emit(small_report, "json", path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"columns", "rows"}
    row = doc["rows"][0]
    assert set(row) == {
        "seed", "alpha", "checkpoint_index", "seen_fraction", "kl", "mmd",
        "oracle_target_gibbs_risk", "estimates", "bounds",
    }
    bound = row["bounds"][0]
    assert set(bound) == {"name", "value", "params", "delta_effective", "terms", "oracle_used"}
    assert bound["value"] == pytest.approx(sum(t["value"] for t in bound["terms"]), abs=1e-12)


def test_report_byte_identical_reproducibility(tmp_path):
    cfg = small_config()
    paths = []
    for i in range(2):
        report = run_experiment(cfg)
        p = tmp_path / f"rep{i}.csv"
        emit(report, "csv", p)
        j = tmp_path / f"rep{i}.json"
        emit(report, "json", j)
        paths.append((p, j))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_summary_single_group(small_report):
    rows = report_summary(report_records(small_report))
    assert {r.bound for r in rows} == {"mcallester", "iw", "mmd"}
    for r in rows:
        values = [row.bounds[r.bound].value for row in small_report]
        assert r.min_value == min(values)
        assert r.argmin_checkpoint == int(np.argmin(values))
        assert r.best_oracle_risk == min(
            row.estimates.oracle_target_gibbs_risk for row in small_report
        )
    assert "min_bound" in format_summary(rows)


def test_summary_empty_report_rejected():
    with pytest.raises(ValueError):
        report_summary(report_records([]))


def test_summary_from_csv_matches_in_memory(tmp_path, small_report):
    path = tmp_path / "report.csv"
    emit(small_report, "csv", path)
    expected = {(r.seed, r.alpha, r.bound): r for r in report_summary(report_records(small_report))}
    for r in report_summary(parse_report_csv(path)):
        e = expected[(r.seed, r.alpha, r.bound)]
        assert r.min_value == e.min_value
        assert r.argmin_checkpoint == e.argmin_checkpoint
        assert r.best_oracle_risk == e.best_oracle_risk


def test_config_from_json_dict(tmp_path):
    spec = default_synthetic_spec(seed=1, n_source=500, n_target=400)
    doc = {
        "task": {"type": "synthetic", "spec": asdict(spec)},
        "arch": {"hidden": [4]},
        "alpha": [0.0, 0.25],
        "sigma": 0.05,
        "delta": 0.1,
        "posterior_pairs": 2,
        "bounds": ["mcallester"],
        "mmd": {"shuffles": 2},
        "train": {"learning_rate": 0.001, "batch_size": 32, "posterior_epochs": 2},
        "seeds": [3],
    }
    cfg = ExperimentConfig.from_json_dict(doc)
    assert cfg.hidden == (4,)
    assert cfg.alphas == (0.0, 0.25)
    assert cfg.posterior_epochs == 2
    report = run_experiment(cfg)
    # two alphas, 10 + 2 checkpoints each
    assert len(report) == 2 * 12
    deltas = {r.bounds["mcallester"].delta_effective for r in report}
    assert deltas == {0.1 / 7}


@pytest.mark.parametrize(
    "doc, keys",
    [
        # keys of settings the config no longer has
        ({"grids": {"mcallester": {"gamma": [0.5]}}}, "grids"),
        ({"mmd": {"shuffles": 2, "bandwidths": [1.0], "bandwidth_scales": [1.0]}},
         "mmd.bandwidths, mmd.bandwidth_scales"),
        # typos of keys it has
        ({"posterior_pair": 3, "train": {"learningrate": 1.0}}, "posterior_pair, train.learningrate"),
        ({"arch": {"hiden": [4]}, "seed": [0]}, "seed, arch.hiden"),
        # a section key written as a top-level dotted key
        ({"arch.hidden": [4]}, "arch.hidden"),
    ],
)
def test_config_unknown_keys_refused(doc, keys):
    task = {"type": "synthetic", "spec": asdict(default_synthetic_spec(seed=1))}
    with pytest.raises(ValueError, match=f"^unknown config keys: {keys}$"):
        ExperimentConfig.from_json_dict({"task": task, **doc})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"sigma": 0}, "sigma must be finite and > 0"),
        ({"sigma": -0.03}, "sigma must be finite and > 0"),
        ({"sigma": float("nan")}, "sigma must be finite and > 0"),
        ({"sigma": float("inf")}, "sigma must be finite and > 0"),
        ({"mmd": {"shuffles": 0}}, "shuffles must be >= 1"),
    ],
)
def test_config_refuses_bad_sigma_and_shuffles(doc, message):
    task = {"type": "synthetic", "spec": asdict(default_synthetic_spec(seed=1))}
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig.from_json_dict({"task": task, **doc})


SPEC = asdict(default_synthetic_spec(seed=1))


def config_doc(doc):
    """``doc`` over a config whose task is synthetic with ``SPEC``: a None
    value stands for an absent key; a document that is not an object is
    read as it is."""
    if not isinstance(doc, dict):
        return doc
    return {key: value for key, value in {"task": {"type": "synthetic", "spec": SPEC}, **doc}.items()
            if value is not None}


# Each refusal of a run config and its message, as a pattern in which a
# backslash only escapes the next character; tests/test_cli.py runs rows of
# this table through ``shiftbound run``.
CONFIG_REFUSALS = [
    ({"posterior_pairs": 2.5}, "posterior_pairs must be an integer, got 2.5"),
    ({"posterior_pairs": True}, "posterior_pairs must be an integer, got True"),
    ({"mmd": {"shuffles": 2.5}}, "mmd.shuffles must be an integer, got 2.5"),
    ({"train": {"batch_size": 2.5}}, "train.batch_size must be an integer, got 2.5"),
    ({"train": {"prior_epochs": 1.5}}, "train.prior_epochs must be an integer, got 1.5"),
    ({"train": {"posterior_epochs": "2"}}, "train.posterior_epochs must be an integer, got '2'"),
    ({"arch": {"hidden": [4.7]}}, r"arch.hidden\[0\] must be an integer, got 4.7"),
    ({"seeds": [0, 0.9]}, r"seeds\[1\] must be an integer, got 0.9"),
    ({"seeds": ["1"]}, r"seeds\[0\] must be an integer, got '1'"),
    ({"seeds": [False]}, r"seeds\[0\] must be an integer, got False"),
    ({"posterior_pairs": 0.0}, "posterior_pairs must be >= 1"),
    ({"train": {"momentum": 1.5}}, r"momentum must lie in \[0, 1\)"),
    ({"train": {"prior_epochs": 0}}, "epochs must be >= 1"),
    ({"arch": {"hidden": [0]}}, "all layer widths must be >= 1"),
    ({"arch": {"activation": "relu"}}, "unknown config keys: arch.activation"),
    ({"alpha": []}, "need at least one alpha"),
    ({"bounds": []}, "need at least one bound"),
    ({"alpha": [0.3, 0.3]}, "alpha values must be distinct"),
    ({"seeds": [0, 0.0]}, "seeds must be distinct"),
    ({"oracle_mode": "false", "bounds": ["add"]}, "oracle_mode must be true or false, got 'false'"),
    ({"oracle_mode": 1}, "oracle_mode must be true or false, got 1"),
    ({"sigma": "0.03"}, "sigma must be a number, got '0.03'"),
    ({"sigma": True}, "sigma must be a number, got True"),
    ({"delta": "0.05"}, "delta must be a number, got '0.05'"),
    ({"train": {"learning_rate": "x"}}, "train.learning_rate must be a number, got 'x'"),
    ({"train": {"momentum": False}}, "train.momentum must be a number, got False"),
    ({"alpha": False}, "alpha must be a number, got False"),
    ({"alpha": "0.3"}, "alpha must be a number, got '0.3'"),
    ({"alpha": [0.0, "0.3"]}, r"alpha\[1\] must be a number, got '0.3'"),
    ({"bounds": ["iw", "iw"]}, "bounds must be distinct"),
    ({"seeds": 3}, "seeds must be a list, got 3"),
    ({"arch": {"hidden": 16}}, "arch.hidden must be a list, got 16"),
    ({"bounds": "iw"}, "bounds must be a list, got 'iw'"),
    ({"task": None}, "config key 'task' is missing"),
    ({"task": "x"}, "task must be an object, got 'x'"),
    ({"task": {"type": "mixture"}}, "task.type must be 'synthetic' or 'manifest', got 'mixture'"),
    ({"task": {"type": "synthetic"}}, "config key 'task.spec' is missing"),
    ({"task": {"type": "manifest"}}, "config key 'task.path' is missing"),
    ({"bounds": [["iw"]]}, r"bounds\[0\] must be a string, got \['iw'\]"),
    ({"bounds": [1]}, r"bounds\[0\] must be a string, got 1"),
    ({"task": {"type": "synthetic", "spec": {"dim": 2}}}, "task.spec: spec key 'component_means' is missing"),
    (3, "config must be an object, got 3"),
    (None, "config must be an object, got None"),
    ("abc", "config must be an object, got 'abc'"),
    ([], r"config must be an object, got \[\]"),
    ({"posterior_pair": 1, "report": {"x": 1}}, "unknown config keys: posterior_pair, report.x"),
    ({"report": {"formats": []}}, "need at least one report format"),
    ({"report": {"formats": ["csv", "csv"]}}, "report formats must be distinct"),
    ({"report": {"stem": ""}}, "report.stem must be a file name, got ''"),
    ({"report": {"stem": "sub/report"}}, "report.stem must be a file name, got 'sub/report'"),
    # an integer beyond the float range is refused by its key; NaN and
    # infinities reach the range checks
    ({"delta": 10**400}, f"delta must be a number, got {10**400}"),
    ({"train": {"learning_rate": -(10**400)}}, f"train.learning_rate must be a number, got {-(10**400)}"),
    ({"alpha": [0.3, 10**400]}, rf"alpha\[1\] must be a number, got {10**400}"),
    ({"delta": float("inf")}, r"delta must lie in \(0, 1\)"),
    ({"delta": float("nan")}, r"delta must lie in \(0, 1\)"),
    # spec fields are read by the same readers, each refused by its name
    ({"task": {"type": "synthetic", "spec": {**SPEC, "n_source": 300.5}}},
     "task.spec: n_source must be an integer, got 300.5"),
    ({"task": {"type": "synthetic", "spec": {**SPEC, "dim": "2"}}}, "task.spec: dim must be an integer, got '2'"),
    ({"task": {"type": "synthetic", "spec": {**SPEC, "component_std": 10**400}}},
     f"task.spec: component_std must be a number, got {10**400}"),
    ({"task": {"type": "synthetic", "spec": {**SPEC, "source_mix": ["0.9", 0.1]}}},
     r"task.spec: source_mix\[0\] must be a number, got '0.9'"),
    # unlike a setting, a spec number that is NaN or infinite is refused by its name
    ({"task": {"type": "synthetic", "spec": {**SPEC, "component_means": [[-0.5, 0.0], [0.5, float("nan")]]}}},
     r"task.spec: component_means\[1\]\[1\] must be finite, got nan"),
    ({"task": {"type": "synthetic", "spec": {**SPEC, "component_std": float("inf")}}},
     "task.spec: component_std must be finite, got inf"),
    ({"arch": {"hidden": [6], "activation": "relu"}}, "unknown config keys: arch.activation"),
    ({"task": {"type": "csv", "path": "task"}}, "task.type must be 'synthetic' or 'manifest', got 'csv'"),
    ({"task": {"type": "synthetic", "spec": []}}, r"task.spec must be an object, got \[\]"),
    ({"task": {"type": "manifest", "path": 3}}, "task.path must be a string, got 3"),
    # every key of the task object and of its spec is walked too
    ({"task": {"type": "manifest", "path": "t", "seed": 3}}, "unknown config keys: task.seed"),
    ({"task": {"type": "synthetic", "spec": SPEC, "n_source": 5}}, "unknown config keys: task.n_source"),
    ({"task": {"type": "synthetic", "spec": {**SPEC, "num_classes": 2}}},
     "task.spec: unknown spec keys: num_classes"),
    # a report stem names a file in the report directory
    ({"report": {"stem": "."}}, "report.stem must be a file name, got '.'"),
    ({"report": {"stem": ".."}}, r"report.stem must be a file name, got '\.\.'"),
    ({"report": {"formats": ["csv", "xml"]}}, "format must be 'csv' or 'json'"),
    ({"report": {"format": ["json"], "stem": "run"}}, "unknown config keys: report.format"),
    ({"report": "out"}, "config key 'report' must be an object, got 'out'"),
    ({"report": {"dir": 5}}, "report.dir must be a string, got 5"),
    ({"report": {"stem": ["a"]}}, r"report.stem must be a string, got \['a'\]"),
    ({"report": {"formats": "csv"}}, "report.formats must be a list, got 'csv'"),
]


@pytest.mark.parametrize("doc, message", CONFIG_REFUSALS)
def test_config_refuses_bad_counts_and_lists(doc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig.from_json_dict(config_doc(doc))


def test_config_reads_values_with_the_task_readers():
    # one implementation of each reader: the run config's are the task spec's
    for name in ("_integer", "_number", "_list", "_file_name", "_flag", "_string", "_object"):
        assert getattr(experiment, name) is getattr(tasks, name), name


def test_every_json_field_declares_its_reader():
    for cls in (tasks.SyntheticSpec, tasks.MixtureTaskSpec, tasks.OneSidedSpec, ExperimentConfig):
        unread = [f.name for f in fields(cls) if f.init and "read" not in f.metadata]
        assert unread == (["base_dir"] if cls is ExperimentConfig else []), cls


def test_every_config_key_sets_its_field():
    doc = {
        "task": {"type": "manifest", "path": "t"}, "arch": {"hidden": [3, 2]}, "alpha": [0.1, 0.2], "sigma": 0.5,
        "delta": 0.1, "posterior_pairs": 2, "bounds": ["iw", "add"], "oracle_mode": True, "mmd": {"shuffles": 3},
        "train": {"learning_rate": 0.1, "momentum": 0.5, "batch_size": 7, "prior_epochs": 2, "posterior_epochs": 3},
        "seeds": [7], "report": {"dir": "out", "stem": "r", "formats": ["json"]},
    }
    want = ExperimentConfig(
        task=doc["task"], hidden=(3, 2), alphas=(0.1, 0.2), sigma=0.5, delta=0.1, posterior_pairs=2,
        bounds=("iw", "add"), oracle_mode=True, mmd_shuffles=3, learning_rate=0.1, momentum=0.5, batch_size=7,
        prior_epochs=2, posterior_epochs=3, seeds=(7,), base_dir="b", report_dir="out", report_stem="r",
        report_formats=("json",),
    )
    assert ExperimentConfig.from_json_dict(doc, base_dir="b") == want
    default = ExperimentConfig(task={"type": "manifest", "path": "u"})
    assert [f.name for f in fields(ExperimentConfig) if getattr(want, f.name) == getattr(default, f.name)] == []


def test_config_stores_integral_counts_as_int():
    task = {"type": "synthetic", "spec": asdict(default_synthetic_spec(seed=1))}
    cfg = ExperimentConfig.from_json_dict(
        {"task": task, "arch": {"hidden": [16.0]}, "seeds": [2.0], "mmd": {"shuffles": 3.0}}
    )
    assert (cfg.hidden, cfg.seeds, cfg.mmd_shuffles) == ((16,), (2,), 3)
    assert all(type(v) is int for v in (*cfg.hidden, *cfg.seeds, cfg.mmd_shuffles))


def test_config_section_must_be_an_object():
    with pytest.raises(ValueError, match="config key 'train' must be an object"):
        ExperimentConfig.from_json_dict({"task": {}, "train": ["learning_rate"]})


def test_rows_sorted_and_alpha_sweep():
    cfg = small_config(alphas=(0.3, 0.0), seeds=(1, 0), bounds=("mcallester",))
    report = run_experiment(cfg)
    keys = [(r.seed, r.alpha, r.checkpoint_index) for r in report]
    assert keys == sorted(keys)
    assert len(report) == 2 * 2 * 15


def test_bandwidths_and_mmd_run_once_before_each_pairs_checkpoints(monkeypatch):
    calls = []

    def record(name):
        original = getattr(experiment, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, wrapped)

    for name in ("learn_prior_posterior", "median_heuristic_bandwidths", "mmd_estimate", "estimate_risks"):
        record(name)
    run_experiment(small_config(alphas=(0.3, 0.0), seeds=(1, 0), bounds=("mcallester",)))
    one_pair = ["learn_prior_posterior", "median_heuristic_bandwidths", "mmd_estimate"] + ["estimate_risks"] * 15
    assert calls == one_pair * 4


def test_weighted_bounds_need_weights():
    spec = default_synthetic_spec(seed=2, n_source=300, n_target=300)
    cfg = small_config()
    task = cfg.resolve_task()
    task.source.weights = None
    with pytest.raises(ValueError):
        run_experiment(small_config(), task=task)


def test_config_from_json_dict_defaults_match_dataclass():
    task = {"type": "synthetic", "spec": asdict(default_synthetic_spec(seed=1))}
    loaded = ExperimentConfig.from_json_dict({"task": task})
    direct = ExperimentConfig(task=task)
    for f in fields(ExperimentConfig):
        assert getattr(loaded, f.name) == getattr(direct, f.name), f.name
