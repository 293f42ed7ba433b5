import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import shiftbound
from shiftbound import (ExperimentConfig, LabeledSample, build_one_sided_task, cli, emit, load_dataset, save_dataset,
                        save_task)
from shiftbound.cli import main
from shiftbound.experiment import CSV_COLUMNS
from shiftbound.tasks import build_synthetic_task, default_synthetic_spec, load_task
from test_experiment import CONFIG_REFUSALS, SPEC, config_doc


def write_config(tmp_path, task_dir):
    doc = {
        "task": {"type": "manifest", "path": str(task_dir)},
        "arch": {"hidden": [6]},
        "alpha": 0.3,
        "bounds": ["mcallester", "iw"],
        "train": {"learning_rate": 0.003, "batch_size": 32, "posterior_epochs": 2},
        "mmd": {"shuffles": 2},
        "seeds": [0],
        "report": {"dir": "out", "formats": ["csv", "json"], "stem": "run"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_make_task_run_summarize(tmp_path, capsys):
    spec = default_synthetic_spec(seed=4, n_source=400, n_target=300)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(spec)))
    task_dir = tmp_path / "task"
    assert main(["make-task", "synthetic", "--spec", str(spec_path), "--out", str(task_dir)]) == 0
    task = load_task(task_dir)
    assert task.beta_inf == pytest.approx(9.0, abs=1e-9)

    cfg_path = write_config(tmp_path, task_dir)
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "min_bound" in out
    report_csv = tmp_path / "out" / "run.csv"
    assert report_csv.exists()
    assert (tmp_path / "out" / "run.json").exists()

    assert main(["summarize", str(report_csv)]) == 0
    summarized = capsys.readouterr().out
    assert "iw" in summarized
    # summarize prints the very table run printed for the same report
    table = [line for line in out.splitlines() if not line.startswith("wrote ")]
    assert summarized.splitlines() == table


def test_summarize_rejects_empty_report(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert main(["summarize", str(path)]) != 0
    assert "error: report is empty" in capsys.readouterr().err


def test_summarize_refuses_each_bad_field_until_the_report_is_mended(tmp_path, capsys):
    """A bound ``summarize`` would print as ``bogus nan`` is refused field by
    field; once mended, a bound value above 1 is summarised."""
    row = dict.fromkeys(CSV_COLUMNS, "0.1") | {
        "seed": "0", "checkpoint_index": "0", "bound_name": "bogus", "bound_value": "nan", "param_json": "not json",
        "gibbs_weighted_risk": "", "oracle_target_gibbs_risk": "", "oracle_used": "false",
    }
    path = tmp_path / "report.csv"
    for column, mended in (("bound_name", "mult"), ("bound_value", "1.5"), ("param_json", "{}")):
        path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
        assert main(["summarize", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: bad {column} value {row[column]!r}\n"
        row[column] = mended
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
    assert main(["summarize", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[2:4] == ["mult", "1.500000"]


def test_run_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": {"type": "synthetic", "spec": {}}}))
    assert main(["run", str(path)]) != 0
    assert "error:" in capsys.readouterr().err


def test_run_refuses_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"task": {"type": "synthetic", "spec": {}}, "train": {"learningrate": 1.0}}))
    assert main(["run", str(path)]) == 2
    assert "error: unknown config keys: train.learningrate" in capsys.readouterr().err


# Each message once, in test_experiment's table, its backslash escapes undone
CONFIG_MESSAGES = {json.dumps(doc): re.sub(r"\\(.)", r"\1", message) for doc, message in CONFIG_REFUSALS}


@pytest.mark.parametrize(
    "report, message",
    [
        (report, CONFIG_MESSAGES[json.dumps({"report": report})])
        for report in (
            {"formats": ["csv", "xml"]}, {"format": ["json"], "stem": "run"}, "out", {"dir": 5}, {"stem": ["a"]},
            {"formats": "csv"}, {"formats": []}, {"formats": ["csv", "csv"]}, {"stem": ""}, {"stem": "sub/report"},
        )
    ],
)
def test_run_checks_the_report_section_before_running(tmp_path, capsys, monkeypatch, report, message):
    def run_experiment(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc({"report": report})))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "doc, message",
    [
        (doc, CONFIG_MESSAGES[json.dumps(doc)])
        for doc in (
            {"mmd": {"shuffles": 2.5}}, {"alpha": [0.3, 0.3]}, {"train": {"momentum": 1.5}},
            {"arch": {"hidden": [6], "activation": "relu"}}, {"oracle_mode": "false", "bounds": ["add"]},
            {"sigma": "0.03"}, {"bounds": ["iw", "iw"]}, {"seeds": 3}, {"arch": {"hidden": 16}}, {"bounds": "iw"},
            {"task": None}, {"task": "x"}, {"task": {"type": "csv", "path": "task"}}, {"task": {"type": "synthetic"}},
            {"task": {"type": "synthetic", "spec": []}}, {"task": {"type": "manifest"}},
            {"task": {"type": "manifest", "path": 3}}, {"bounds": [["iw"]]}, {"bounds": [1]},
            {"task": {"type": "synthetic", "spec": {"dim": 2}}}, 3, None, "abc", [],
            {"posterior_pair": 1, "report": {"x": 1}},
            {"task": {"type": "manifest", "path": "t", "seed": 3}},
            {"task": {"type": "synthetic", "spec": SPEC, "n_source": 5}},
        )
    ],
)
def test_run_refuses_a_bad_setting_before_building_the_task(tmp_path, capsys, monkeypatch, doc, message):
    def refuse(*args):
        raise AssertionError("the task was built or the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli.ExperimentConfig, "resolve_task", refuse)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc(doc)))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_readme_config_example_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Experiment config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(example)
    cfg = ExperimentConfig.from_json_dict(doc)
    assert (cfg.hidden, cfg.alphas, cfg.oracle_mode) == ((64, 64), (0.0, 0.3), True)
    assert (cfg.report_dir, cfg.report_stem, cfg.report_formats) == ("out", "report", ("csv", "json"))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--spec", "spec.json", "--seed", "7"], "make-task synthetic does not read --seed with --spec"),
        (["--seed", "0", "--spec", "spec.json"], "make-task synthetic does not read --seed with --spec"),
        (["--pool0", "x.csv"], "make-task synthetic does not read --pool0"),
        (["--pool1", "y.csv", "--seed", "1"], "make-task synthetic does not read --pool1"),
    ],
)
def test_make_task_synthetic_refuses_a_flag_it_does_not_read(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(asdict(default_synthetic_spec(seed=4, n_source=40, n_target=30))))
    assert main(["make-task", "synthetic", *flags, "--out", "task"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("task").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rule_offset", float("nan"), "rule_offset must be finite, got nan"),
        ("component_std", float("inf"), "component_std must be finite, got inf"),
        ("component_means", [[-0.5, 0.0], [float("-inf"), 0.0]], "component_means[1][0] must be finite, got -inf"),
    ],
)
def test_make_task_synthetic_refuses_a_non_finite_spec_number(tmp_path, capsys, monkeypatch, field, value, message):
    monkeypatch.chdir(tmp_path)
    spec = {**asdict(default_synthetic_spec(seed=4, n_source=40, n_target=30)), field: value}
    Path("spec.json").write_text(json.dumps(spec))
    assert main(["make-task", "synthetic", "--spec", "spec.json", "--out", "task"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("task").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "bad.json"],
        ["make-task", "synthetic", "--spec", "bad.json", "--out", "task"],
        ["make-task", "mixture", "--pool0", "pool0.csv", "--pool1", "pool1.csv", "--spec", "bad.json", "--out", "task"],
    ],
)
def test_a_json_file_that_does_not_parse_is_refused_by_name(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text('{"dim": ')
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad.json: Expecting value: line 1 column 9 (char 8)\n"
    assert sorted(os.listdir()) == ["bad.json"]


def _config_documents(tmp_path):
    def argv(doc):
        (tmp_path / "config.json").write_text(json.dumps(doc))
        return ["run", str(tmp_path / "config.json")]
    return {"task": {"type": "manifest", "path": "task"}}, argv


def _inline_spec_documents(tmp_path):
    config = _config_documents(tmp_path)[1]
    return SPEC, lambda doc: config({"task": {"type": "synthetic", "spec": doc}})


def _spec_file_documents(kind):
    def documents(tmp_path):
        spec_path = tmp_path / "spec.json"
        if kind == "mixture":
            good, run = MIXTURE_SPEC, write_mixture_inputs(tmp_path, MIXTURE_SPEC)
        else:
            good, run = SPEC, ["make-task", "synthetic", "--spec", str(spec_path), "--out", str(tmp_path / "task")]

        def argv(doc):
            spec_path.write_text(json.dumps(doc))
            return run
        return good, argv
    return documents


def _saved_task(kind, tmp_path):
    """A small task directory of ``kind``."""
    if kind == "synthetic":
        return make_small_task(tmp_path)
    if kind == "mixture":
        assert main(write_mixture_inputs(tmp_path, MIXTURE_SPEC)) == 0
    else:
        pools = [LabeledSample(features=np.arange(8.0)[:, None] + o, labels=np.arange(8) % 2) for o in (0, 1)]
        save_task(build_one_sided_task(*pools, 0.5), tmp_path / "task")
    return tmp_path / "task"


def _manifest_documents(kind, part):
    """The manifest of a saved task of ``kind``, or its ``spec`` where
    ``part`` is "spec", and the arguments of a run of that task with ``doc``
    in its place."""
    def documents(tmp_path):
        task_dir = _saved_task(kind, tmp_path)
        manifest = json.loads((task_dir / "manifest.json").read_text())
        run = ["run", str(write_config(tmp_path, task_dir))]

        def argv(doc):
            (task_dir / "manifest.json").write_text(json.dumps({**manifest, "spec": doc} if part == "spec" else doc))
            return run
        return manifest[part] if part else manifest, argv
    return documents


# Each JSON document kind the program reads: its good document and the
# shiftbound arguments that read a document in its place, the path that a
# refusal of it names, the name of the document and one of its required keys
DOCUMENT_KINDS = {
    "config": (_config_documents, "error: ", "config", "task"),
    "inline-spec": (_inline_spec_documents, "error: task.spec", "spec", "dim"),
    "make-task-synthetic-spec": (_spec_file_documents("synthetic"), "error: ", "spec", "dim"),
    "make-task-mixture-spec": (_spec_file_documents("mixture"), "error: ", "spec", "num_classes"),
    "manifest": (_manifest_documents("synthetic", None), "manifest.json: ", "manifest", "kind"),
    "manifest-synthetic-spec": (_manifest_documents("synthetic", "spec"), "manifest.json: spec", "spec", "dim"),
    "manifest-mixture-spec": (_manifest_documents("mixture", "spec"), "manifest.json: spec", "spec", "num_classes"),
    "manifest-one-sided-spec": (
        _manifest_documents("one_sided", "spec"), "manifest.json: spec", "spec", "move_fraction"
    ),
}


@pytest.mark.parametrize("fault", ["list", "unknown-key", "missing-key"])
@pytest.mark.parametrize("documents, path, what, required", DOCUMENT_KINDS.values(), ids=DOCUMENT_KINDS)
def test_every_json_document_is_refused_by_key(tmp_path, capsys, documents, path, what, required, fault):
    good, argv = documents(tmp_path)
    doc, message = {
        "list": ([good], f"{what} must be an object, got ["),
        "unknown-key": ({**good, "bogus": 1}, f"unknown {what} keys: bogus\n"),
        "missing-key": ({key: value for key, value in good.items() if key != required},
                        f"{what} key {required!r} is missing\n"),
    }[fault]
    assert main(argv(doc)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and message in err
    assert "__init__()" not in err and "argument after **" not in err


def test_readme_cli_block_names_the_parser_commands(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    commands = re.search(r"\{([a-z,-]+)\}", usage).group(1).split(",")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    documented = re.findall(r"^shiftbound ([a-z][a-z-]*)", block, flags=re.MULTILINE)
    assert sorted(set(documented)) == sorted(commands)


def test_debug_flag_raises_instead_of_printing_the_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError):
        main(["--debug", "run", missing])
    assert main(["run", missing]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_make_task_mixture_requires_pools(tmp_path, capsys):
    assert main(["make-task", "mixture", "--out", str(tmp_path / "t")]) != 0
    assert "pool" in capsys.readouterr().err


def write_mixture_inputs(tmp_path, spec):
    """Two 12-row pools of four classes, three rows each, and ``spec`` as JSON;
    returns the ``make-task mixture`` arguments for them."""
    labels = np.repeat([0, 1, 2, 3], 3)
    for o in (0, 1):
        features = np.column_stack([np.arange(12.0), np.full(12, float(o))])
        save_dataset(LabeledSample(features=features, labels=labels), tmp_path / f"pool{o}.csv")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return [
        "make-task", "mixture", "--pool0", str(tmp_path / "pool0.csv"),
        "--pool1", str(tmp_path / "pool1.csv"), "--spec", str(tmp_path / "spec.json"),
        "--seed", "3", "--out", str(tmp_path / "task"),
    ]


MIXTURE_SPEC = {
    "num_classes": 4, "source_share": ["1/3", "2/3", "1/3", "2/3"], "per_class_counts": [[3, 3]] * 4,
}


def test_make_task_mixture_manifest(tmp_path):
    assert main(write_mixture_inputs(tmp_path, MIXTURE_SPEC)) == 0
    manifest = {
        "beta_inf": 2.0,
        "files": {"source": "source.csv", "target": "target.csv", "weights": "weights.csv"},
        "kind": "mixture",
        "spec": {**MIXTURE_SPEC, "binary_relabel_threshold": 2},
    }
    want = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "task" / "manifest.json").read_text() == want
    spec = load_task(tmp_path / "task").spec
    assert spec.source_share == (Fraction(1, 3), Fraction(2, 3)) * 2
    assert spec.per_class_counts == ((3, 3),) * 4


def test_make_task_mixture_refuses_unknown_spec_key(tmp_path, capsys):
    spec = {**MIXTURE_SPEC, "binary_relabel_treshold": 1}
    assert main(write_mixture_inputs(tmp_path, spec)) == 2
    assert "binary_relabel_treshold" in capsys.readouterr().err
    assert not (tmp_path / "task").exists()


def test_make_task_mixture_refuses_pools_without_features(tmp_path, capsys):
    argv = write_mixture_inputs(tmp_path, MIXTURE_SPEC)
    for o in (0, 1):
        rows = "".join(f"{label},{o}\n" for label in np.repeat([0, 1, 2, 3], 3))
        (tmp_path / f"pool{o}.csv").write_text("label,origin\n" + rows)
    assert main(argv) == 2
    pool = tmp_path / "pool0.csv"
    assert capsys.readouterr().err == f"error: {pool}: header must be f0..f{{d-1}},label[,origin]\n"
    assert not (tmp_path / "task").exists()


def test_make_task_mixture_refuses_fractional_count(tmp_path, capsys):
    spec = {**MIXTURE_SPEC, "per_class_counts": [[2.7, 3]] + [[3, 3]] * 3}
    assert main(write_mixture_inputs(tmp_path, spec)) == 2
    assert "error: per_class_counts[0][0] must be an integer, got 2.7" in capsys.readouterr().err
    assert not (tmp_path / "task").exists()


def make_small_task(tmp_path):
    spec = default_synthetic_spec(seed=4, n_source=40, n_target=30)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(spec)))
    task_dir = tmp_path / "task"
    assert main(["make-task", "synthetic", "--spec", str(spec_path), "--out", str(task_dir)]) == 0
    return task_dir


def test_run_refuses_manifest_without_files(tmp_path, capsys):
    task_dir = make_small_task(tmp_path)
    manifest_path = task_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["files"]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["run", str(write_config(tmp_path, task_dir))]) == 2
    assert f"error: {manifest_path}: manifest key 'files' is missing" in capsys.readouterr().err


def test_run_refuses_target_with_other_feature_count(tmp_path, capsys):
    task_dir = make_small_task(tmp_path)
    target = load_dataset(task_dir / "target.csv")
    wider = np.column_stack([target.features, target.features[:, :1]])
    save_dataset(LabeledSample(features=wider, labels=target.labels), task_dir / "target.csv")
    assert main(["run", str(write_config(tmp_path, task_dir))]) == 2
    err = capsys.readouterr().err
    assert f"error: {task_dir / 'target.csv'}: 3 features, but {task_dir / 'source.csv'} has 2" in err


def test_make_task_synthetic_without_a_spec_writes_the_default_task(tmp_path):
    assert main(["make-task", "synthetic", "--seed", "0", "--out", str(tmp_path / "cli")]) == 0
    save_task(build_synthetic_task(default_synthetic_spec(0)), tmp_path / "api")
    names = sorted(os.listdir(tmp_path / "api"))
    assert sorted(os.listdir(tmp_path / "cli")) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes(), name


def run_python(*args):
    """A fresh interpreter run with ``args``, importing shiftbound from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftbound.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True)


def test_python_dash_m_runs_the_cli():
    assert run_python("-m", "shiftbound", "--version").stdout == "0.1.0\n"


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh interpreter that imports the CLI
    has no scipy module loaded."""
    code = (
        "import shiftbound.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_python("-c", code).stdout.strip() == "[]"
