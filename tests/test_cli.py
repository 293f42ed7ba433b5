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
from shiftbound import ExperimentConfig, LabeledSample, cli, emit, load_dataset, save_dataset
from shiftbound.cli import main
from shiftbound.tasks import default_synthetic_spec, load_task


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


@pytest.mark.parametrize(
    "report, message",
    [
        ({"formats": ["csv", "xml"]}, "format must be 'csv' or 'json'"),
        ({"format": ["json"], "stem": "run"}, "unknown config keys: report.format"),
        ("out", "config key 'report' must be an object"),
        ({"dir": 5}, "report.dir must be a string, got 5"),
        ({"stem": ["a"]}, "report.stem must be a string, got ['a']"),
        ({"formats": "csv"}, "report.formats must be a list, got 'csv'"),
        ({"formats": []}, "need at least one report format"),
        ({"formats": ["csv", "csv"]}, "report formats must be distinct"),
        ({"stem": ""}, "report.stem must be a file name, got ''"),
        ({"stem": "sub/report"}, "report.stem must be a file name, got 'sub/report'"),
    ],
)
def test_run_checks_the_report_section_before_running(tmp_path, capsys, monkeypatch, report, message):
    def run_experiment(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    path = tmp_path / "config.json"
    task = {"type": "synthetic", "spec": asdict(default_synthetic_spec(seed=1))}
    path.write_text(json.dumps({"task": task, "report": report}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"mmd": {"shuffles": 2.5}}, "mmd.shuffles must be an integer, got 2.5"),
        ({"alpha": [0.3, 0.3]}, "alpha values must be distinct"),
        ({"train": {"momentum": 1.5}}, "momentum must lie in [0, 1)"),
        ({"arch": {"hidden": [6], "activation": "relu"}}, "unknown config keys: arch.activation"),
        ({"oracle_mode": "false", "bounds": ["add"]}, "oracle_mode must be true or false, got 'false'"),
        ({"sigma": "0.03"}, "sigma must be a number, got '0.03'"),
        ({"bounds": ["iw", "iw"]}, "bounds must be distinct"),
        ({"seeds": 3}, "seeds must be a list, got 3"),
        ({"arch": {"hidden": 16}}, "arch.hidden must be a list, got 16"),
        ({"bounds": "iw"}, "bounds must be a list, got 'iw'"),
        ({"task": None}, "config key 'task' is missing"),
        ({"task": "x"}, "task must be an object, got 'x'"),
        ({"task": {"type": "csv", "path": "task"}}, "task.type must be 'synthetic' or 'manifest', got 'csv'"),
        ({"task": {"type": "synthetic"}}, "task.spec must be an object, got None"),
        ({"task": {"type": "synthetic", "spec": []}}, "task.spec must be an object, got []"),
        ({"task": {"type": "manifest"}}, "task.path must be a string, got None"),
        ({"task": {"type": "manifest", "path": 3}}, "task.path must be a string, got 3"),
        ({"bounds": [["iw"]]}, "bounds[0] must be a string, got ['iw']"),
        ({"bounds": [1]}, "bounds[0] must be a string, got 1"),
        ({"task": {"type": "synthetic", "spec": {"dim": 2}}},
         "task.spec: SyntheticSpec.__init__() missing 7 required positional arguments: 'component_means', "
         "'component_std', 'source_mix', 'target_mix', 'n_source', 'n_target', and 'seed'"),
        (3, "config must be an object, got 3"),
        (None, "config must be an object, got None"),
        ("abc", "config must be an object, got 'abc'"),
        ([], "config must be an object, got []"),
        ({"posterior_pair": 1, "report": {"x": 1}}, "unknown config keys: posterior_pair, report.x"),
    ],
)
def test_run_refuses_a_bad_setting_before_building_the_task(tmp_path, capsys, monkeypatch, doc, message):
    def refuse(*args):
        raise AssertionError("the task was built or the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli.ExperimentConfig, "resolve_task", refuse)
    path = tmp_path / "config.json"
    # a None value stands for an absent key; a document that is not an object is written as it is
    if isinstance(doc, dict):
        doc = {key: value for key, value in {"task": {"type": "manifest", "path": "task"}, **doc}.items()
               if value is not None}
    path.write_text(json.dumps(doc))
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
    assert f"error: {manifest_path}: missing key 'files'" in capsys.readouterr().err


def test_run_refuses_target_with_other_feature_count(tmp_path, capsys):
    task_dir = make_small_task(tmp_path)
    target = load_dataset(task_dir / "target.csv")
    wider = np.column_stack([target.features, target.features[:, :1]])
    save_dataset(LabeledSample(features=wider, labels=target.labels), task_dir / "target.csv")
    assert main(["run", str(write_config(tmp_path, task_dir))]) == 2
    err = capsys.readouterr().err
    assert f"error: {task_dir / 'target.csv'}: 3 features, but {task_dir / 'source.csv'} has 2" in err


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh interpreter that imports the CLI
    has no scipy module loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftbound.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import shiftbound.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.strip() == "[]"
