"""The benchmark's workloads: inputs built from a seed, and the timed call.

Calling a workload generates its inputs (untimed, but counted in ``setup_s``)
and returns the timed section as a callable that returns an ``Outcome``.
The workload seed seeds the task spec; the experiment seeds stay fixed so
that a workload differs between seeds only in its data.

Sizes are scaled from the configs they model (the README quick start and the
CLI round trip) so that one repeat takes a few seconds and a run holds
several repeats; ``small=True`` shrinks them further for the smoke test.
"""

import contextlib
import io
import json
import os
from dataclasses import asdict, dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ALL_BOUNDS = ("mcallester", "iw", "mmd", "mult", "add")
DEFAULT_SEED = 0  # the seed whose reports are pinned by bench/golden/


@dataclass
class Outcome:
    """What the timed section produced: the report paths, and the exit code
    and stdout of each CLI command it ran."""

    csv_path: str
    json_path: str
    exit_codes: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)


def _library_workload(spec, cfg_kwargs, workdir):
    from shiftbound import experiment
    from shiftbound.tasks import build_synthetic_task

    cfg = experiment.ExperimentConfig(task={"type": "synthetic", "spec": asdict(spec)}, **cfg_kwargs)
    task = build_synthetic_task(spec)
    csv_path = os.path.join(workdir, "report.csv")
    json_path = os.path.join(workdir, "report.json")

    def run():
        report = experiment.run_experiment(cfg, task)
        experiment.emit(report, "csv", csv_path)
        experiment.emit(report, "json", json_path)
        return Outcome(csv_path, json_path)

    return run


def quickstart_oracle(seed, workdir, small=False):
    """README quick start in oracle mode: all five bounds, P = 5, so 90
    forward passes per checkpoint row dominate; the only workload running the
    289-candidate mult/add grids on 10k-row samples."""
    from shiftbound.tasks import default_synthetic_spec

    n = 400 if small else 10000
    spec = default_synthetic_spec(seed, n_source=n, n_target=n)
    cfg = dict(
        hidden=(64, 64), alphas=(0.0, 0.3), bounds=ALL_BOUNDS, oracle_mode=True,
        posterior_pairs=5, learning_rate=2e-2, seeds=(0,), posterior_epochs=1,
    )
    return _library_workload(spec, cfg, workdir)


def cli_roundtrip(seed, workdir, small=False):
    """make-task, run and summarize through cli.main on a 100k + 100k row
    task: CSV writes and reads in tasks and the MMD shuffles dominate."""
    from shiftbound import cli
    from shiftbound.tasks import default_synthetic_spec

    n = 400 if small else 100000
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(asdict(default_synthetic_spec(seed, n_source=n, n_target=n)), fh)
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(
            {
                "task": {"type": "manifest", "path": "task"},
                "arch": {"hidden": [16]},
                "alpha": 0.3,
                "posterior_pairs": 1,
                "bounds": list(ALL_BOUNDS),
                "oracle_mode": True,
                "train": {"posterior_epochs": 1},
                "mmd": {"shuffles": 50},
                "seeds": [0],
                "report": {"dir": "out", "formats": ["csv", "json"], "stem": "report"},
            },
            fh,
        )
    out_dir = os.path.join(workdir, "out")
    commands = {
        "make-task": ["make-task", "synthetic", "--spec", spec_path, "--out", os.path.join(workdir, "task")],
        "run": ["run", config_path],
        "summarize": ["summarize", os.path.join(out_dir, "report.csv")],
    }

    def run():
        outcome = Outcome(os.path.join(out_dir, "report.csv"), os.path.join(out_dir, "report.json"))
        for name, argv in commands.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                outcome.exit_codes[name] = cli.main(argv)
            outcome.stdout[name] = buf.getvalue()
            if outcome.exit_codes[name] != 0:
                break
        return outcome

    return run


WORKLOADS = {
    "quickstart_oracle": quickstart_oracle,
    "cli_roundtrip": cli_roundtrip,
}
