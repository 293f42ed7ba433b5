"""Command-line interface.

Subcommands:
  make-task   build a task directory (synthetic spec or two-pool mixture)
  run         execute an experiment config (JSON) and emit report files
  summarize   print the per-(seed, alpha, bound) minimum-bound table
  check       fast self-test on a tiny built-in task
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import BoundInputs, bound_terms, grid_search
from .divergences import MixtureTaskSpec, beta_infinity
from .experiment import (
    ExperimentConfig,
    emit,
    format_summary,
    parse_report_csv,
    report_records,
    report_summary,
    run_experiment,
)
from .risks import RiskEstimates
from .tasks import (
    build_mixture_task,
    build_synthetic_task,
    default_synthetic_spec,
    load_dataset,
    save_task,
    spec_from_json,
)


def _cmd_make_task(args) -> int:
    if args.kind == "synthetic":
        if args.spec:
            with open(args.spec) as fh:
                spec = spec_from_json("synthetic", json.load(fh))
        else:
            spec = default_synthetic_spec(seed=args.seed)
        task = build_synthetic_task(spec)
    else:
        if not (args.pool0 and args.pool1 and args.spec):
            raise ValueError("mixture tasks need --pool0, --pool1 and --spec")
        with open(args.spec) as fh:
            spec = spec_from_json("mixture", json.load(fh))
        pool0 = load_dataset(args.pool0, num_classes=spec.num_classes)
        pool1 = load_dataset(args.pool1, num_classes=spec.num_classes)
        task = build_mixture_task(pool0, pool1, spec, seed=args.seed)
    save_task(task, args.out)
    print(f"wrote task ({task.kind}, beta_inf={task.beta_inf:.6g}) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    cfg = ExperimentConfig.from_json_dict(doc, base_dir=base_dir)
    report = run_experiment(cfg)
    report_cfg = doc.get("report", {})
    out_dir = os.path.join(base_dir, report_cfg.get("dir", "."))
    os.makedirs(out_dir, exist_ok=True)
    stem = report_cfg.get("stem", "report")
    for fmt in report_cfg.get("formats", ["csv"]):
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        emit(report, fmt, path)
        print(f"wrote {path}")
    print(format_summary(report_summary(report_records(report))))
    return 0


def _cmd_summarize(args) -> int:
    print(format_summary(report_summary(parse_report_csv(args.report))))
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    return ok


def _cmd_check(args) -> int:
    import tempfile

    ok = True

    est = RiskEstimates(
        gibbs_risk=0.1, disagreement_source=0.0, disagreement_target=0.0,
        joint_error_source=0.0, gibbs_weighted_risk=0.1,
    )
    inputs = BoundInputs(m_source=10000, n_target=10000, kl=10.0, delta=0.05, estimates=est)
    got = sum(v for _, v in bound_terms("mcallester", inputs, inputs.delta, gamma=0.5))
    want = 0.1 / 0.5 + (10.0 + math.log(1 / 0.05)) / (2 * 0.5 * 0.5 * 10000)
    ok &= _check("closed-form bound evaluation", abs(got - want) < 1e-12, f"{got:.6f}")

    res = grid_search("mcallester", inputs)
    ok &= _check(
        "union-bound delta correction",
        abs(res.delta_effective - 0.05 / 7) < 1e-15
        and abs(res.value - sum(v for _, v in res.terms)) < 1e-12,
        f"delta_eff={res.delta_effective:.6f}",
    )

    schedule = MixtureTaskSpec(
        num_classes=10,
        source_share=[f"{c + 1}/12" for c in range(10)],
        per_class_counts=[(120, 120)] * 10,
    )
    ok &= _check("canonical mixture beta_inf == 11", beta_infinity(schedule) == 11.0)

    spec = default_synthetic_spec(seed=7, n_source=400, n_target=400)
    cfg = ExperimentConfig(
        task={"type": "synthetic", "spec": asdict(spec)},
        hidden=(8,),
        alphas=(0.3,),
        bounds=("mcallester", "iw", "mmd"),
        seeds=(0,),
        batch_size=32,
        mmd_shuffles=3,
    )

    def report_bytes():
        report = run_experiment(cfg)
        with tempfile.NamedTemporaryFile(suffix=".csv") as tmp:
            emit(report, "csv", tmp.name)
            data = tmp.read()
        return report, data

    report, first = report_bytes()
    _, second = report_bytes()
    ok &= _check("deterministic end-to-end report", first == second)
    ok &= _check(
        "bound values finite and recorded",
        all(math.isfinite(r.value) for row in report.rows for r in row.bounds.values()),
        f"{len(report.rows)} checkpoint rows",
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shiftbound", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-task", help="build and persist a task directory")
    p.add_argument("kind", choices=("synthetic", "mixture"))
    p.add_argument("--spec", help="JSON spec file")
    p.add_argument("--pool0", help="CSV pool with origin-0 rows (mixture)")
    p.add_argument("--pool1", help="CSV pool with origin-1 rows (mixture)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_make_task)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config", help="experiment config JSON")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("summarize", help="summarise an emitted report CSV")
    p.add_argument("report")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("check", help="fast built-in self-test")
    p.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface refusals with a diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
