"""Command-line interface.

Subcommands:
  make-task   build a task directory (synthetic spec or two-pool mixture)
  run         execute an experiment config (JSON) and emit report files
  summarize   print the per-(seed, alpha, bound) minimum-bound table
"""

import argparse
import os
import sys

from . import __version__
from .experiment import (
    ExperimentConfig,
    emit,
    format_summary,
    parse_report_csv,
    report_records,
    report_summary,
    run_experiment,
)
from .tasks import (
    build_mixture_task,
    build_synthetic_task,
    default_synthetic_spec,
    load_dataset,
    read_json,
    save_task,
    spec_from_json,
)


def _cmd_make_task(args) -> int:
    if args.kind == "synthetic":
        unread = [flag for flag, value in (("--pool0", args.pool0), ("--pool1", args.pool1)) if value is not None]
        if args.spec and args.seed is not None:  # the spec file holds its own seed
            unread.append("--seed with --spec")
        if unread:
            raise ValueError(f"make-task synthetic does not read {', '.join(unread)}")
        if args.spec:
            spec = spec_from_json("synthetic", read_json(args.spec))
        else:
            spec = default_synthetic_spec(seed=args.seed or 0)
        task = build_synthetic_task(spec)
    else:
        if not (args.pool0 and args.pool1 and args.spec):
            raise ValueError("mixture tasks need --pool0, --pool1 and --spec")
        spec = spec_from_json("mixture", read_json(args.spec))
        pool0 = load_dataset(args.pool0, num_classes=spec.num_classes)
        pool1 = load_dataset(args.pool1, num_classes=spec.num_classes)
        task = build_mixture_task(pool0, pool1, spec, seed=args.seed or 0)
    save_task(task, args.out)
    print(f"wrote task ({task.kind}, beta_inf={task.beta_inf:.6g}) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.config))
    cfg = ExperimentConfig.from_json_dict(read_json(args.config), base_dir=base_dir)
    report = run_experiment(cfg)
    out_dir = os.path.join(base_dir, cfg.report_dir)
    os.makedirs(out_dir, exist_ok=True)
    for fmt in cfg.report_formats:
        path = os.path.join(out_dir, f"{cfg.report_stem}.{fmt}")
        emit(report, fmt, path)
        print(f"wrote {path}")
    print(format_summary(report_summary(report_records(report))))
    return 0


def _cmd_summarize(args) -> int:
    print(format_summary(report_summary(parse_report_csv(args.report))))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shiftbound", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--debug", action="store_true", help="raise errors with their traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-task", help="build and persist a task directory")
    p.add_argument("kind", choices=("synthetic", "mixture"))
    p.add_argument("--spec", help="JSON spec file")
    p.add_argument("--pool0", help="CSV pool with origin-0 rows (mixture)")
    p.add_argument("--pool1", help="CSV pool with origin-1 rows (mixture)")
    p.add_argument("--seed", type=int, help="default 0; a synthetic --spec holds its own")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_make_task)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config", help="experiment config JSON")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("summarize", help="summarise an emitted report CSV")
    p.add_argument("report")
    p.set_defaults(fn=_cmd_summarize)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface refusals with a diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
