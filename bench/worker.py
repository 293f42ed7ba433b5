"""One repeat of one workload, in the fresh process that run.py spawns.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR --result FILE

Set-up (import, input generation) runs first; the timed section then runs
once and its reports are checked. The result file gets the timed section's
start and end on the monotonic clock, which run.py shares, so set-up time is
measured from the moment the process was spawned.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from workloads import DEFAULT_SEED, SRC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DELTA = 0.05  # the ExperimentConfig default every workload runs with


def run_repeat(workload, seed, trace, workdir, small=False):
    """Set up, time and check one repeat; returns the result dict."""
    from check import check_golden, check_invariants, check_summary
    from tracer import Tracer

    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        run = WORKLOADS[workload](seed, workdir, small=small)
        start = time.monotonic()
        outcome = run()
        end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = [f"cli {name} exited {code}" for name, code in outcome.exit_codes.items() if code != 0]
    digest, rows = None, 0
    if not errors:
        h = hashlib.sha256()
        for path in (outcome.csv_path, outcome.json_path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        digest = h.hexdigest()
        with open(outcome.json_path) as fh:
            rows = len(json.load(fh)["rows"])
        errors += check_invariants(outcome.csv_path, outcome.json_path, DELTA)
        if seed == DEFAULT_SEED and not small:
            errors += check_golden(outcome.csv_path, os.path.join(HERE, "golden", f"{workload}.csv"))
        if outcome.stdout:
            errors += check_summary(outcome.stdout["run"], outcome.stdout["summarize"])
    return {
        "start": start,
        "end": end,
        "rows": rows,
        "peak_rss_mb": peak_rss_mb,
        "report_sha256": digest,
        "errors": errors,
        "layers": tracer.metrics() if tracer else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import shiftbound

    if not os.path.abspath(shiftbound.__file__).startswith(SRC + os.sep):
        print(f"shiftbound imported from {shiftbound.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_repeat(args.workload, args.seed, args.trace, args.workdir)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
