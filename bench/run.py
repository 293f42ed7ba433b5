"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repeats of one workload, one at a time, each in a fresh worker process
(bench/worker.py), until ``--seconds`` is used up. With ``--trace 0`` every
repeat is untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repeats alternate and the per-layer
metrics of the traced ones are reported, with ``trace.overhead_s``.

Every metric is printed by name with its unit, median, quartiles and sample
count, then an ``info`` line (environment, per-repeat values), and last one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A repeat
fails if its worker exits nonzero or its reports fail a check; the run is
correct only if no repeat failed and every repeat emitted byte-identical
reports. Scratch files go to ``.bench_work/`` in the checkout and are
deleted on exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s whatever --seconds says

sys.path.insert(0, HERE)
from tracer import COUNT_METRICS, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("rows_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def steal_seconds():
    """CPU time the hypervisor gave to others (all CPUs), from /proc/stat."""
    line = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    return int(line[8]) / os.sysconf("SC_CLK_TCK") if len(line) > 8 and line[0] == "cpu" else None


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def quartiles(values):
    """(q1, median, q3), interpolated within the samples (no extrapolation
    from the few repeats a run holds)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def spawn_repeat(workload, seed, trace, workdir, timeout):
    """Run one worker; returns (result dict or None, setup_s, error text)."""
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir, "--result", result_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, None, f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["start"] - spawned, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shiftbound", "__init__.py")):
        print(f"no shiftbound sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = environment()
    env["loadavg_start"] = _read("/proc/loadavg")
    steal_start = steal_seconds()
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    repeats = []  # (traced, result, setup_s, error)
    try:
        deadline = began + args.seconds
        durations = []
        while True:
            traced = bool(args.trace) and len(repeats) % 2 == 1
            workdir = tempfile.mkdtemp(dir=scratch)
            t0 = time.monotonic()
            timeout = max(1.0, began + RUN_LIMIT_S - t0)
            result, setup_s, error = spawn_repeat(args.workload, args.seed, int(traced), workdir, timeout)
            shutil.rmtree(workdir, ignore_errors=True)
            durations.append(time.monotonic() - t0)
            repeats.append((traced, result, setup_s, error))
            if error:
                print(f"repeat {len(repeats)}: {error}", file=sys.stderr)
            elif result["errors"]:
                print(f"repeat {len(repeats)}: report check failed:", *result["errors"][:20], sep="\n  ", file=sys.stderr)
            now = time.monotonic()
            enough = len(repeats) >= (2 if args.trace else 1)
            if error and "timed out" in error:
                break
            if enough and now + statistics.median(durations) > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = _read("/proc/loadavg")
    if steal_start is not None:
        env["cpu_steal_s"] = steal_seconds() - steal_start

    # a repeat whose reports fail a check still has timings; it counts as failed
    done = [(traced, r, s) for traced, r, s, err in repeats if err is None]
    failed = len(repeats) - sum(1 for _, r, _ in done if not r["errors"])
    plain = [(r, s) for traced, r, s in done if not traced]
    traced_done = [r for traced, r, s in done if traced]
    digests = {r["report_sha256"] for _, r, _ in done}
    if not plain or (args.trace and not traced_done):
        print("no repeat completed; no metrics to report", file=sys.stderr)
        return 1

    samples = {
        "wall_s": [r["end"] - r["start"] for r, _ in plain],
        "rows_per_s": [r["rows"] / (r["end"] - r["start"]) for r, _ in plain],
        "setup_s": [s for _, s in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in plain],
    }
    units = dict(END_TO_END)
    if args.trace:
        for name, _ in METRICS:
            samples[name] = [r["layers"][name] for r in traced_done]
        units.update(METRICS)
        traced_wall = statistics.median(r["end"] - r["start"] for r in traced_done)
        samples["trace.overhead_s"] = [traced_wall - statistics.median(samples["wall_s"])]
        units["trace.overhead_s"] = "s"
        reported = [name for name, _ in METRICS] + ["trace.overhead_s"]
    else:
        reported = [name for name, _ in END_TO_END]

    counts_repeat = not args.trace or all(len(set(samples[name])) == 1 for name in COUNT_METRICS)
    metrics = {}
    for name in reported:
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"{name:<48} {med:>14.6g} {units[name]:<6} q1={q1:.6g} q3={q3:.6g} n={len(samples[name])}")
    print(f"{'failed_frac':<48} {failed / len(repeats):>14.6g} {'':<6} failed={failed} attempted={len(repeats)}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "failed_frac": failed / len(repeats),
        "samples": {name: samples[name] for name, _ in END_TO_END},
        "reports_identical": len(digests) == 1,
        "counts_repeat": counts_repeat,
    }
    print("info " + json.dumps(info, sort_keys=True))
    correct = failed == 0 and len(digests) == 1 and counts_repeat
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
