"""Write bench/golden/<workload>.csv: each workload's CSV report at the
default seed, which run.py then requires every later commit to reproduce.

    python3 bench/capture_golden.py [WORKLOAD ...]

Re-capture only when a change is meant to alter report values, and say so
where the change is recorded.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS  # noqa: E402


def main(argv):
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    try:
        for name in argv or sorted(WORKLOADS):
            workdir = tempfile.mkdtemp(dir=scratch)
            outcome = WORKLOADS[name](DEFAULT_SEED, workdir)()
            if any(outcome.exit_codes.values()):
                raise SystemExit(f"{name}: cli exit codes {outcome.exit_codes}")
            shutil.copyfile(outcome.csv_path, os.path.join(HERE, "golden", f"{name}.csv"))
            print(f"wrote bench/golden/{name}.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
