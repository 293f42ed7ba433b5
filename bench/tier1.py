"""Wall time of the tier-1 test suite: informational, not a gated metric,
because the tests change from commit to commit.

    python3 bench/tier1.py

Prints one JSON object with the wall time, the pytest summary line and the
same environment block run.py records.
"""

import json
import os
import subprocess
import sys
import time

from run import ROOT, environment


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(json.dumps({"tier1_wall_s": wall, "exit_code": proc.returncode, "summary": summary,
                      "environment": environment()}, sort_keys=True))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
