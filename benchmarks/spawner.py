"""Starts the command line runs of the paper_cli workload for run.py.

Each stdin line is a JSON list (a command's argv); the reply line holds
its wall time, exit code, stdout and stderr. ``exit`` ends the loop and
replies with the peak resident memory of the largest command run.

Linux counts the memory a child had before it executed the command in
that child's peak, so the commands are started from this small process,
which imports no numpy or scipy, and not from run.py.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        if line.strip() == "exit":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            sys.stdout.write(json.dumps({"maxrss_kb": peak_kb}) + "\n")
            sys.stdout.flush()
            return 0
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        reply = {"seconds": elapsed, "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main())
