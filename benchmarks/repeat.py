"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 benchmarks/repeat.py --workload WORKLOAD [--seeds 1-10]

Each run is untraced and measures for BENCHMARK.json's ``run_seconds``.
For each end-to-end metric it prints the median of the runs and the
spread, the distance between the first and third quartiles as a share of
the median, next to the bound BENCHMARK.json fixes. It also prints the share of failed
operations of every run. This is how README.md's reference figures are made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed share={share:.6f}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:42s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
