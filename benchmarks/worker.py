"""Runs the operations of an in-process workload for run.py.

Usage: worker.py WORKLOAD SEED SMOKE

The worker imports skewca, builds the workload's inputs from the seed and
runs one warm-up of each operation kind; then it prints ``{"ready": ...}``
and serves one request per stdin line:

- ``run I T`` runs operation I, traced when T is 1, and prints its
  latency, its result, the values the checks need (computed after the
  timed span), and the spans it recorded;
- ``exit`` prints the peak resident memory of this process and ends.

The work runs here, not in run.py, so that this process's memory and
time hold only skewca, not the scipy the checks import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import workloads
from spans import Tracer


def _peak_rss_kb() -> int:
    """High-water resident memory of this process image (ru_maxrss would include the parent's)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    workload, seed, smoke = argv[0], int(argv[1]), argv[2] == "1"

    # called through their modules, so that the tracer's wrappers are seen
    from skewca import divergence, reporting, table, tableio

    make = {"large_tables": workloads.large_tables_ops, "measure_screen": workloads.measure_screen_ops}
    ops = make[workload](seed, smoke)
    inputs = [tuple(table.validate_table(t.labels, t.counts) for t in op.tables) for op in ops]
    lambdas = tuple(workloads.LAMBDAS.values())  # the order checks.SCREEN_LAMBDAS expects

    def run(i: int) -> tuple[float, dict]:
        """Run operation i; return its latency in seconds and its result."""
        op = ops[i]
        if op.kind in ("analyze", "matched"):
            config = reporting.AnalysisConfig(lam=op.lam, metric=op.metric)
            pipeline = reporting.run_analyze if op.kind == "analyze" else reporting.run_matched
            start = time.perf_counter()
            text = pipeline(config, *inputs[i]).to_json()
            elapsed = time.perf_counter() - start
            return elapsed, {"report": text}
        start = time.perf_counter()
        parsed = tableio.parse_table_csv(op.text)
        test = divergence.bowker_statistic(parsed)
        p = table.to_probabilities(parsed)
        phis = [divergence.asymmetry_measure(p, lam).phi_total for lam in lambdas]
        stats = [divergence.power_divergence_statistic(parsed, lam) for lam in lambdas]
        elapsed = time.perf_counter() - start
        return elapsed, {
            "labels": list(parsed.labels),
            "n": parsed.n,
            "bowker": [test.statistic, test.dof, test.p_value],
            "phi": phis,
            "statistic": stats,
        }

    def extras(i: int) -> dict:
        """Values the checks need from skewca, computed outside the timed span."""
        if ops[i].kind == "matched":
            return {}
        scaled = table.to_probabilities(inputs[i][0].scaled(ops[i].scale))
        return {"phi_scaled": divergence.asymmetry_measure(scaled, ops[i].lam).phi_total}

    for i in workloads.warmup_indices(ops):
        run(i)
    _reply({"ready": True, "ops": len(ops)})

    tracer = Tracer()
    for line in sys.stdin:
        words = line.split()
        if words[0] == "exit":
            _reply({"maxrss_kb": _peak_rss_kb()})
            return 0
        i, traced = int(words[1]), words[2] == "1"
        if traced:
            tracer.install()
        else:
            tracer.uninstall()
        try:
            elapsed, result = run(i)
        except Exception:  # reported to run.py, which counts the operation as failed
            _reply({"error": traceback.format_exc(limit=3)})
            tracer.take()
            continue
        spans = tracer.take()
        result.update(extras(i))
        tracer.take()  # the extras are checks, not workload
        _reply({"seconds": elapsed, "result": result, "spans": spans})
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
