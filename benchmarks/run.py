"""Benchmark for skewca: three workloads, timed end to end and layer by layer.

Usage, from the root of a checkout (no installation needed):

    python3 benchmarks/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1 [--smoke]

WORKLOAD is ``paper_cli``, ``large_tables`` or ``measure_screen`` (see
README.md). The run sets itself up three times and reports the median
set-up time, then runs whole passes over the workload's fixed operation
list, one operation at a time, until the next pass would end after S
seconds; it always runs enough passes for 100 operations, so that at
least ten latencies lie beyond the 90th percentile. Every output is
checked against independent numpy/scipy computations (checks.py) outside
the timed spans. An operation that raises, exits non-zero or fails a
check counts as failed and makes the run incorrect, so that a failing
operation, whose latency is left out, cannot pass for a speed-up.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time and calls per pass of each wrapped skewca
function, interpreter and import times, and the tracing overhead.
``--smoke`` runs one small pass, to test the benchmark itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run goes to ``.bench_results/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, and inherited by every child process
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
DATA_FILES = ("coffee.csv", "opinions_teens.csv", "opinions_adults.csv")

MIN_OPS = 100  # at least ten latencies beyond the 90th percentile
SETUP_REPS = 3
CLI_REPS = 5  # interpreter and import timings of a traced run

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


class LineProcess:
    """A child process that answers each request line with one JSON line."""

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} ended with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> dict:
        reply = self.request("exit")
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return reply


class CliSession:
    """paper_cli: each operation is one ``python -m skewca.cli`` run."""

    def __init__(self, seed: int) -> None:
        self.spawner = LineProcess([sys.executable, str(HERE / "spawner.py")])
        self.work = RESULTS / f"work-{os.getpid()}"
        self.ops = workloads.paper_cli_ops(seed, ROOT / "data", self.work)
        self.warmup = workloads.warmup_indices(self.ops)

    def setup(self) -> float:
        """Import, writing the input files, and one warm-up of each command."""
        shutil.rmtree(self.work, ignore_errors=True)
        start = time.perf_counter()
        if self.spawner.request(json.dumps([sys.executable, "-c", "import skewca.cli"]))["code"]:
            raise RuntimeError("import skewca.cli failed")
        self.work.mkdir(parents=True)
        for name in DATA_FILES:
            shutil.copyfile(ROOT / "data" / name, self.work / name)
        for i in self.warmup:
            self.run(i, False)
        return time.perf_counter() - start

    def run(self, i: int, traced: bool):
        op = self.ops[i]
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        spans_path = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "skewca.cli", *op.argv]
        reply = self.spawner.request(json.dumps(argv))
        if reply["code"] != 0:
            return None, None, f"exit code {reply['code']}: {reply['stderr'][-2000:]}", []
        result = {"stdout": reply["stdout"]}
        for path in op.outputs:
            result[Path(path).name] = Path(path).read_text(encoding="utf-8")
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced else []
        return reply["seconds"], result, None, spans

    def close(self) -> float:
        shutil.rmtree(self.work, ignore_errors=True)
        return self.spawner.stop()["maxrss_kb"] / 1024.0


class WorkerSession:
    """large_tables and measure_screen: operations run in one worker.py process."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        make = {"large_tables": workloads.large_tables_ops, "measure_screen": workloads.measure_screen_ops}
        self.ops = make[workload](seed, smoke)
        self.argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(smoke))]
        self.worker: LineProcess | None = None

    def setup(self) -> float:
        """A fresh worker: interpreter, import, inputs, and one warm-up of each operation kind."""
        if self.worker is not None:
            self.worker.stop()
        start = time.perf_counter()
        self.worker = LineProcess(self.argv)
        ready = self.worker.read()
        elapsed = time.perf_counter() - start
        if ready.get("ops") != len(self.ops):
            raise RuntimeError(f"worker built {ready.get('ops')} operations, expected {len(self.ops)}")
        return elapsed

    def run(self, i: int, traced: bool):
        reply = self.worker.request(f"run {i} {int(traced)}")
        if "error" in reply:
            return None, None, reply["error"], []
        return reply["seconds"], reply["result"], None, reply["spans"]

    def close(self) -> float:
        return self.worker.stop()["maxrss_kb"] / 1024.0


def measure(session, seconds: float, trace: bool, smoke: bool) -> dict:
    """Whole passes until the next one would end after ``seconds`` (and at least MIN_OPS operations)."""
    passes: list[dict] = []
    attempted = failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        record = {"traced": trace and len(passes) % 2 == 1, "seconds": [], "spans": []}
        pass_start = time.perf_counter()
        for i, op in enumerate(session.ops):
            elapsed, result, error, spans = session.run(i, record["traced"])
            attempted += 1
            failures = [error] if error else checks.check_op(op, result)
            if failures:
                failed += 1
                wrong.append(f"{op.label}: " + "; ".join(failures[:3]))
                print(wrong[-1], file=sys.stderr)
            else:
                record["seconds"].append(elapsed)
            record["spans"].append(spans)
        passes.append(record)
        wall = time.perf_counter() - pass_start
        if smoke:
            if len(passes) >= (2 if trace else 1):
                break
            continue
        done = len(passes) * len(session.ops) >= MIN_OPS and (not trace or len(passes) >= 4)
        if done and time.perf_counter() - start + wall > seconds:
            break
    return {"passes": passes, "attempted": attempted, "failed": failed, "wrong": wrong}


def _quantiles(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(run: dict, setups: list[float], peak_rss_mb: float) -> dict:
    untraced = [p for p in run["passes"] if not p["traced"]]
    latencies = [s for p in untraced for s in p["seconds"]]
    p50, p90 = _quantiles(latencies)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(p["seconds"]) for p in untraced),
        "op_p50_ms": 1000.0 * p50,
        "op_p90_ms": 1000.0 * p90,
        "peak_rss_mb": peak_rss_mb,
    }


def _cli_timings() -> dict:
    """Median wall time of ``python -c pass`` and in-process time of ``import skewca.cli``."""
    interpreter, imports = [], []
    probe = "import time; t = time.perf_counter(); import skewca.cli; print(time.perf_counter() - t)"
    for _ in range(CLI_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=ENV, check=True)
        interpreter.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", probe], env=ENV, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return {"cli.interpreter_ms": 1000.0 * statistics.median(interpreter),
            "cli.import_ms": 1000.0 * statistics.median(imports)}


def per_layer(run: dict, names: list[str]) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    per_pass = []
    for record in traced:
        totals: dict[str, list] = {}
        for spans in record["spans"]:
            for name, (calls, self_s) in self_times(spans).items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        per_pass.append(totals)
    metrics = _cli_timings()
    traced_pass = statistics.median(sum(p["seconds"]) for p in traced)
    untraced_pass = statistics.median(sum(p["seconds"]) for p in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_pass / untraced_pass - 1.0)
    for name in names:
        if name in metrics:
            continue
        span, _, field = name.rpartition(".")
        index = 0 if field == "calls" else 1
        factor = 1 if field == "calls" else 1000.0
        metrics[name] = statistics.median(t.get(span, [0, 0.0])[index] * factor for t in per_pass)
    return metrics


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass, to test the benchmark")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "skewca" / "cli.py", ROOT / "data" / DATA_FILES[0])
               if not p.is_file()]
    if missing:
        print(f"error: not a skewca checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    if args.workload == "paper_cli":
        session = CliSession(args.seed)
    else:
        session = WorkerSession(args.workload, args.seed, args.smoke)
    setups = [session.setup() for _ in range(1 if args.smoke else SETUP_REPS)]
    run = measure(session, args.seconds, bool(args.trace), args.smoke)
    peak_rss_mb = session.close()

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(run, [m["name"] for m in listed])
    else:
        values = end_to_end(run, setups, peak_rss_mb)
    result = {
        "correct": not run["wrong"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "args": vars(args),
        "environment": environment(),
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb,
        "ops": [op.label for op in session.ops],
        "passes": run["passes"],
        "wrong": run["wrong"],
        "result": result,
    }
    smoke = "-smoke" if args.smoke else ""
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
