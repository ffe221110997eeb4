"""Tests of the benchmark itself: each check accepts skewca's real outputs
and rejects a slightly perturbed one, and every workload runs end to end
in smoke mode.

Run from the repository root: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from skewca.divergence import asymmetry_measure, bowker_statistic, power_divergence_statistic  # noqa: E402
from skewca.reporting import AnalysisConfig, run_analyze, run_matched, run_scan  # noqa: E402
from skewca.table import to_probabilities, validate_table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COFFEE = workloads.read_csv_table(ROOT / "data" / "coffee.csv")
TEENS = workloads.read_csv_table(ROOT / "data" / "opinions_teens.csv")
ADULTS = workloads.read_csv_table(ROOT / "data" / "opinions_adults.csv")


def _table(spec):
    return validate_table(spec.labels, spec.counts)


def _analyze(spec, lam=1.0):
    return json.loads(run_analyze(AnalysisConfig(lam=lam), _table(spec)).to_json())


def _tables():
    rng = np.random.default_rng(7)
    return [COFFEE] + [workloads.make_table(rng, kind, size)
                       for kind, size in (("dense", 8), ("sparse", 8), ("odd", 7), ("cyclic", 8))]


@pytest.mark.parametrize("lam", list(workloads.LAMBDAS.values()))
def test_analyze_check_accepts_program_output(lam):
    for spec in _tables():
        report = _analyze(spec, lam)
        scaled = asymmetry_measure(to_probabilities(_table(spec).scaled(3)), lam).phi_total
        assert checks.check_analyze(report, spec.counts, lam, phi_scaled=scaled) == [], spec.kind


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda r: r["asymmetry"].__setitem__("phi_total", r["asymmetry"]["phi_total"] + 1e-9), "Phi: "),
        (lambda r: r["bowker"].__setitem__("statistic", r["bowker"]["statistic"] * (1 + 1e-9)),
         "bowker statistic"),
        (lambda r: r["bowker"].__setitem__("p_value", r["bowker"]["p_value"] + 1e-6), "p-value"),
        (lambda r: r["decomposition"]["contributions"].__setitem__(
            1, r["decomposition"]["contributions"][1] + 1e-6), "contributions"),
        (lambda r: r["regions"][3].__setitem__("radius_x", r["regions"][3]["radius_x"] * (1 + 1e-6)),
         "radius_x"),
        (lambda r: r["coordinates"]["rows"][2].__setitem__(0, r["coordinates"]["rows"][2][0] + 1e-6),
         "row coordinates"),
    ],
)
def test_analyze_check_rejects_perturbation(perturb, message):
    report = _analyze(COFFEE)
    perturb(report)
    failures = checks.check_analyze(report, COFFEE.counts, 1.0)
    assert any(message in f for f in failures), failures


def test_swapped_singular_pair_is_rejected():
    report = _analyze(COFFEE)
    values = report["decomposition"]["singular_values"]
    values[0:2], values[2:4] = values[2:4], values[0:2]
    assert any("singular values" in f for f in checks.check_analyze(report, COFFEE.counts, 1.0))


def test_split_pair_is_rejected():
    report = _analyze(COFFEE)
    report["decomposition"]["singular_values"][1] *= 1 + 1e-9
    assert any("pairs" in f for f in checks.check_analyze(report, COFFEE.counts, 1.0))


def test_scaled_phi_mismatch_is_rejected():
    report = _analyze(COFFEE)
    failures = checks.check_analyze(report, COFFEE.counts, 1.0,
                                    phi_scaled=report["asymmetry"]["phi_total"] + 1e-10)
    assert any("scaled" in f for f in failures)


def _screen(spec):
    table = _table(spec)
    p = to_probabilities(table)
    lambdas = tuple(workloads.LAMBDAS.values())
    test = bowker_statistic(table)
    return {
        "labels": [f"c{i:03d}" for i in range(spec.size)],
        "n": table.n,
        "bowker": [test.statistic, test.dof, test.p_value],
        "phi": [asymmetry_measure(p, lam).phi_total for lam in lambdas],
        "statistic": [power_divergence_statistic(table, lam) for lam in lambdas],
        "phi_scaled": asymmetry_measure(to_probabilities(table.scaled(2)), 0.0).phi_total,
    }


def test_screen_check():
    spec = workloads.make_table(np.random.default_rng(3), "sparse", 12)
    lambdas = tuple(workloads.LAMBDAS.values())
    result = _screen(spec)
    assert checks.check_screen(result, spec.counts, lambdas, 0.0) == []
    for key, index, factor, message in (
        ("statistic", 3, 1 + 1e-8, "lambda = 1 statistic vs Bowker"),
        ("phi", 1, 1 + 1e-8, "Phi at lambda 0"),
        ("phi_scaled", None, 1 + 1e-9, "scaled"),
    ):
        bad = copy.deepcopy(result)
        if index is None:
            bad[key] *= factor
        else:
            bad[key][index] *= factor
        assert any(message in f for f in checks.check_screen(bad, spec.counts, lambdas, 0.0)), key


def test_matched_check():
    rng = np.random.default_rng(5)
    first, second = (workloads.make_table(rng, "dense", 6) for _ in range(2))
    for a, b, metric in ((first, second, "identity"), (TEENS, ADULTS, "identity"),
                         (first, second, "averaged")):
        report = json.loads(run_matched(AnalysisConfig(metric=metric), _table(a), _table(b)).to_json())
        assert checks.check_matched(report, a.counts, b.counts, 1.0, metric) == []
    m = report["matched"]
    swapped = copy.deepcopy(report)
    swapped["matched"]["sum_singular_values"] = m["difference_singular_values"]
    assert any("sum singular values" in f for f in
               checks.check_matched(swapped, first.counts, second.counts, 1.0, "averaged"))
    scaled = copy.deepcopy(report)
    scaled["matched"]["sum_rows"] = (np.asarray(m["sum_rows"]) * 1.001).tolist()
    assert any("energy" in f for f in
               checks.check_matched(scaled, first.counts, second.counts, 1.0, "averaged"))


def test_scan_check():
    report = json.loads(run_scan(AnalysisConfig(), _table(COFFEE)).to_json())
    assert checks.check_scan(report, COFFEE.counts) == []
    moved = copy.deepcopy(report)
    grid = moved["scan"]["grid"]
    moved["scan"]["best_lambda"] = grid[grid.index(report["scan"]["best_lambda"]) + 1]
    assert any("first argmax" in f for f in checks.check_scan(moved, COFFEE.counts))


def test_svg_and_csv_checks(tmp_path):
    svg = tmp_path / "plot.svg"
    run_analyze(AnalysisConfig(svg_path=str(svg)), _table(COFFEE))
    text = svg.read_text(encoding="utf-8")
    assert checks.check_svg(text, points=5, circles=5) == []
    assert any("parse" in f for f in checks.check_svg(text.replace("</svg>", ""), 5, 5))
    assert any("points" in f for f in checks.check_svg(text, 6, 5))
    report = run_analyze(AnalysisConfig(lam=0.0), _table(COFFEE))
    assert checks.check_csv_report(report.to_csv(), report.to_json(), COFFEE.counts, 0.0) == []
    assert checks.check_csv_report(report.to_csv(), report.to_json(), COFFEE.counts, 1.0) != []


def test_errors_and_wrong_outputs_count_as_failed_and_incorrect(monkeypatch):
    import run

    class Session:
        ops = [workloads.Op(label="raises", kind="screen"), workloads.Op(label="wrong", kind="screen"),
               workloads.Op(label="right", kind="screen")]

        def run(self, i, traced):
            if i == 0:
                return None, None, "Traceback: boom", []
            return 0.001, {"ok": i == 2}, None, []

    monkeypatch.setattr(run.checks, "check_op", lambda op, result: [] if result["ok"] else ["bad"])
    outcome = run.measure(Session(), seconds=0.0, trace=False, smoke=True)
    assert (outcome["attempted"], outcome["failed"]) == (3, 2)
    assert outcome["wrong"] == ["raises: Traceback: boom", "wrong: bad"]
    assert outcome["passes"][0]["seconds"] == [0.001]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--seed", "1", "--seconds", "1",
         *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, svd_calls", [("large_tables", True), ("measure_screen", False)])
def test_smoke_trace(workload, svd_calls):
    proc = _bench("--workload", workload, "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert (metrics["decomposition.paired_svd.calls"]["value"] > 0) == svd_calls
    assert metrics["divergence.asymmetry_measure.calls"]["value"] > 0
    called = "reporting.run_analyze.ms" if svd_calls else "tableio.parse_table_csv.ms"
    assert metrics[called]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_cli", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
