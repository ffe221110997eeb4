import json

import numpy as np
import pytest

from skewca import decomposition, divergence, reporting
from skewca.errors import DegenerateTableError, DimensionOutOfRangeError, InputError
from skewca.reporting import (
    AnalysisConfig,
    AnalysisReport,
    render_report,
    resolve_lambda,
    run_analyze,
    run_bowker,
    run_matched,
    run_scan,
)
from skewca.table import validate_table


def test_resolve_lambda_named_values():
    assert resolve_lambda("hellinger") == -0.5
    assert resolve_lambda("kl") == 0.0
    assert resolve_lambda("cressie-read") == 2.0 / 3.0
    assert resolve_lambda("pearson") == 1.0
    assert resolve_lambda("0.25") == 0.25
    assert resolve_lambda(0.25) == 0.25
    with pytest.raises(InputError):
        resolve_lambda("nonsense")


def test_analyze_coffee_regions_exclude_origin(coffee):
    report = run_analyze(AnalysisConfig(lam=1.0, alpha=0.05), coffee)
    assert report.regions is not None
    assert all(not r["contains_origin"] for r in report.regions)
    assert report.bowker["dof"] == 10
    assert report.table["n"] == 541


def test_analyze_computes_the_measure_once(coffee, monkeypatch):
    calls = []

    def counted(p, lam):
        calls.append(lam)
        return divergence.asymmetry_measure(p, lam)

    for module in (reporting, decomposition):
        monkeypatch.setattr(module, "asymmetry_measure", counted)
    report = run_analyze(AnalysisConfig(lam=0.5), coffee)
    assert calls == [0.5]
    assert report.decomposition["total_inertia"] == pytest.approx(
        report.asymmetry["phi_total"], abs=1e-14
    )


def test_analyze_symmetric_table_warns_and_skips_regions():
    t = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 5, 1], [3, 1, 4]])
    report = run_analyze(AnalysisConfig(lam=0.5), t)
    assert report.asymmetry["phi_total"] == 0.0
    assert report.regions is None
    assert any("fully symmetric" in w for w in report.warnings)
    assert report.decomposition["fully_symmetric"] is True


def test_analyze_2x2_skips_regions():
    t = validate_table(["a", "b"], [[0, 3], [1, 0]])
    report = run_analyze(AnalysisConfig(lam=1.0), t)
    assert report.regions is None
    assert any("2x2" in w for w in report.warnings)


def test_analyze_identity_metric_skips_regions(coffee):
    report = run_analyze(AnalysisConfig(lam=1.0, metric="identity"), coffee)
    assert report.regions is None
    assert any("identity" in w for w in report.warnings)


def test_analyze_diagonal_table_aborts():
    t = validate_table(["a", "b"], [[5, 0], [0, 5]])
    with pytest.raises(DegenerateTableError):
        run_analyze(AnalysisConfig(lam=1.0), t)


def test_report_json_round_trip(coffee):
    report = run_analyze(AnalysisConfig(lam=0.0), coffee)
    text = report.to_json()
    again = AnalysisReport.from_json(text)
    assert again.to_dict() == report.to_dict()
    assert again.to_json() == text
    # numeric fields survive exactly
    assert again.asymmetry["phi_total"] == report.asymmetry["phi_total"]
    assert again.decomposition["singular_values"] == report.decomposition["singular_values"]


def test_report_inertia_identity(coffee):
    report = run_analyze(AnalysisConfig(lam=0.0), coffee)
    mu2 = sum(v**2 for v in report.decomposition["singular_values"])
    assert abs(mu2 - report.asymmetry["phi_total"]) < 1e-10


def test_zero_pair_warning():
    t = validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 1]])
    report = run_analyze(AnalysisConfig(lam=1.0), t)
    assert any("both empty" in w for w in report.warnings)


def test_csv_rendering(coffee):
    report = run_analyze(AnalysisConfig(lam=1.0), coffee)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "record,axis,label,key,value"
    assert any(line.startswith("bowker,,,statistic,20.412358") for line in lines)
    assert any(line.startswith("coordinate,row,HP,1,") for line in lines)
    assert any(line.startswith("region,row,BR,contains_origin,false") for line in lines)
    # six-decimal rounding
    for line in lines:
        if line.startswith("singular_value"):
            value = line.rsplit(",", 1)[1]
            assert len(value.split(".")[1]) == 6


def test_render_report_dispatch(coffee):
    report = run_bowker(AnalysisConfig(), coffee)
    assert render_report(report, "json").startswith("{")
    assert render_report(report, "csv").startswith("record,")
    with pytest.raises(InputError):
        render_report(report, "yaml")


def test_svg_written(tmp_path, coffee):
    svg_path = tmp_path / "plot.svg"
    config = AnalysisConfig(lam=1.0, svg_path=str(svg_path))
    run_analyze(config, coffee)
    body = svg_path.read_text(encoding="utf-8")
    assert body.startswith("<?xml")
    assert "principal axis 1" in body
    for label in coffee.labels:
        assert f">{label}</text>" in body


def test_svg_coffee_point_nearest_crosshair_is_br(tmp_path, coffee):
    svg_path = tmp_path / "coffee.svg"
    run_analyze(AnalysisConfig(lam=1.0, svg_path=str(svg_path)), coffee)
    body = svg_path.read_text(encoding="utf-8")
    centers = []
    for line in body.splitlines():
        if line.startswith("<circle") and 'fill="black"' in line:
            cx = float(line.split('cx="')[1].split('"')[0])
            cy = float(line.split('cy="')[1].split('"')[0])
            centers.append((cx, cy))
    assert len(centers) == 5
    distances = [((cx - 400.0) ** 2 + (cy - 400.0) ** 2) ** 0.5 for cx, cy in centers]
    assert coffee.labels[distances.index(min(distances))] == "BR"


def test_svg_dims_validation(coffee):
    config = AnalysisConfig(lam=1.0, svg_path="unused.svg", dims=(1, 9))
    with pytest.raises(DimensionOutOfRangeError):
        run_analyze(config, coffee)
    config = AnalysisConfig(lam=1.0, svg_path="unused.svg", dims=(2, 2))
    with pytest.raises(DimensionOutOfRangeError):
        run_analyze(config, coffee)


def test_matched_report(opinions, tmp_path):
    t1, t2 = opinions
    svg_path = tmp_path / "m.svg"
    config = AnalysisConfig(lam=1.0, metric="identity", svg_path=str(svg_path))
    report = run_matched(config, t1, t2)
    assert report.matched["metric"] == "identity"
    tags = [c["component"] for c in report.matched["dimension_classes"]]
    assert tags.count("sum") == 4 and tags.count("difference") == 4
    # block values equal the union of the component values
    union = sorted(
        report.matched["sum_singular_values"] + report.matched["difference_singular_values"]
    )
    assert np.allclose(sorted(report.matched["block_singular_values"]), union, atol=1e-9)
    assert (tmp_path / "m_sum.svg").exists()
    assert (tmp_path / "m_difference.svg").exists()
    again = AnalysisReport.from_json(report.to_json())
    assert again.to_dict() == report.to_dict()


def test_bowker_report(coffee):
    report = run_bowker(AnalysisConfig(), coffee)
    assert report.command == "bowker"
    assert report.bowker["statistic"] == pytest.approx(20.41235813366961)
    assert report.asymmetry is None


def test_scan_report(coffee):
    report = run_scan(AnalysisConfig(), coffee, grid=[0.0, 0.5, 1.0])
    assert report.command == "scan"
    assert len(report.scan["grid"]) == 3
    assert report.scan["best_lambda"] in (0.0, 0.5, 1.0)
    text = report.to_csv()
    assert "scan_point" in text
