import collections
import gc
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COUNTS_PAST_DOUBLE_PRECISION, abc_table
from skewca import decomposition, divergence, reporting
from skewca.decomposition import METRICS
from skewca.errors import AnalysisError, InputError
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
from skewca.reporting import _json_text
from skewca.table import validate_table

_NEGATIVE_ZERO = re.compile(r"-0\.0+(?![0-9])")


def negative_zeros(text: str) -> list[str]:
    """Every negative zero a report text writes: -0.0 in JSON, -0.000000 in CSV."""
    return _NEGATIVE_ZERO.findall(text)


def test_resolve_lambda_named_values():
    assert resolve_lambda("hellinger") == -0.5
    assert resolve_lambda("kl") == 0.0
    assert resolve_lambda("cressie-read") == 2.0 / 3.0
    assert resolve_lambda("pearson") == 1.0
    assert resolve_lambda("0.25") == 0.25
    assert resolve_lambda(0.25) == 0.25
    with pytest.raises(InputError, match="unknown divergence 'nonsense'"):
        resolve_lambda("nonsense")


def test_config_checks_its_fields():
    assert AnalysisConfig(lam="kl").lam == 0.0
    assert AnalysisConfig(lam="0.25").lam == 0.25
    assert AnalysisConfig(alpha=sys.float_info.min).alpha == sys.float_info.min
    # numpy integers become ints, which the report writer takes
    assert list(map(type, AnalysisConfig(dims=(np.int64(2), np.int32(1))).dims)) == [int, int]
    for kwargs, message in (
        ({"alpha": 7.0, "metric": "identity"}, r"alpha must be a normal double in \(0, 1\), got 7.0"),
        ({"alpha": 0.0}, r"alpha must be a normal double in \(0, 1\), got 0.0"),
        ({"alpha": 1.0}, r"alpha must be a normal double in \(0, 1\), got 1.0"),
        ({"alpha": math.nan}, r"alpha must be a normal double in \(0, 1\), got nan"),
        ({"alpha": math.inf}, r"alpha must be a normal double in \(0, 1\), got inf"),
        ({"alpha": "0.1"}, r"alpha must be a normal double in \(0, 1\), got 0.1"),
        # a subnormal alpha has too few bits to define the quantile
        ({"alpha": 5e-324}, r"alpha must be a normal double in \(0, 1\), got 5e-324"),
        ({"alpha": 1e-315}, r"alpha must be a normal double in \(0, 1\), got 1e-315"),
        ({"metric": "weird"}, "metric must be averaged or identity, got 'weird'"),
        ({"output_format": "yaml"}, "format must be json or csv, got 'yaml'"),
        ({"plot_axes": "up"}, "axes must be rows, columns, or both, got 'up'"),
        ({"dims": (0, -3)}, r"plot dimensions must be two distinct integers >= 1, got \(0, -3\)"),
        ({"dims": (1, 1)}, r"plot dimensions must be two distinct integers >= 1, got \(1, 1\)"),
        ({"dims": (1.0, 2.0)}, r"plot dimensions must be two distinct integers >= 1, got \(1.0, 2.0\)"),
        ({"dims": (1, 2, 3)}, r"plot dimensions must be two distinct integers >= 1, got \(1, 2, 3\)"),
        ({"lam": -5.0}, "lam must be a finite number > -1, got -5.0"),
        ({"lam": "bogus"}, "unknown divergence 'bogus'"),
    ):
        with pytest.raises(InputError, match=message):
            AnalysisConfig(**kwargs)


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
    for counts in ([[1, 2, 3], [2, 5, 1], [3, 1, 4]], [[5, 3, 2], [3, 4, 1], [2, 1, 6]]):
        t = validate_table(["a", "b", "c"], counts)
        report = run_analyze(AnalysisConfig(lam=0.5), t)
        assert report.asymmetry["phi_total"] == 0.0
        assert report.regions is None
        assert any("fully symmetric" in w for w in report.warnings)
        assert report.decomposition["fully_symmetric"] is True
        # a negative vector entry times a zero value must not print as -0.0
        assert not negative_zeros(report.to_json())


def test_analyze_writes_no_negative_zero():
    tables = (
        # Householder QR leaves signed zeros in the left vectors of this one
        [[5, 4, 2, 2], [1, 5, 2, 2], [2, 2, 5, 2], [2, 2, 2, 5]],
        # a negative left entry under a zero singular value, times it, is -0.0 in the rows
        [[5, 4, 3, 2], [1, 5, 2, 2], [1, 2, 5, 2], [2, 2, 2, 5]],
    )
    for counts in tables:
        for metric in METRICS:
            # lam = -0.0 is the KL case, which the config and the measure record as 0.0
            for lam in (1.0, -0.0):
                config = AnalysisConfig(lam=lam, metric=metric)
                report = run_analyze(config, validate_table(list("abcd"), counts))
                assert not negative_zeros(report.to_json()), (counts, metric, lam)


def test_reports_write_no_negative_zero_in_either_format(coffee, opinions):
    reports = (
        run_analyze(AnalysisConfig(), coffee),
        run_matched(AnalysisConfig(metric="identity"), *opinions),
    )
    for report in reports:
        # noise-level negatives such as -1e-17 must not print as -0.000000 in the CSV
        for text in (report.to_json(), report.to_csv()):
            assert not negative_zeros(text), report.command
    # a negative value that starts with -0.0 is not a negative zero
    assert negative_zeros("-0.0,-0.000000,-0.0134,-0.00") == ["-0.0", "-0.000000", "-0.00"]


def test_analyze_2x2_skips_regions():
    t = validate_table(["a", "b"], [[0, 3], [1, 0]])
    report = run_analyze(AnalysisConfig(lam=1.0), t)
    assert report.regions is None
    assert any("2x2" in w for w in report.warnings)


def test_analyze_identity_metric_skips_regions(coffee):
    report = run_analyze(AnalysisConfig(lam=1.0, metric="identity"), coffee)
    assert report.regions is None
    assert any("identity" in w for w in report.warnings)


def test_skipped_regions_give_the_reason_of_confidence_regions(coffee):
    symmetric = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 5, 1], [3, 1, 4]])
    for config, table, reason in (
        (AnalysisConfig(), symmetric, "zero asymmetry measure"),
        (AnalysisConfig(), validate_table(["a", "b"], [[0, 1], [1, 0]]), "zero asymmetry measure"),
        (AnalysisConfig(), validate_table(["a", "b"], [[0, 3], [1, 0]]), "undefined for 2x2 tables"),
        (AnalysisConfig(metric="identity"), coffee, "identity metric"),
    ):
        report = run_analyze(config, table)
        assert report.regions is None
        assert report.warnings[-1] == f"confidence regions skipped: {reason}"


def test_analyze_diagonal_table_aborts():
    t = validate_table(["a", "b"], [[5, 0], [0, 5]])
    with pytest.raises(AnalysisError, match="all mass on the diagonal: asymmetry is undefined"):
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


def test_csv_layout_is_pinned():
    # the whole CSV of each command: two zero-pair warnings and regions in analyze,
    # every matched record, and no value at the noise level, so no BLAS rounding shows
    counts = [[0, 3, 0], [1, 0, 0], [0, 0, 1]]
    t = validate_table(list("abc"), counts)
    reports = {
        "analyze": run_analyze(AnalysisConfig(lam=1.0), t),
        "matched": run_matched(AnalysisConfig(lam=1.0, metric="averaged"), t, validate_table(list("abc"), np.transpose(counts))),
        "bowker": run_bowker(AnalysisConfig(), t),
        "scan": run_scan(AnalysisConfig(), t, grid=[0.0, 0.5, 1.0]),
    }
    for name, report in reports.items():
        expected = (Path(__file__).parent / "csv_layout" / f"{name}.csv").read_text(encoding="utf-8")
        assert report.to_csv() == expected, name


def test_render_report_dispatch(coffee):
    report = run_bowker(AnalysisConfig(), coffee)
    assert render_report(report, "json").startswith("{")
    assert render_report(report, "csv").startswith("record,")
    with pytest.raises(InputError, match="unknown output format 'yaml'"):
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
    with pytest.raises(InputError, match=r"dimension 9 out of range 1\.\.4"):
        run_analyze(config, coffee)
    # dims that no table has are rejected when the config is built
    with pytest.raises(InputError, match=r"plot dimensions must be two distinct integers >= 1, got \(2, 2\)"):
        AnalysisConfig(lam=1.0, svg_path="unused.svg", dims=(2, 2))


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


def test_matched_report_on_two_symmetric_tables(tmp_path):
    # the block inertia is 0, so every share is 0, as in decompose, instead of a division
    symmetric = validate_table(list("abc"), [[5, 3, 2], [3, 4, 1], [2, 1, 6]])
    config = AnalysisConfig(metric="averaged", svg_path=str(tmp_path / "m.svg"))
    report = run_matched(config, symmetric, symmetric)
    assert report.matched["block_total_inertia"] == 0.0
    # a negative vector entry times a zero value must not print as -0.0, nor lam = -0.0
    assert not negative_zeros(report.to_json())
    assert not negative_zeros(run_matched(AnalysisConfig(lam=-0.0, metric="averaged"), symmetric, symmetric).to_json())
    assert report.warnings == ["both tables are fully symmetric: all coordinates sit at the origin"]
    for component in ("sum", "difference"):
        svg = (tmp_path / f"m_{component}.svg").read_text(encoding="utf-8")
        assert f"{component} axis 1 (0.00%)" in svg and f"{component} axis 2 (0.00%)" in svg


def test_matched_csv(opinions):
    t1, t2 = opinions
    size = t1.size
    text = run_matched(AnalysisConfig(lam=1.0, metric="identity"), t1, t2).to_csv()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    records = collections.Counter(row[0] for row in rows)
    assert records["block_singular_value"] == 2 * size
    assert records["dimension_class"] == 2 * size
    # each component: R dimensions for every label on the row and the column axis
    assert records["sum_coordinate"] == records["difference_coordinate"] == 2 * size * size
    classes = [row[4] for row in rows if row[0] == "dimension_class"]
    assert sorted(classes) == ["difference"] * size + ["sum"] * size
    labels = [row[2] for row in rows if row[0] == "sum_coordinate" and row[1] == "column"]
    assert labels == [label for label in t1.labels for _ in range(size)]


def test_bowker_report(coffee):
    report = run_bowker(AnalysisConfig(), coffee)
    assert report.command == "bowker"
    assert report.bowker["statistic"] == pytest.approx(20.41235813366961)
    assert report.asymmetry is None


def test_scan_report(coffee, opinions):
    report = run_scan(AnalysisConfig(), coffee, grid=[0.0, 0.5, 1.0])
    assert report.command == "scan"
    assert len(report.scan["grid"]) == 3
    assert report.scan["best_lambda"] in (0.0, 0.5, 1.0)
    text = report.to_csv()
    assert "scan_point" in text
    # a grid point of -0.0 is written as 0.0, and its CSV key as 0.00; the adults peak there
    report = run_scan(AnalysisConfig(), opinions[1], grid=[-0.0, 3.0])
    assert not negative_zeros(report.to_json())
    assert report.scan["grid"] == [0.0, 3.0] and report.scan["best_lambda"] == 0.0
    assert "scan_point,,,0.00," in report.to_csv() and ",-0.00," not in report.to_csv()


# ------------------------------------------------------------ JSON writer

SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, 1.7976931348623157e308)
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def float_lists(draw, size=None):
    """Floats drawn from a few magnitudes with random signs, so values repeat and negate."""
    pool = draw(st.lists(finite_floats, min_size=1, max_size=5))
    signed = st.builds(lambda m, neg: -m if neg else m, st.sampled_from(pool), st.booleans())
    if size is None:
        return draw(st.lists(signed, max_size=8))
    return draw(st.lists(signed, min_size=size, max_size=size))


matrices = st.integers(1, 4).flatmap(lambda n: st.lists(float_lists(size=n), min_size=1, max_size=4))
leaves = st.one_of(
    finite_floats,
    finite_floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["é", "Größe", "日本", "a\"b\\c\n", "\u2028"]),
    float_lists(),
    matrices,
    st.lists(st.one_of(st.integers(-5, 5), finite_floats), max_size=5),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_writer_matches_json_dumps(value):
    oracle = json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert _json_text(value) == oracle


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_rejects_non_finite_floats(bad):
    for value in (bad, np.float64(bad), [1.0, bad], [1, bad], {"a": [[0.5], [bad]]}):
        with pytest.raises(ValueError):
            json.dumps(value, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text(value)


def test_writer_rejects_unserializable_values():
    for value in ({"a": object()}, [np.int64(3)], {1.5, 2.5}):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            _json_text(value)
    # json.dumps would write the key 3 as "3"; report keys are always strings
    with pytest.raises(TypeError):
        _json_text({"a": {3: 1.0}})


def test_to_json_leaves_no_reference_cycle(rng):
    labels = [f"c{i}" for i in range(40)]
    report = run_analyze(AnalysisConfig(), validate_table(labels, rng.integers(0, 50, (40, 40))))
    gc.collect()
    gc.disable()
    try:
        report.to_json()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_analyze_reads_the_sign_of_pairs_past_double_precision():
    t = abc_table(COUNTS_PAST_DOUBLE_PRECISION)
    report = run_analyze(AnalysisConfig(lam=1.0), t)
    values = np.array(report.decomposition["singular_values"])
    phi = report.asymmetry["phi_total"]
    assert values[0] > 0.0
    assert float(np.sum(values**2)) == pytest.approx(phi, rel=1e-12, abs=0.0)
    leading = sum(report.decomposition["contributions"][:2])
    scanned = decomposition.scan_lambda(t, [1.0]).contributions[0]
    assert leading == pytest.approx(scanned, rel=1e-12, abs=0.0)
    assert not any("confidence regions skipped" in w for w in report.warnings)
