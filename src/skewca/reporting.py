"""Analysis configuration, report assembly, and serialization."""

from __future__ import annotations

import csv
import io
import json
import numbers
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from .confidence import ConfidenceRegion, confidence_regions
from .decomposition import (
    METRICS,
    _shares,
    decompose,
    origin_distances,
    scan_lambda,
    skew_from_profile,
)
from .divergence import NAMED_DIVERGENCES, asymmetry_measure, bowker_statistic, require_lambda
from .errors import AnalysisError, InputError
from .matched import build_matched
from .svg import render_svg_plot
from .table import ContingencyTable

OUTPUT_FORMATS = ("json", "csv")
PLOT_AXES = ("rows", "columns", "both")


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by the analysis commands.

    ``lam`` accepts a float or one of the named divergences
    (hellinger, kl, cressie-read, pearson), resolved to its float when the
    config is built. Building a config also checks that ``alpha`` is a
    normal double in (0, 1), that ``dims`` are two distinct integers >= 1 (their
    upper bound depends on the table), and that ``metric``,
    ``output_format`` and ``plot_axes`` are among their choices. ``metric``
    None means the command's own default: averaged for ``run_analyze``,
    identity for ``run_matched``; each records the metric it used.
    """

    lam: float = 1.0
    alpha: float = 0.05
    metric: str | None = None
    output_format: str = "json"
    svg_path: str | None = None
    dims: tuple[int, int] = (1, 2)
    plot_axes: str = "rows"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", resolve_lambda(self.lam))
        if not (isinstance(self.alpha, numbers.Real) and sys.float_info.min <= self.alpha < 1.0):
            raise InputError(f"alpha must be a normal double in (0, 1), got {self.alpha}")
        if len(self.dims) != 2 or self.dims[0] == self.dims[1] or not all(
            isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 1 for d in self.dims
        ):
            raise InputError(
                f"plot dimensions must be two distinct integers >= 1, got {self.dims}"
            )
        object.__setattr__(self, "dims", (int(self.dims[0]), int(self.dims[1])))
        if self.plot_axes not in PLOT_AXES:
            raise InputError(
                f"axes must be rows, columns, or both, got {self.plot_axes!r}"
            )
        if self.metric is not None and self.metric not in METRICS:
            raise InputError(f"metric must be averaged or identity, got {self.metric!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InputError(f"format must be json or csv, got {self.output_format!r}")


def resolve_lambda(value: str | float) -> float:
    """Map a named divergence or numeric literal to its lam value."""
    if isinstance(value, str):
        key = value.strip().lower()
        if key in NAMED_DIVERGENCES:
            return NAMED_DIVERGENCES[key]
        try:
            value = float(key)
        except ValueError:
            raise InputError(
                f"unknown divergence {value!r}: expected a number or one of "
                f"{sorted(NAMED_DIVERGENCES)}"
            ) from None
    return require_lambda(value)


@dataclass(frozen=True)
class AnalysisReport:
    """Machine-readable result of one analysis run.

    ``to_json`` writes one line of JSON with sorted keys, from the standard
    library's encoder, and ``json.loads`` reads every numeric field back
    exactly. ``to_csv`` renders a long-format table rounded to six decimals.
    """

    command: str
    table: dict
    config: dict
    bowker: dict | None = None
    asymmetry: dict | None = None
    decomposition: dict | None = None
    coordinates: dict | None = None
    regions: list | None = None
    matched: dict | None = None
    scan: dict | None = None
    warnings: list = ()
    schema_version: ClassVar[int] = 1

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["warnings"] = list(self.warnings)
        data["schema_version"] = self.schema_version
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["record", "axis", "label", "key", "value"])

        def emit(record: str, axis: str, label: str, key: Any, value: Any) -> None:
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, float):
                # a noise-level negative rounds to -0.000000, written as zero
                value = f"{value:.6f}".replace("-0.000000", "0.000000")
            writer.writerow([record, axis, label, key, value])

        def numbered(record: str, values) -> None:
            for m, value in enumerate(values, start=1):
                emit(record, "", "", m, value)

        def per_label(record: str, axis: str, matrix) -> None:
            for label, row in zip(labels, matrix):
                for m, value in enumerate(row, start=1):
                    emit(record, axis, label, m, value)

        labels = self.table["labels"]
        emit("meta", "", "", "schema_version", self.schema_version)
        emit("meta", "", "", "command", self.command)
        for key, value in self.table.items():
            if key == "labels":
                for i, lab in enumerate(value, start=1):
                    emit("table", "", lab, "label_order", i)
            elif isinstance(value, list):  # matched's n: one row per table
                for m, count in enumerate(value, start=1):
                    emit("table", "", "", f"{key}_{m}", count)
            else:
                emit("table", "", "", key, value)
        for section_name, section in (("bowker", self.bowker), ("asymmetry", self.asymmetry)):
            if not section:
                continue
            for key, value in section.items():
                if isinstance(value, (list, tuple)):
                    continue
                emit(section_name, "", "", key, value)
        if self.asymmetry:
            cells = self.asymmetry["phi_cells"]
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    emit("phi_cell", "", f"{labels[i]}|{labels[j]}", "", cells[i][j])
        if self.decomposition:
            for key in ("metric", "total_inertia", "fully_symmetric"):
                emit("decomposition", "", "", key, self.decomposition[key])
            numbered("singular_value", self.decomposition["singular_values"])
            numbered("contribution", self.decomposition["contributions"])
        if self.coordinates:
            for axis, key in (("row", "rows"), ("column", "columns")):
                per_label("coordinate", axis, self.coordinates[key])
                for label, value in zip(labels, self.coordinates[f"{key[:-1]}_origin_distances"]):
                    emit("origin_distance", axis, label, "", value)
        for region in self.regions or ():
            for key in ("center_x", "center_y", "radius_x", "radius_y", "contains_origin"):
                emit("region", region["axis"], region["label"], key, region[key])
        if self.matched:
            numbered("block_singular_value", self.matched["block_singular_values"])
            numbered("dimension_class", [cls["component"] for cls in self.matched["dimension_classes"]])
            for component in ("sum", "difference"):
                for axis, key in (("row", "rows"), ("column", "cols")):
                    per_label(f"{component}_coordinate", axis, self.matched[f"{component}_{key}"])
        if self.scan:
            emit("scan", "", "", "best_lambda", self.scan["best_lambda"])
            emit("scan", "", "", "best_contribution", self.scan["best_contribution"])
            for lam, contrib in zip(self.scan["grid"], self.scan["contributions"]):
                # two decimals where they name the grid point exactly, its repr where they do not
                key = f"{lam:.2f}"
                emit("scan_point", "", "", key if float(key) == lam else repr(lam), contrib)
        numbered("warning", self.warnings)
        return out.getvalue()


def _floats(arr) -> list:
    """The report's float list, or list of lists; "+ 0.0" writes a zero of either sign as +0.0."""
    return (np.asarray(arr, dtype=float) + 0.0).tolist()


def _region_dict(region: ConfidenceRegion, alpha: float) -> dict:
    return {
        "index": region.index,
        "label": region.label,
        "axis": region.axis,
        "center_x": region.center[0] + 0.0,
        "center_y": region.center[1] + 0.0,
        "radius_x": region.radius,
        "radius_y": region.radius,
        "alpha": alpha,
        "contains_origin": region.contains_origin,
    }


def _table_dict(table: ContingencyTable) -> dict:
    return {"labels": list(table.labels), "n": table.n, "size": table.size}


def _bowker_dict(table: ContingencyTable) -> dict:
    bowker = bowker_statistic(table)
    return {"statistic": bowker.statistic, "dof": bowker.dof, "p_value": bowker.p_value}


def _config_dict(config: AnalysisConfig) -> dict:
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    data["lambda"] = float(data.pop("lam"))
    data["alpha"] = float(data["alpha"])
    data["dims"] = list(data["dims"])
    return data


def _plot_svg(
    labels: tuple[str, ...],
    rows: np.ndarray,
    cols: np.ndarray,
    pct,
    name: str,
    config: AnalysisConfig,
    regions: list[ConfidenceRegion] | None = None,
) -> str:
    """Row and/or column points on ``config.dims``, each axis captioned with its share.

    Circles are drawn around the plotted points only on dims 1-2.
    """
    d1, d2 = config.dims
    for d in config.dims:
        if d > rows.shape[1]:
            raise InputError(f"dimension {d} out of range 1..{rows.shape[1]}")
    shown = [
        (axis, coords, suffix)
        for axis, coords, suffix in (("row", rows, ""), ("column", cols, "'"))
        if config.plot_axes in (axis + "s", "both")
    ]
    points = [
        (label + suffix, float(coords[i, d1 - 1]), float(coords[i, d2 - 1]))
        for _, coords, suffix in shown
        for i, label in enumerate(labels)
    ]
    on_plane = regions if regions and (d1, d2) == (1, 2) else ()
    circles = [
        (region.center[0], region.center[1], region.radius)
        for axis, _, _ in shown
        for region in on_plane
        if region.axis == axis
    ]
    captions = tuple(f"{name} axis {d} ({float(pct[d - 1]):.2f}%)" for d in (d1, d2))
    return render_svg_plot(points, circles, captions)


def run_analyze(config: AnalysisConfig, table: ContingencyTable) -> AnalysisReport:
    """Full single-table pipeline: test, measure, decomposition, regions.

    Every ``AnalysisError`` of ``confidence_regions`` is a reason the circles
    are undefined: a fully symmetric table, a 2x2 table, or the identity
    metric. The circles are then skipped with a warning; any other error
    aborts the whole report.
    """
    config = replace(config, metric=config.metric or "averaged")
    warnings: list[str] = []
    bowker = _bowker_dict(table)
    profile = asymmetry_measure(table, config.lam)
    dec = decompose(skew_from_profile(table, profile), table, config.metric)
    distances = _floats(origin_distances(dec))

    for i, j in profile.zero_pair_cells:
        warnings.append(
            f"cells ({table.labels[i]}, {table.labels[j]}) and "
            f"({table.labels[j]}, {table.labels[i]}) are both empty; "
            "their departure is taken as 0"
        )
    if dec.fully_symmetric:
        warnings.append("table is fully symmetric: all coordinates sit at the origin")
    regions: list[ConfidenceRegion] | None = None
    try:
        regions = confidence_regions(dec, table, profile, config.alpha)
    except AnalysisError as exc:
        warnings.append(f"confidence regions skipped: {exc}")

    report = AnalysisReport(
        command="analyze",
        table=_table_dict(table),
        config=_config_dict(config),
        bowker=bowker,
        asymmetry={
            "lambda": profile.lam,
            "delta": table.delta,
            "phi_total": profile.phi_total,
            "phi_cells": _floats(profile.phi_cells),
            "zero_pair_cells": [list(pair) for pair in profile.zero_pair_cells],
        },
        decomposition={
            "metric": dec.metric,
            "singular_values": _floats(dec.singular_values),
            "contributions": _floats(dec.contributions),
            "total_inertia": dec.total_inertia,
            "fully_symmetric": dec.fully_symmetric,
            "metric_weights": _floats(dec.metric_weights),
            "left_vectors": _floats(dec.left_vectors),
            "right_vectors": _floats(dec.right_vectors),
        },
        coordinates={
            "rows": _floats(dec.row_coords),
            "columns": _floats(dec.col_coords),
            "row_origin_distances": distances,
            "column_origin_distances": distances,
        },
        regions=[_region_dict(r, float(config.alpha)) for r in regions] if regions is not None else None,
        warnings=warnings,
    )
    if config.svg_path:
        svg = _plot_svg(
            dec.labels, dec.row_coords, dec.col_coords, dec.contributions, "principal", config, regions
        )
        Path(config.svg_path).write_text(svg, encoding="utf-8")
    return report


def matched_svg_paths(svg_path: str) -> dict[str, Path]:
    """The sum and difference plots of a matched run: <stem>_sum.svg and <stem>_difference.svg."""
    base = Path(svg_path)
    return {part: base.with_name(f"{base.stem}_{part}.svg") for part in ("sum", "difference")}


def run_matched(
    config: AnalysisConfig, t1: ContingencyTable, t2: ContingencyTable
) -> AnalysisReport:
    """Matched-pair pipeline: component SVDs, their merged block values, coordinates."""
    config = replace(config, metric=config.metric or "identity")
    analysis = build_matched(t1, t2, config.lam, config.metric)
    values, order, size = analysis.component_values, analysis.block_order, analysis.size
    block_values = values[order]
    total_inertia = float(np.sum(block_values ** 2))
    report = AnalysisReport(
        command="matched",
        table={
            "labels": list(analysis.labels),
            "n": [t1.n, t2.n],
            "size": analysis.size,
        },
        config=_config_dict(config),
        matched={
            "lambda": analysis.lam,
            "block_singular_values": _floats(block_values),
            "sum_singular_values": _floats(analysis.svd_plus.singular_values),
            "difference_singular_values": _floats(analysis.svd_minus.singular_values),
            "dimension_classes": [
                {
                    "component": "sum" if i < size else "difference",
                    "source_dim": int(i % size) + 1,
                    "singular_value": float(values[i]),
                }
                for i in order
            ],
            "metric": analysis.metric,
            "sum_rows": _floats(analysis.sum_rows),
            "sum_cols": _floats(analysis.sum_cols),
            "difference_rows": _floats(analysis.difference_rows),
            "difference_cols": _floats(analysis.difference_cols),
            "block_total_inertia": total_inertia,
        },
        warnings=[]
        if total_inertia > 0.0
        else ["both tables are fully symmetric: all coordinates sit at the origin"],
    )
    if config.svg_path:
        for component, path in matched_svg_paths(config.svg_path).items():
            # the component's R values, its null dimension's zero included
            part = values[:size] if component == "sum" else values[size:]
            svg = _plot_svg(
                analysis.labels,
                getattr(analysis, f"{component}_rows"),
                getattr(analysis, f"{component}_cols"),
                _shares(part, total_inertia),
                component,
                config,
            )
            path.write_text(svg, encoding="utf-8")
    return report


def run_bowker(config: AnalysisConfig, table: ContingencyTable) -> AnalysisReport:
    """Report holding only the symmetry chi-square test."""
    return AnalysisReport(
        command="bowker",
        table=_table_dict(table),
        config=_config_dict(config),
        bowker=_bowker_dict(table),
        warnings=[],
    )


def run_scan(
    config: AnalysisConfig,
    table: ContingencyTable,
    grid=None,
) -> AnalysisReport:
    """Report of the lam grid scan maximizing the dims 1-2 contribution."""
    result = scan_lambda(table, grid)
    return AnalysisReport(
        command="scan",
        table=_table_dict(table),
        config=_config_dict(config),
        scan={
            "best_lambda": result.best_lambda + 0.0,
            "best_contribution": result.best_contribution,
            "grid": _floats(result.grid),
            "contributions": _floats(result.contributions),
            "inertias": _floats(result.inertias),
        },
        warnings=[],
    )


def render_report(report: AnalysisReport, output_format: str) -> str:
    if output_format == "json":
        return report.to_json()
    if output_format == "csv":
        return report.to_csv()
    raise InputError(f"unknown output format {output_format!r}")
