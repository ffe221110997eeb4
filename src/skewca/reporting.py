"""Analysis configuration, report assembly, and serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .confidence import ConfidenceRegion, confidence_regions
from .decomposition import (
    decompose,
    origin_distances,
    scan_lambda,
    skew_from_profile,
)
from .divergence import NAMED_DIVERGENCES, asymmetry_measure, bowker_statistic, require_lambda
from .errors import DimensionOutOfRangeError, InputError
from .matched import build_matched, matched_coordinates
from .svg import render_svg_plot
from .table import ContingencyTable, to_probabilities

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("json", "csv")
PLOT_AXES = ("rows", "columns", "both")


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs shared by the analysis commands.

    ``lam`` accepts a float or one of the named divergences
    (hellinger, kl, cressie-read, pearson).
    """

    lam: float = 1.0
    alpha: float = 0.05
    metric: str = "averaged"
    output_format: str = "json"
    svg_path: str | None = None
    dims: tuple[int, int] = (1, 2)
    plot_axes: str = "rows"


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
    return require_lambda(float(value))


@dataclass(frozen=True)
class AnalysisReport:
    """Machine-readable result of one analysis run.

    ``to_json``/``from_json`` round-trip every numeric field exactly;
    ``to_csv`` renders a long-format table rounded to six decimals.
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
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["warnings"] = list(self.warnings)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Rebuild a report; a missing section takes its default, the version is required."""
        values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        values["schema_version"] = data["schema_version"]
        values["warnings"] = list(values.get("warnings", ()))
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["record", "axis", "label", "key", "value"])

        def fmt(value: Any) -> Any:
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, float):
                return f"{value:.6f}"
            return value

        def emit(record: str, axis: str, label: str, key: Any, value: Any) -> None:
            writer.writerow([record, axis, label, key, fmt(value)])

        emit("meta", "", "", "schema_version", self.schema_version)
        emit("meta", "", "", "command", self.command)
        for key, value in self.table.items():
            if key == "labels":
                for i, lab in enumerate(value, start=1):
                    emit("table", "", lab, "label_order", i)
            else:
                emit("table", "", "", key, value)
        for section_name, section in (("bowker", self.bowker), ("asymmetry", self.asymmetry)):
            if not section:
                continue
            for key, value in section.items():
                if isinstance(value, (list, tuple)):
                    continue
                emit(section_name, "", "", key, value)
        if self.asymmetry and "phi_cells" in self.asymmetry:
            labels = self.table["labels"]
            cells = self.asymmetry["phi_cells"]
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    emit("phi_cell", "", f"{labels[i]}|{labels[j]}", "", cells[i][j])
        if self.decomposition:
            for key in ("metric", "total_inertia", "fully_symmetric"):
                emit("decomposition", "", "", key, self.decomposition[key])
            for m, value in enumerate(self.decomposition["singular_values"], start=1):
                emit("singular_value", "", "", m, value)
            for m, value in enumerate(self.decomposition["contributions"], start=1):
                emit("contribution", "", "", m, value)
        if self.coordinates:
            labels = self.table["labels"]
            for axis, key in (("row", "rows"), ("column", "columns")):
                for i, row in enumerate(self.coordinates[key]):
                    for m, value in enumerate(row, start=1):
                        emit("coordinate", axis, labels[i], m, value)
                for i, value in enumerate(self.coordinates[f"{key[:-1]}_origin_distances"]):
                    emit("origin_distance", axis, labels[i], "", value)
        for region in self.regions or ():
            for key in ("center_x", "center_y", "radius_x", "radius_y", "contains_origin"):
                emit("region", region["axis"], region["label"], key, region[key])
        if self.matched:
            for m, value in enumerate(self.matched["block_singular_values"], start=1):
                emit("block_singular_value", "", "", m, value)
            for m, cls in enumerate(self.matched["dimension_classes"], start=1):
                emit("dimension_class", "", "", m, cls["component"])
            labels = self.table["labels"]
            for component in ("sum", "difference"):
                for axis, key in (("row", "rows"), ("column", "cols")):
                    coords = self.matched[f"{component}_{key}"]
                    for i, row in enumerate(coords):
                        for m, value in enumerate(row, start=1):
                            emit(f"{component}_coordinate", axis, labels[i], m, value)
        if self.scan:
            emit("scan", "", "", "best_lambda", self.scan["best_lambda"])
            emit("scan", "", "", "best_contribution", self.scan["best_contribution"])
            for lam, contrib in zip(self.scan["grid"], self.scan["contributions"]):
                emit("scan_point", "", "", f"{lam:.2f}", contrib)
        for i, warning in enumerate(self.warnings, start=1):
            emit("warning", "", "", i, warning)
        return out.getvalue()


def _floats(arr) -> list:
    return np.asarray(arr, dtype=float).ravel().tolist()


def _matrix(arr) -> list[list[float]]:
    return np.asarray(arr, dtype=float).tolist()


def _region_dict(region: ConfidenceRegion) -> dict:
    return {
        "index": region.index,
        "label": region.label,
        "axis": region.axis,
        "center_x": region.center[0],
        "center_y": region.center[1],
        "radius_x": region.radius,
        "radius_y": region.radius,
        "alpha": region.alpha,
        "contains_origin": region.contains_origin,
    }


def _table_dict(table: ContingencyTable) -> dict:
    return {"labels": list(table.labels), "n": table.n, "size": table.size}


def _bowker_dict(table: ContingencyTable) -> dict:
    bowker = bowker_statistic(table)
    return {"statistic": bowker.statistic, "dof": bowker.dof, "p_value": bowker.p_value}


def _config_dict(config: AnalysisConfig) -> dict:
    return {
        "lambda": float(config.lam),
        "alpha": float(config.alpha),
        "metric": config.metric,
        "output_format": config.output_format,
        "svg_path": config.svg_path,
        "dims": list(config.dims),
        "plot_axes": config.plot_axes,
    }


def check_dims(dims: tuple[int, int], n_dims: int) -> tuple[int, int]:
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 == d2:
        raise DimensionOutOfRangeError(f"plot dimensions must be distinct, got {dims}")
    for d in (d1, d2):
        if not 1 <= d <= n_dims:
            raise DimensionOutOfRangeError(
                f"dimension {d} out of range 1..{n_dims}"
            )
    return d1, d2


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
    d1, d2 = check_dims(config.dims, rows.shape[1])
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

    Confidence regions are skipped with a warning (never an error) for 2x2
    tables, identity-metric runs, and fully symmetric tables. Any core
    error aborts the whole report.
    """
    warnings: list[str] = []
    bowker = _bowker_dict(table)
    p = to_probabilities(table)
    profile = asymmetry_measure(p, config.lam)
    dec = decompose(skew_from_profile(p, profile), p, config.metric)
    row_dist, col_dist = origin_distances(dec)

    for i, j in profile.zero_pair_cells:
        warnings.append(
            f"cells ({table.labels[i]}, {table.labels[j]}) and "
            f"({table.labels[j]}, {table.labels[i]}) are both empty; "
            "their departure is taken as 0"
        )
    regions: list[ConfidenceRegion] | None = None
    if dec.fully_symmetric:
        warnings.append("table is fully symmetric: all coordinates sit at the origin")
        warnings.append("confidence regions skipped: zero asymmetry measure")
    elif table.size == 2:
        warnings.append("confidence regions skipped: undefined for 2x2 tables")
    elif config.metric != "averaged":
        warnings.append("confidence regions skipped: identity metric")
    else:
        regions = confidence_regions(dec, table, profile, config.alpha)

    report = AnalysisReport(
        command="analyze",
        table=_table_dict(table),
        config=_config_dict(config),
        bowker=bowker,
        asymmetry={
            "lambda": profile.lam,
            "delta": profile.delta,
            "phi_total": profile.phi_total,
            "phi_cells": _matrix(profile.phi_cells),
            "zero_pair_cells": [list(pair) for pair in profile.zero_pair_cells],
        },
        decomposition={
            "metric": dec.metric,
            "singular_values": _floats(dec.singular_values),
            "contributions": _floats(dec.contributions),
            "total_inertia": dec.total_inertia,
            "fully_symmetric": dec.fully_symmetric,
            "metric_weights": _floats(dec.metric_weights),
            "left_vectors": _matrix(dec.left_vectors),
            "right_vectors": _matrix(dec.right_vectors),
        },
        coordinates={
            "rows": _matrix(dec.row_coords),
            "columns": _matrix(dec.col_coords),
            "row_origin_distances": _floats(row_dist),
            "column_origin_distances": _floats(col_dist),
        },
        regions=[_region_dict(r) for r in regions] if regions is not None else None,
        warnings=warnings,
    )
    if config.svg_path:
        svg = _plot_svg(
            dec.labels, dec.row_coords, dec.col_coords, dec.contributions, "principal", config, regions
        )
        Path(config.svg_path).write_text(svg, encoding="utf-8")
    return report


def run_matched(
    config: AnalysisConfig, t1: ContingencyTable, t2: ContingencyTable
) -> AnalysisReport:
    """Matched-pair pipeline: component SVDs merged into the block SVD, coordinates."""
    analysis = build_matched(t1, t2, config.lam)
    coords = matched_coordinates(analysis, config.metric)
    total_inertia = float(np.sum(analysis.block_svd.singular_values ** 2))
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
            "block_singular_values": _floats(analysis.block_svd.singular_values),
            "sum_singular_values": _floats(analysis.svd_plus.singular_values),
            "difference_singular_values": _floats(analysis.svd_minus.singular_values),
            "dimension_classes": [
                {
                    "component": cls.component,
                    "source_dim": cls.source_dim,
                    "singular_value": cls.singular_value,
                }
                for cls in analysis.dim_classes
            ],
            "metric": coords.metric,
            "sum_rows": _matrix(coords.sum_rows),
            "sum_cols": _matrix(coords.sum_cols),
            "difference_rows": _matrix(coords.difference_rows),
            "difference_cols": _matrix(coords.difference_cols),
            "block_total_inertia": total_inertia,
        },
        warnings=[],
    )
    if config.svg_path:
        base = Path(config.svg_path)
        for component in ("sum", "difference"):
            values = getattr(coords, f"{component}_singular_values")
            svg = _plot_svg(
                analysis.labels,
                getattr(coords, f"{component}_rows"),
                getattr(coords, f"{component}_cols"),
                [100.0 * float(v) ** 2 / total_inertia for v in values],
                component,
                config,
            )
            base.with_name(f"{base.stem}_{component}.svg").write_text(svg, encoding="utf-8")
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
    result = scan_lambda(table, grid, config.metric)
    return AnalysisReport(
        command="scan",
        table=_table_dict(table),
        config=_config_dict(config),
        scan={
            "best_lambda": result.best_lambda,
            "best_contribution": result.best_contribution,
            "grid": list(result.grid),
            "contributions": list(result.contributions),
            "inertias": list(result.inertias),
        },
        warnings=[],
    )


def render_report(report: AnalysisReport, output_format: str) -> str:
    if output_format == "json":
        return report.to_json()
    if output_format == "csv":
        return report.to_csv()
    raise InputError(f"unknown output format {output_format!r}")
