"""Analysis configuration, report assembly, and serialization."""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

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
from .errors import DimensionOutOfRangeError, InputError, InvalidAlphaError, InvalidParameterError
from .errors import FullySymmetricError, IdentityMetricUnsupportedError, UnsupportedDimensionError
from .matched import build_matched
from .svg import render_svg_plot
from .table import ContingencyTable

SCHEMA_VERSION = 1

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
    ``output_format`` and ``plot_axes`` are among their choices.
    """

    lam: float = 1.0
    alpha: float = 0.05
    metric: str = "averaged"
    output_format: str = "json"
    svg_path: str | None = None
    dims: tuple[int, int] = (1, 2)
    plot_axes: str = "rows"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", resolve_lambda(self.lam))
        if not (isinstance(self.alpha, numbers.Real) and sys.float_info.min <= self.alpha < 1.0):
            raise InvalidAlphaError(f"alpha must be a normal double in (0, 1), got {self.alpha}")
        if len(self.dims) != 2 or self.dims[0] == self.dims[1] or not all(
            isinstance(d, numbers.Integral) and d >= 1 for d in self.dims
        ):
            raise DimensionOutOfRangeError(
                f"plot dimensions must be two distinct integers >= 1, got {self.dims}"
            )
        object.__setattr__(self, "dims", (int(self.dims[0]), int(self.dims[1])))
        if self.plot_axes not in PLOT_AXES:
            raise InvalidParameterError(
                f"axes must be rows, columns, or both, got {self.plot_axes!r}"
            )
        if self.metric not in METRICS:
            raise InvalidParameterError(f"metric must be averaged or identity, got {self.metric!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise InvalidParameterError(f"format must be json or csv, got {self.output_format!r}")


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
    ``to_json`` writes json's exact ``indent=2, sort_keys=True`` layout and
    renders each distinct float magnitude of the report once. ``to_csv``
    renders a long-format table rounded to six decimals.
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
        return _json_text(self.to_dict())

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
                emit("scan_point", "", "", f"{lam:.2f}", contrib)
        numbered("warning", self.warnings)
        return out.getvalue()


_INDENT = "  "
_FLOAT_ONLY = {float}


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``, byte for byte.

    With ``indent`` set, json skips its C encoder and renders each float by
    itself. Here every non-empty list of exact floats is left as a slot
    while the layout is written, then all of them are rendered together:
    ``float.__repr__`` runs once per distinct magnitude, and a set sign bit
    prefixes "-", which is exact for every finite double, -0.0 included.
    Reports repeat most magnitudes: the right vectors and column coordinates
    are the left ones with each column pair swapped and one column negated,
    and ``phi_cells`` is symmetric. Dict keys must be strings. The walk is
    module-level recursion, not a nested function, so a call leaves no
    reference cycle holding the report's strings until the cyclic GC runs.
    """
    parts: list = []
    slots: list = []
    _encode(obj, 0, parts, slots)
    _fill_float_lists(parts, slots)
    parts.append("\n")
    return "".join(parts)


def _encode(obj: Any, depth: int, parts: list, slots: list) -> None:
    """Append the JSON text of obj at nesting ``depth``; a float list leaves a slot."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        parts.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif set(map(type, obj)) == _FLOAT_ONLY:
            slots.append((len(parts), obj, depth))
            parts.append("")
        else:
            inner = "\n" + _INDENT * (depth + 1)
            sep = "[" + inner
            for item in obj:
                parts.append(sep)
                sep = "," + inner
                _encode(item, depth + 1, parts, slots)
            parts.append("\n" + _INDENT * depth + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = "\n" + _INDENT * (depth + 1)
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _encode(obj[key], depth + 1, parts, slots)
        parts.append("\n" + _INDENT * depth + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _fill_float_lists(parts: list, slots: list) -> None:
    """Write each slotted float list into ``parts``, rendering each distinct magnitude once."""
    values = np.array([x for _, floats, _ in slots for x in floats])
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[np.argmin(finite)])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    magnitudes, index = np.unique(np.abs(values), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    negative = np.signbit(values)
    negated, negated_index = np.unique(index[negative], return_inverse=True)
    index[negative] = len(texts) + negated_index
    texts += ["-" + texts[i] for i in negated.tolist()]
    rendered = np.array(texts, dtype=object)[index].tolist()
    start = 0
    for slot, floats, depth in slots:
        inner = "\n" + _INDENT * (depth + 1)
        stop = start + len(floats)
        parts[slot] = "[" + inner + ("," + inner).join(rendered[start:stop]) + "\n" + _INDENT * depth + "]"
        start = stop


def _floats(arr) -> list:
    """The report's float list; "+ 0.0" writes a zero of either sign as +0.0, as in _matrix."""
    return (np.asarray(arr, dtype=float).ravel() + 0.0).tolist()


def _matrix(arr) -> list[list[float]]:
    return (np.asarray(arr, dtype=float) + 0.0).tolist()


def _region_dict(region: ConfidenceRegion) -> dict:
    return {
        "index": region.index,
        "label": region.label,
        "axis": region.axis,
        "center_x": region.center[0] + 0.0,
        "center_y": region.center[1] + 0.0,
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
            raise DimensionOutOfRangeError(f"dimension {d} out of range 1..{rows.shape[1]}")
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
    profile = asymmetry_measure(table, config.lam)
    dec = decompose(skew_from_profile(table, profile), table, config.metric)
    row_dist, col_dist = origin_distances(dec)

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
    except (FullySymmetricError, UnsupportedDimensionError, IdentityMetricUnsupportedError) as exc:
        warnings.append(f"confidence regions skipped: {exc}")

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


def matched_svg_paths(svg_path: str) -> dict[str, Path]:
    """The sum and difference plots of a matched run: <stem>_sum.svg and <stem>_difference.svg."""
    base = Path(svg_path)
    return {part: base.with_name(f"{base.stem}_{part}.svg") for part in ("sum", "difference")}


def run_matched(
    config: AnalysisConfig, t1: ContingencyTable, t2: ContingencyTable
) -> AnalysisReport:
    """Matched-pair pipeline: component SVDs, their merged block values, coordinates."""
    analysis = build_matched(t1, t2, config.lam, config.metric)
    block_values = np.array([cls.singular_value for cls in analysis.dim_classes])
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
                    "component": cls.component,
                    "source_dim": cls.source_dim,
                    "singular_value": cls.singular_value,
                }
                for cls in analysis.dim_classes
            ],
            "metric": analysis.metric,
            "sum_rows": _matrix(analysis.sum_rows),
            "sum_cols": _matrix(analysis.sum_cols),
            "difference_rows": _matrix(analysis.difference_rows),
            "difference_cols": _matrix(analysis.difference_cols),
            "block_total_inertia": total_inertia,
        },
        warnings=[]
        if total_inertia > 0.0
        else ["both tables are fully symmetric: all coordinates sit at the origin"],
    )
    if config.svg_path:
        for component, path in matched_svg_paths(config.svg_path).items():
            # the component's R block values, its null dimension's zero included
            values = np.array([c.singular_value for c in analysis.dim_classes if c.component == component])
            svg = _plot_svg(
                analysis.labels,
                getattr(analysis, f"{component}_rows"),
                getattr(analysis, f"{component}_cols"),
                _shares(values, total_inertia),
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
