"""Independent checks of skewca's outputs.

Nothing here imports skewca. Every expected value is recomputed with
numpy from the definitions, with LAPACK's SVD in place of the program's
paired SVD and scipy's chi-square distribution in place of its in-house
incomplete gamma:

- Phi from the divergence definition (the log form at lambda = 0),
- the Bowker statistic, with its p-value from ``scipy.stats.chi2.sf``,
- singular values of an independently built skew matrix (for matched
  runs, of S1 + S2 and S1 - S2),
- confidence radii from ``scipy.stats.chi2.isf``,

together with properties the method must have: singular values in equal
consecutive pairs, equal contributions of dims 1 and 2, squared singular
values summing to Phi in [0, 1], Phi unchanged when the table is scaled
by an integer, the lambda = 1 statistic equal to Bowker's, the scan's
best lambda at the first argmax of its own contributions, and SVG that
parses as XML.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from workloads import LAMBDAS

LN2 = math.log(2.0)
ALPHA = 0.05
SCREEN_LAMBDAS = tuple(LAMBDAS.values())  # the screen computes each measure at all four

PHI_ATOL = 1e-11  # Phi lies in [0, 1]; both routes agree to about 1e-15
SV_RTOL = 1e-10  # singular values, relative to the largest one
PAIR_RTOL = 1e-12  # the two values of a pair must agree to this
STAT_RTOL = 1e-10
SCAN_ATOL = 1e-8  # contributions are percentages
# the scan's documented tie rule: the first lambda within this of the maximum
SCAN_TIE = 1e-9


class Failures(list):
    def close(self, what: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> bool:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
            return False
        err = np.abs(got - want)
        limit = atol + rtol * np.abs(want)
        if not np.all(err <= limit):
            k = int(np.argmax(err - limit))
            self.append(
                f"{what}: {got.ravel()[k]!r} != {want.ravel()[k]!r} "
                f"(error {err.ravel()[k]:.3g} > {limit.ravel()[k]:.3g})"
            )
            return False
        return True

    def require(self, what: str, ok: bool) -> bool:
        if not ok:
            self.append(what)
        return ok


# ------------------------------------------------------------ definitions


def _divergence_terms(counts: np.ndarray, lam: float):
    """p, delta and p_ij [(2 p_ij / (p_ij + p_ji))^lam - 1] per cell (p_ij log(...) at 0)."""
    p = counts / float(counts.sum())
    delta = float(p.sum() - np.trace(p))
    pair_sum = p + p.T
    occupied = (p > 0) & ~np.eye(p.shape[0], dtype=bool)
    ratio = np.divide(2.0 * p, pair_sum, out=np.ones_like(p), where=occupied)
    log_ratio = np.log(ratio)
    terms = p * (log_ratio if lam == 0.0 else np.expm1(lam * log_ratio))
    return p, delta, np.where(occupied, terms, 0.0)


def _denominator(lam: float) -> float:
    return LN2 if lam == 0.0 else math.expm1(lam * LN2)


def phi_cells(counts: np.ndarray, lam: float):
    """p, delta and the per-cell departures, each pair sharing its divergence equally."""
    p, delta, terms = _divergence_terms(counts, lam)
    return p, delta, (terms + terms.T) / (2.0 * delta * _denominator(lam))


def phi(counts: np.ndarray, lam: float) -> float:
    _, delta, terms = _divergence_terms(counts, lam)
    return float(terms.sum() / (delta * _denominator(lam)))


def divergence_statistic(counts: np.ndarray, lam: float) -> float:
    _, _, terms = _divergence_terms(counts, lam)
    factor = 1.0 if lam == 0.0 else 1.0 / (lam * (lam + 1.0))
    return float(2.0 * counts.sum() * factor * terms.sum())


def divergence_scale(lam: float) -> float:
    return 1.0 / LN2 if lam == 0.0 else lam * (lam + 1.0) / math.expm1(lam * LN2)


def skew(counts: np.ndarray, lam: float) -> np.ndarray:
    p, _, cells = phi_cells(counts, lam)
    return np.sign(p - p.T) * np.sqrt(np.maximum(cells, 0.0))


def bowker(counts: np.ndarray) -> tuple[float, int, float]:
    upper = np.triu_indices(counts.shape[0], 1)
    tot = (counts + counts.T)[upper].astype(float)
    diff = (counts - counts.T)[upper].astype(float)
    stat = float(np.sum(np.divide(diff * diff, tot, out=np.zeros_like(tot), where=tot > 0)))
    dof = counts.shape[0] * (counts.shape[0] - 1) // 2
    return stat, dof, float(chi2.sf(stat, dof))


def metric_weights(counts: np.ndarray, metric: str) -> np.ndarray:
    if metric == "identity":
        return np.ones(counts.shape[0])
    p = counts / float(counts.sum())
    margins = (p.sum(axis=0) + p.sum(axis=1)) / 2.0
    return np.where(margins > 0, margins, 1.0) ** -0.5


def retained(size: int) -> int:
    return size if size % 2 == 0 else size - 1


# ----------------------------------------------------------------- checks


def _check_bowker(f: Failures, section: dict, counts: np.ndarray) -> None:
    stat, dof, p_value = bowker(counts)
    f.close("bowker statistic", section["statistic"], stat, atol=1e-12, rtol=1e-12)
    f.require(f"bowker dof {section['dof']} != {dof}", section["dof"] == dof)
    f.close("bowker p-value", section["p_value"], p_value, atol=1e-9, rtol=1e-6)


def _check_values(f: Failures, what: str, values, reference: np.ndarray, scale: float) -> np.ndarray:
    """Reported singular values against LAPACK's, plus order and exact pairing."""
    values = np.asarray(values, dtype=float)
    f.close(f"{what} singular values", values, reference, atol=SV_RTOL * scale)
    if values.size:
        f.close(f"{what} pairs", values[0::2], values[1::2], atol=PAIR_RTOL * scale)
        f.require(f"{what} singular values not non-increasing",
                  bool(np.all(np.diff(values) <= PAIR_RTOL * scale)))
    return values


def check_analyze(
    report: dict,
    counts: np.ndarray,
    lam: float,
    metric: str = "averaged",
    phi_scaled: float | None = None,
) -> Failures:
    f = Failures()
    size = counts.shape[0]
    f.require(f"command {report.get('command')!r}", report.get("command") == "analyze")
    f.require("table n", report["table"]["n"] == int(counts.sum()))
    _check_bowker(f, report["bowker"], counts)

    asym = report["asymmetry"]
    p, delta, cells = phi_cells(counts, lam)
    total = phi(counts, lam)
    f.close("lambda", asym["lambda"], lam, atol=1e-15)
    f.close("Phi", asym["phi_total"], total, atol=PHI_ATOL)
    f.require(f"Phi {asym['phi_total']!r} outside [0, 1]", 0.0 <= asym["phi_total"] <= 1.0)
    f.close("Phi cells", asym["phi_cells"], cells, atol=1e-13)
    empty = np.argwhere(np.triu((counts + counts.T) == 0, 1))
    f.require("zero pair cells", sorted(map(list, empty.tolist())) == sorted(asym["zero_pair_cells"]))
    if phi_scaled is not None:
        f.close("Phi of the scaled table", phi_scaled, asym["phi_total"], atol=1e-12)

    dec = report["decomposition"]
    s = skew(counts, lam)
    n_dims = retained(size)
    reference = np.linalg.svd(s, compute_uv=False)[:n_dims]
    scale = max(float(reference[0]), 1e-300)
    before = len(f)
    values = _check_values(f, "analyze", dec["singular_values"], reference, scale)
    if len(f) > before:
        return f  # everything below builds on the values
    inertia = float(np.sum(values**2))
    f.close("sum of squared singular values vs Phi", inertia, asym["phi_total"], atol=1e-13, rtol=1e-10)
    f.close("total inertia", dec["total_inertia"], inertia, rtol=1e-12)
    f.require("fully_symmetric flag", dec["fully_symmetric"] == (not np.any(s)))
    if inertia > 0:
        contributions = np.asarray(dec["contributions"])
        f.close("contributions", contributions, 100.0 * values**2 / inertia, atol=1e-9)
        f.close("dims 1 and 2 contributions", contributions[0], contributions[1], atol=1e-9)

    # any orthonormal singular basis is acceptable; the radii and coordinates use it
    left = np.asarray(dec["left_vectors"], dtype=float)
    right = np.asarray(dec["right_vectors"], dtype=float)
    eye = np.eye(n_dims)
    f.close("left vectors orthonormal", left.T @ left, eye, atol=1e-10)
    f.close("right vectors orthonormal", right.T @ right, eye, atol=1e-10)
    f.close("reconstruction", (left * values) @ right.T, s, atol=1e-9 * scale)
    weights = metric_weights(counts, metric)
    f.close("metric weights", dec["metric_weights"], weights, rtol=1e-12)
    coords = report["coordinates"]
    rows = weights[:, None] * left * values
    cols = weights[:, None] * right * values
    reach = max(float(np.abs(rows).max(initial=0.0)), 1e-300)
    f.close("row coordinates", coords["rows"], rows, atol=1e-10 * reach)
    f.close("column coordinates", coords["columns"], cols, atol=1e-10 * reach)
    f.close("row origin distances", coords["row_origin_distances"],
            np.linalg.norm(rows, axis=1), atol=1e-10 * reach)

    regions = report["regions"]
    expect_regions = inertia > 0 and size > 2 and metric == "averaged"
    f.require("regions present iff defined", (regions is not None) == expect_regions)
    if regions:
        dof = size * (size - 1) // 2
        calibration = (
            chi2.isf(ALPHA, dof) * divergence_scale(lam)
            / (2.0 * counts.sum() * delta * total)
        )
        f.require("region count", len(regions) == 2 * size)
        for region in regions:
            i = region["index"]
            vectors, points = (left, rows) if region["axis"] == "row" else (right, cols)
            root = math.sqrt(calibration * (vectors[i, 0] ** 2 + vectors[i, 1] ** 2))
            where = f"region {region['axis']} {region['label']}"
            f.close(f"{where} radius_x", region["radius_x"], weights[i] * reference[0] * root,
                    atol=1e-15, rtol=1e-8)
            f.close(f"{where} radius_y", region["radius_y"], weights[i] * reference[1] * root,
                    atol=1e-15, rtol=1e-8)
            f.close(f"{where} center", [region["center_x"], region["center_y"]], points[i, :2],
                    atol=1e-10 * reach)
            rx, ry = region["radius_x"], region["radius_y"]
            if rx > 0 and ry > 0:
                reach_origin = (region["center_x"] / rx) ** 2 + (region["center_y"] / ry) ** 2
                if abs(reach_origin - 1.0) > 1e-9:
                    f.require(f"{where} contains_origin",
                              region["contains_origin"] == (reach_origin <= 1.0))
    return f


def check_matched(report: dict, first: np.ndarray, second: np.ndarray, lam: float,
                  metric: str = "identity") -> Failures:
    f = Failures()
    size = first.shape[0]
    m = report["matched"]
    f.require(f"command {report.get('command')!r}", report.get("command") == "matched")
    s1, s2 = skew(first, lam), skew(second, lam)
    plus = np.linalg.svd(s1 + s2, compute_uv=False)
    minus = np.linalg.svd(s1 - s2, compute_uv=False)
    scale = max(float(plus[0]), float(minus[0]), 1e-300)
    n_dims = retained(size)
    _check_values(f, "sum", m["sum_singular_values"], plus[:n_dims], scale)
    _check_values(f, "difference", m["difference_singular_values"], minus[:n_dims], scale)
    block = np.sort(np.concatenate([plus, minus]))[::-1]
    f.close("block singular values", m["block_singular_values"], block, atol=SV_RTOL * scale)
    f.close("block inertia", m["block_total_inertia"], 2.0 * (phi(first, lam) + phi(second, lam)),
            atol=1e-13, rtol=1e-10)
    components = [c["component"] for c in m["dimension_classes"]]
    f.require("dimension classes", components.count("sum") == size == components.count("difference"))
    # each component's first-block coordinates carry half its squared
    # singular values; a sum value equal to a difference value lets the
    # two share vectors, so the split is checked only without such ties
    weights = metric_weights(first + second, metric)
    gaps = np.abs(plus[:, None] - minus[None, :])[(plus[:, None] > 0) & (minus[None, :] > 0)]
    if not gaps.size or gaps.min() > 1e-8 * scale:
        for component, values in (("sum", plus), ("difference", minus)):
            for axis in ("rows", "cols"):
                coords = np.asarray(m[f"{component}_{axis}"], dtype=float)
                energy = float(np.sum((coords / weights[:, None]) ** 2))
                f.close(f"{component} {axis} coordinate energy", energy,
                        float(np.sum(values**2)) / 2.0, atol=1e-12, rtol=1e-9)
    return f


def check_bowker_report(report: dict, counts: np.ndarray) -> Failures:
    f = Failures()
    f.require(f"command {report.get('command')!r}", report.get("command") == "bowker")
    _check_bowker(f, report["bowker"], counts)
    return f


def default_grid() -> np.ndarray:
    return np.round(np.arange(-99, 301) * 0.01, 10)


def check_scan(report: dict, counts: np.ndarray) -> Failures:
    f = Failures()
    scan = report["scan"]
    grid = np.asarray(scan["grid"], dtype=float)
    f.close("scan grid", grid, default_grid(), atol=0.0)
    contributions = np.asarray(scan["contributions"], dtype=float)
    expected, inertias = [], []
    for lam in grid:
        values = np.linalg.svd(skew(counts, float(lam)), compute_uv=False)
        expected.append(100.0 * float(values[0] ** 2 + values[1] ** 2) / float(np.sum(values**2)))
        inertias.append(phi(counts, float(lam)))
    f.close("scan contributions", contributions, expected, atol=SCAN_ATOL)
    f.close("scan inertias", scan["inertias"], inertias, atol=PHI_ATOL)
    if contributions.size:
        best = int(np.argmax(contributions >= contributions.max() - SCAN_TIE))
        f.require(f"scan best lambda {scan['best_lambda']!r} is not the first argmax {grid[best]!r}",
                  scan["best_lambda"] == grid[best])
        f.require("scan best contribution", scan["best_contribution"] == contributions[best])
    return f


def check_screen(result: dict, counts: np.ndarray, lambdas, scaled_lam: float) -> Failures:
    f = Failures()
    size = counts.shape[0]
    f.require("parsed labels", result["labels"] == [f"c{i:03d}" for i in range(size)])
    f.require("parsed n", result["n"] == int(counts.sum()))
    _check_bowker(f, {"statistic": result["bowker"][0], "dof": result["bowker"][1],
                      "p_value": result["bowker"][2]}, counts)
    for lam, got_phi, got_stat in zip(lambdas, result["phi"], result["statistic"]):
        f.close(f"Phi at lambda {lam:.4g}", got_phi, phi(counts, lam), atol=PHI_ATOL)
        f.require(f"Phi {got_phi!r} outside [0, 1]", 0.0 <= got_phi <= 1.0)
        f.close(f"statistic at lambda {lam:.4g}", got_stat, divergence_statistic(counts, lam),
                rtol=STAT_RTOL)
        if lam == 1.0:
            f.close("lambda = 1 statistic vs Bowker", got_stat, result["bowker"][0], rtol=STAT_RTOL)
    k = list(lambdas).index(scaled_lam)
    f.close("Phi of the scaled table", result["phi_scaled"], result["phi"][k], atol=1e-12)
    return f


def check_svg(text: str, points: int, circles: int) -> Failures:
    f = Failures()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        f.append(f"SVG does not parse: {exc}")
        return f
    ns = "{http://www.w3.org/2000/svg}"
    f.require(f"SVG root {root.tag!r}", root.tag == f"{ns}svg")
    shapes = root.findall(f"{ns}circle")
    dots = sum(1 for c in shapes if c.get("fill") == "black")
    rings = len(shapes) - dots
    f.require(f"SVG holds {dots} points, expected {points}", dots == points)
    f.require(f"SVG holds {rings} circles, expected {circles}", rings == circles)
    return f


def check_csv_report(text: str, companion: str, counts: np.ndarray, lam: float) -> Failures:
    f = Failures()
    rows = list(csv.reader(io.StringIO(text)))
    f.require("CSV header", rows[:1] == [["record", "axis", "label", "key", "value"]])
    fields = {(r[0], r[3]): r[4] for r in rows[1:] if len(r) == 5}
    want = phi(counts, lam)
    got = fields.get(("asymmetry", "phi_total"))
    f.require(f"CSV phi_total {got!r} vs {want:.6f}", got is not None and abs(float(got) - want) <= 1e-6)
    f.extend(check_analyze(json.loads(companion), counts, lam))
    return f


def check_op(op, result: dict) -> Failures:
    """Check one benchmark operation (see workloads.Op) against its result."""
    counts = [t.counts for t in op.tables]
    if op.kind == "analyze":
        return check_analyze(json.loads(result["report"]), counts[0], op.lam, op.metric,
                             result["phi_scaled"])
    if op.kind == "matched":
        return check_matched(json.loads(result["report"]), *counts, op.lam, op.metric)
    if op.kind == "screen":
        return check_screen(result, counts[0], SCREEN_LAMBDAS, op.lam)
    command = op.argv[0]
    outputs = [result[Path(path).name] for path in op.outputs]
    if command == "bowker":
        return check_bowker_report(json.loads(result["stdout"]), counts[0])
    if command == "scan":
        return check_scan(json.loads(result["stdout"]), counts[0])
    if command == "matched":
        failures = check_matched(json.loads(result["stdout"]), *counts, op.lam, op.metric)
        for text in outputs:
            failures += check_svg(text, points=counts[0].shape[0], circles=0)
        return failures
    if "--format" in op.argv:
        return check_csv_report(outputs[0], outputs[1], counts[0], op.lam)
    report = json.loads(result["stdout"])
    size = counts[0].shape[0]
    failures = check_analyze(report, counts[0], op.lam, op.metric)
    failures += check_svg(outputs[0], points=size, circles=size if report["regions"] else 0)
    return failures
