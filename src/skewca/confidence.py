"""Per-category confidence circles.

A category's confidence circle calibrates its coordinate against the
chi-square distribution of the power-divergence symmetry statistic: the
radius shrinks like 1/sqrt(n) while the center does not move with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chisquare import chi_square_quantile
from .decomposition import SymmetryDecomposition
from .divergence import AsymmetryProfile, power_divergence_scale
from .errors import (
    FullySymmetricError,
    IdentityMetricUnsupportedError,
    InvalidAlphaError,
    UnsupportedDimensionError,
)
from .table import ContingencyTable


@dataclass(frozen=True)
class ConfidenceRegion:
    """Circular confidence region for one category in the dims 1-2 plane."""

    index: int
    label: str
    axis: str  # "row" or "column"
    center: tuple[float, float]
    radius_x: float
    radius_y: float
    alpha: float
    contains_origin: bool


def confidence_regions(
    dec: SymmetryDecomposition,
    t: ContingencyTable,
    profile: AsymmetryProfile,
    alpha: float = 0.05,
) -> list[ConfidenceRegion]:
    """Confidence circles for every row and column category.

    The circle around category i has center (f_i1, f_i2) and radius
    d_i mu_1 sqrt(chi2_alpha c_lam / (2 n delta Phi) * (a_i1^2 + a_i2^2)),
    with chi2_alpha the upper-alpha chi-square point at R(R-1)/2 degrees
    of freedom and c_lam the power-divergence scale. The in-plane mass
    a_i1^2 + a_i2^2 equals one minus the category's mass on the remaining
    dimensions of the full orthonormal basis (including the null direction
    of odd-sized tables, which the retained factors drop). Radii for rows
    use left vectors, for columns right vectors.

    Raises:
        UnsupportedDimensionError: 2x2 table (no dimensions remain beyond
            the leading plane, and the calibration is not defined there).
        FullySymmetricError: zero asymmetry measure.
        IdentityMetricUnsupportedError: the derivation is tied to the
            averaged-margin metric.
        InvalidAlphaError: alpha outside (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1), got {alpha}")
    size = dec.size
    if size == 2:
        raise UnsupportedDimensionError("confidence regions are undefined for 2x2 tables")
    if dec.metric != "averaged":
        raise IdentityMetricUnsupportedError(
            "confidence regions require the averaged-margin metric"
        )
    if dec.fully_symmetric or dec.total_inertia <= 0.0:
        raise FullySymmetricError("fully symmetric table: confidence regions are undefined")
    dof = size * (size - 1) // 2
    quantile = chi_square_quantile(dof, alpha)
    scale = power_divergence_scale(profile.lam)
    calibration = quantile * scale / (2.0 * t.n * profile.delta * dec.total_inertia)
    mu1 = float(dec.singular_values[0])
    mu2 = float(dec.singular_values[1])
    regions: list[ConfidenceRegion] = []
    for axis, vectors, coords in (
        ("row", dec.left_vectors, dec.row_coords),
        ("column", dec.right_vectors, dec.col_coords),
    ):
        for i in range(size):
            in_plane = float(vectors[i, 0] ** 2 + vectors[i, 1] ** 2)
            root = math.sqrt(max(calibration * in_plane, 0.0))
            rx = float(dec.metric_weights[i]) * mu1 * root
            ry = float(dec.metric_weights[i]) * mu2 * root
            fx, fy = float(coords[i, 0]), float(coords[i, 1])
            regions.append(
                ConfidenceRegion(
                    index=i,
                    label=dec.labels[i],
                    axis=axis,
                    center=(fx, fy),
                    radius_x=float(rx),
                    radius_y=float(ry),
                    alpha=float(alpha),
                    contains_origin=_ellipse_covers(fx, fy, rx, ry, 0.0, 0.0),
                )
            )
    return regions


def _ellipse_covers(cx: float, cy: float, rx: float, ry: float, x: float, y: float) -> bool:
    """Whether the ellipse centered at (cx, cy) with radii (rx, ry) covers (x, y)."""
    dx, dy = x - cx, y - cy
    if rx <= 0.0 or ry <= 0.0:
        return bool(dx == 0.0 and dy == 0.0)
    return bool((dx / rx) ** 2 + (dy / ry) ** 2 <= 1.0)
