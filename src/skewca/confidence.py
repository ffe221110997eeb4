"""Per-category confidence circles.

A category's confidence circle calibrates its coordinate against the
chi-square distribution of the power-divergence symmetry statistic: the
radius shrinks like 1/sqrt(n) while the center does not move with n.

The pair values are exactly equal (mu_1 == mu_2), so every region is a
circle, and its radius is one table-level scalar times the category's
distance from the origin in the dims 1-2 plane:

    radius_i = sqrt(q_alpha / T_lam) * ||f_i||,

with q_alpha the upper-alpha chi-square point at R(R-1)/2 degrees of
freedom and T_lam the power-divergence statistic. It follows from the
identity T_lam = 2 n delta Phi / c_lam. A circle therefore covers the
origin exactly when T_lam <= q_alpha, for every category off the origin
at once: ``contains_origin`` redraws the level-alpha symmetry test, and
the circles carry no information beyond it and the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chisquare import chi_square_quantile
from .decomposition import SymmetryDecomposition
from .divergence import AsymmetryProfile, power_divergence_scale
from .errors import AnalysisError
from .table import ContingencyTable


@dataclass(frozen=True)
class ConfidenceRegion:
    """Circular confidence region for one category in the dims 1-2 plane."""

    index: int
    label: str
    axis: str  # "row" or "column"
    center: tuple[float, float]
    radius: float
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
    d_i mu_1 sqrt(calibration * (a_i1^2 + a_i2^2)), with calibration
    q_alpha c_lam / (2 n delta Phi) = q_alpha / T_lam. The in-plane mass
    a_i1^2 + a_i2^2 is the same for the row and the column point, because
    the right vectors are the left ones with each pair swapped and one
    column negated, so both axes share one radius per category. Every
    circle of positive radius covers the origin exactly when calibration >= 1;
    one with no in-plane mass gets radius 0 and covers it only if it sits there.

    The checks run in this order, and each message is the reason
    ``run_analyze`` gives when it skips the circles.

    Raises:
        AnalysisError: zero asymmetry measure; a 2x2 table (no dimensions
            remain beyond the leading plane, and the calibration is not
            defined there); or the identity metric, since the derivation is
            tied to the averaged-margin metric.
        InputError: alpha not a normal double in (0, 1), from the chi-square quantile.
    """
    size = dec.size
    if dec.fully_symmetric or dec.total_inertia <= 0.0:
        raise AnalysisError("zero asymmetry measure")
    if size == 2:
        raise AnalysisError("undefined for 2x2 tables")
    if dec.metric != "averaged":
        raise AnalysisError("identity metric")
    quantile = chi_square_quantile(size * (size - 1) // 2, alpha)
    scale = power_divergence_scale(profile.lam)
    calibration = quantile * scale / (2.0 * t.n * t.delta * dec.total_inertia)
    covers = calibration >= 1.0
    a = dec.left_vectors
    radii = dec.metric_weights * float(dec.singular_values[0]) * np.sqrt(
        calibration * (a[:, 0] ** 2 + a[:, 1] ** 2)
    )
    return [
        ConfidenceRegion(
            index=i,
            label=dec.labels[i],
            axis=axis,
            center=(cx, cy),
            radius=r,
            alpha=float(alpha),
            contains_origin=covers if r > 0.0 else cx == cy == 0.0,
        )
        for axis, coords in (("row", dec.row_coords), ("column", dec.col_coords))
        for i, ((cx, cy), r) in enumerate(zip(coords[:, :2].tolist(), radii.tolist()))
    ]
