"""Joint sum/difference analysis of two matched square tables.

Two tables over identical categories yield skew matrices S1 and S2 on a
common [0,1] scale, so S1 + S2 (shared asymmetry) and S1 - S2
(differential asymmetry) are directly comparable even when the sample
sizes differ wildly. The block matrix [[S1, S2], [S2, S1]] maps [u; u] to
[S+ u; S+ u] and [w; -w] to [S- w; -S- w], so its singular values are the
sum and difference values merged in descending order, and its singular
vectors are [u; u] / sqrt(2) and [w; -w] / sqrt(2) for the component
vectors u and w. Every matched result is read from the component SVDs in
that closed form; ``MatchedAnalysis.block_svd`` factorizes the block itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import PairedSVD, _quarter_turn, _structural_zeros, metric_weights, paired_svd, skew_matrix
from .divergence import require_lambda
from .errors import CountOverflowError, DimensionMismatchError, LabelMismatchError
from .table import ContingencyTable, _frozen, validate_table


@dataclass(frozen=True)
class DimensionClass:
    """Attribution of one block dimension to the sum or difference component."""

    component: str  # "sum" or "difference"
    source_dim: int  # 1-based dimension within that component's own SVD
    singular_value: float


@dataclass(frozen=True)
class MatchedAnalysis:
    """Component SVDs, their merged block dimensions, and first-block coordinates.

    Each coordinate matrix is R x R, one column per component dimension by
    descending value; for odd R the last is the zero null one.
    """

    labels: tuple[str, ...]
    lam: float
    metric: str
    skew_first: np.ndarray = field(repr=False)
    skew_second: np.ndarray = field(repr=False)
    s_plus: np.ndarray = field(repr=False)
    s_minus: np.ndarray = field(repr=False)
    svd_plus: PairedSVD = field(repr=False)
    svd_minus: PairedSVD = field(repr=False)
    dim_classes: tuple[DimensionClass, ...]
    sum_rows: np.ndarray = field(repr=False)
    sum_cols: np.ndarray = field(repr=False)
    difference_rows: np.ndarray = field(repr=False)
    difference_cols: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def block(self) -> np.ndarray:
        """The 2R x 2R block matrix [[S1, S2], [S2, S1]] that ``block_svd`` factorizes."""
        s1, s2 = self.skew_first, self.skew_second
        return np.block([[s1, s2], [s2, s1]])

    @property
    def block_svd(self) -> PairedSVD:
        """The paired SVD of ``block``, factorized each time it is read."""
        return paired_svd(self.block)


def _first_block(svd: PairedSVD, weights: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of one component on the first block of categories."""
    rows = weights * (svd.left_vectors / math.sqrt(2.0) * svd.singular_values)
    # odd R keeps the component's null dimension as a zero column
    padding = ((0, 0), (0, size - svd.n_dims))
    return _frozen(np.pad(rows, padding)), _frozen(np.pad(_quarter_turn(rows), padding))


def build_matched(
    t1: ContingencyTable, t2: ContingencyTable, lam: float, metric: str = "identity"
) -> MatchedAnalysis:
    """Skew matrices, sum/difference SVDs, the classified block dimensions, and coordinates.

    Both tables must share the same labels in the same order and both must
    carry off-diagonal mass. The two skew matrices use the same lam. The
    block's singular values are the sum and difference values merged in
    descending order, and ``dim_classes`` attributes each to its component;
    the block matrix itself is never built here. As in the block's SVD, values
    at most ZERO_SINGULAR_RTOL of the largest are zeros, in the components too.

    Under the identity metric (the default here) the coordinates are the block
    singular vectors times their values on the first block of categories: the
    component vectors over sqrt(2). The averaged metric weights rows by the
    pooled margins of the two tables' sum; an unknown one raises before any SVD.
    """
    if t1.size != t2.size:
        raise DimensionMismatchError(f"table sizes differ: {t1.size} vs {t2.size}")
    if t1.labels != t2.labels:
        raise LabelMismatchError(
            f"category labels differ or are ordered differently: "
            f"{t1.labels} vs {t2.labels}"
        )
    counts = t1.counts + t2.counts
    # both addends are non-negative int64, so a sum below an addend wrapped
    wrapped = counts < t1.counts
    if wrapped.any():
        i, j = np.argwhere(wrapped)[0]
        value = int(t1.counts[i, j]) + int(t2.counts[i, j])
        raise CountOverflowError(f"pooled count {value} at cell ({i}, {j}) does not fit in int64")
    weights = metric_weights(validate_table(t1.labels, counts), metric)[:, None]
    s1, s2 = (skew_matrix(t, lam) for t in (t1, t2))
    s_plus, s_minus = _frozen(s1 + s2), _frozen(s1 - s2)
    plus, minus = paired_svd(s_plus), paired_svd(s_minus)
    size, n_dims = t1.size, plus.n_dims
    # odd sizes give each component one more zero value, its null dimension
    values = np.zeros(2 * size)
    values[:n_dims] = plus.singular_values
    values[size : size + n_dims] = minus.singular_values
    values = _structural_zeros(values, values.max())
    svd_plus = PairedSVD(plus.left_vectors, _frozen(values[:n_dims]))
    svd_minus = PairedSVD(minus.left_vectors, _frozen(values[size : size + n_dims]))
    # pair values are exactly equal, so the stable merge keeps pairs adjacent
    # and sends exact ties to the sum component first
    order = np.argsort(-values, kind="stable")
    classes = tuple(
        DimensionClass(
            "sum" if i < size else "difference", int(i % size) + 1, float(values[i])
        )
        for i in order
    )
    sum_rows, sum_cols = _first_block(svd_plus, weights, size)
    difference_rows, difference_cols = _first_block(svd_minus, weights, size)
    return MatchedAnalysis(
        labels=t1.labels,
        lam=require_lambda(lam),
        metric=metric,
        skew_first=s1,
        skew_second=s2,
        s_plus=s_plus,
        s_minus=s_minus,
        svd_plus=svd_plus,
        svd_minus=svd_minus,
        dim_classes=classes,
        sum_rows=sum_rows,
        sum_cols=sum_cols,
        difference_rows=difference_rows,
        difference_cols=difference_cols,
    )
