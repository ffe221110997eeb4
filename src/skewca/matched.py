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
from .table import ContingencyTable, ProbabilityTable, _frozen, to_probabilities, validate_table


@dataclass(frozen=True)
class DimensionClass:
    """Attribution of one block dimension to the sum or difference component."""

    component: str  # "sum" or "difference"
    source_dim: int  # 1-based dimension within that component's own SVD
    singular_value: float


@dataclass(frozen=True)
class MatchedAnalysis:
    labels: tuple[str, ...]
    lam: float
    skew_first: np.ndarray = field(repr=False)
    skew_second: np.ndarray = field(repr=False)
    s_plus: np.ndarray = field(repr=False)
    s_minus: np.ndarray = field(repr=False)
    svd_plus: PairedSVD = field(repr=False)
    svd_minus: PairedSVD = field(repr=False)
    dim_classes: tuple[DimensionClass, ...]
    pooled: ProbabilityTable = field(repr=False)

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


@dataclass(frozen=True)
class MatchedCoordinates:
    """First-block principal coordinates split by component.

    Rows come from left singular vectors, columns from right ones. Each
    matrix is R x R, one column per block dimension of the component by
    descending singular value; for odd R the last is its zero null one.
    """

    metric: str
    sum_rows: np.ndarray = field(repr=False)
    sum_cols: np.ndarray = field(repr=False)
    sum_singular_values: np.ndarray = field(repr=False)
    difference_rows: np.ndarray = field(repr=False)
    difference_cols: np.ndarray = field(repr=False)
    difference_singular_values: np.ndarray = field(repr=False)


def build_matched(
    t1: ContingencyTable, t2: ContingencyTable, lam: float
) -> MatchedAnalysis:
    """Skew matrices, sum/difference SVDs, and the classified block dimensions.

    Both tables must share the same labels in the same order and both must
    carry off-diagonal mass. The two skew matrices use the same lam. The
    block's singular values are the sum and difference values merged in
    descending order, and ``dim_classes`` attributes each to its component;
    the block matrix itself is never built here. As in the block's SVD, values
    at most ZERO_SINGULAR_RTOL of the largest are zeros, in the components too.
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
    pooled = to_probabilities(validate_table(t1.labels, counts))
    s1, s2 = (skew_matrix(to_probabilities(t), lam) for t in (t1, t2))
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
    return MatchedAnalysis(
        labels=t1.labels,
        lam=require_lambda(lam),
        skew_first=s1,
        skew_second=s2,
        s_plus=s_plus,
        s_minus=s_minus,
        svd_plus=svd_plus,
        svd_minus=svd_minus,
        dim_classes=classes,
        pooled=pooled,
    )


def matched_coordinates(m: MatchedAnalysis, metric: str = "identity") -> MatchedCoordinates:
    """First-block principal coordinates for the sum and difference components.

    Under the identity metric (the default for matched analyses) the
    coordinates are the block singular vectors scaled by their singular
    values, reported on the first block of categories: the component
    vectors over sqrt(2). The averaged metric weights rows by the pooled
    margins of the element-wise sum of the two tables.
    """
    size = m.size
    weights = metric_weights(m.pooled, metric)[:, None]

    def padded(a: np.ndarray) -> np.ndarray:
        # odd R keeps the component's null dimension as a zero column
        return np.concatenate([a, np.zeros(a.shape[:-1] + (size - a.shape[-1],))], axis=-1)

    def first_block(svd: PairedSVD) -> tuple[np.ndarray, np.ndarray]:
        rows = weights * (svd.left_vectors / math.sqrt(2.0) * svd.singular_values)
        return padded(rows), padded(_quarter_turn(rows))

    sum_rows, sum_cols = first_block(m.svd_plus)
    difference_rows, difference_cols = first_block(m.svd_minus)
    return MatchedCoordinates(
        metric=metric,
        sum_rows=sum_rows,
        sum_cols=sum_cols,
        sum_singular_values=padded(m.svd_plus.singular_values),
        difference_rows=difference_rows,
        difference_cols=difference_cols,
        difference_singular_values=padded(m.svd_minus.singular_values),
    )
