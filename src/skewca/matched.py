"""Joint sum/difference analysis of two matched square tables.

Two tables over identical categories yield skew matrices S1 and S2 on a
common [0,1] scale, so S1 + S2 (shared asymmetry) and S1 - S2
(differential asymmetry) are directly comparable even when the sample
sizes differ wildly. The block matrix [[S1, S2], [S2, S1]] carries both
decompositions at once: its singular values are the union of the sum and
difference singular values, interleaved in descending order, and its
singular vectors stack the component vectors in duplicated (sum) or
sign-flipped (difference) blocks. Its SVD is therefore assembled from
the two component SVDs instead of being computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import PairedSVD, _completed, metric_weights, paired_svd, skew_matrix
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
    block_svd: PairedSVD = field(repr=False)
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


@dataclass(frozen=True)
class MatchedCoordinates:
    """First-block principal coordinates split by component.

    Rows come from left singular vectors, columns from right ones. Each
    matrix is R x (number of block dimensions attributed to the
    component), columns ordered by descending singular value.
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
    """Skew matrices, sum/difference SVDs, and the classified block SVD.

    Both tables must share the same labels in the same order and both must
    carry off-diagonal mass. The two skew matrices use the same lam. The
    block SVD is assembled from the sum and difference SVDs; the block
    matrix itself is never built here (``MatchedAnalysis.block`` forms it
    on demand).
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
    p1 = to_probabilities(t1)
    p2 = to_probabilities(t2)
    s1 = skew_matrix(p1, lam)
    s2 = skew_matrix(p2, lam)
    s_plus = _frozen(s1 + s2)
    s_minus = _frozen(s1 - s2)
    svd_plus = paired_svd(s_plus)
    svd_minus = paired_svd(s_minus)
    size = t1.size
    # the block maps [b; b] to [S+ b; S+ b] and [b; -b] to [S- b; -S- b], so
    # its singular vectors are the component vectors, duplicated for the sum
    # and sign-flipped for the difference; odd sizes add each null vector
    plus_vecs = _completed(svd_plus.left_vectors, size)
    minus_vecs = _completed(svd_minus.left_vectors, size)
    vectors = np.block([[plus_vecs, minus_vecs], [plus_vecs, -minus_vecs]]) / math.sqrt(2.0)
    values = np.zeros(2 * size)
    values[: svd_plus.n_dims] = svd_plus.singular_values
    values[size : size + svd_minus.n_dims] = svd_minus.singular_values
    # pair values are exactly equal, so the stable merge keeps pairs adjacent
    # and sends exact ties to the sum component first
    order = np.argsort(-values, kind="stable")
    block_svd = PairedSVD(
        left_vectors=_frozen(vectors[:, order]), singular_values=_frozen(values[order])
    )
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
        block_svd=block_svd,
        dim_classes=classes,
        pooled=pooled,
    )


def matched_coordinates(m: MatchedAnalysis, metric: str = "identity") -> MatchedCoordinates:
    """First-block principal coordinates for the sum and difference components.

    Under the identity metric (the default for matched analyses) the
    coordinates are the block singular vectors scaled by their singular
    values, reported on the first block of categories. The averaged
    metric weights rows by the pooled margins of the element-wise sum of
    the two tables.
    """
    size = m.size
    weights = metric_weights(m.pooled, metric)
    sums = [i for i, c in enumerate(m.dim_classes) if c.component == "sum"]
    diffs = [i for i, c in enumerate(m.dim_classes) if c.component == "difference"]
    left = m.block_svd.left_vectors
    right = m.block_svd.right_vectors
    values = m.block_svd.singular_values

    def block_coords(vectors: np.ndarray, dims: list[int]) -> np.ndarray:
        coords = vectors[:size, dims] * values[dims][None, :]
        return weights[:, None] * coords

    return MatchedCoordinates(
        metric=metric,
        sum_rows=block_coords(left, sums),
        sum_cols=block_coords(right, sums),
        sum_singular_values=values[sums].copy(),
        difference_rows=block_coords(left, diffs),
        difference_cols=block_coords(right, diffs),
        difference_singular_values=values[diffs].copy(),
    )
