"""Validated square contingency tables and their empirical probability form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CountOverflowError,
    DuplicateLabelError,
    EmptyTableError,
    LabelCountMismatchError,
    NegativeEntryError,
    NonSquareError,
)


# Counts are stored as int64; a count or a total above this is rejected.
INT64_MAX = int(np.iinfo(np.int64).max)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _count_array(counts) -> np.ndarray:
    """counts as an integer array; Python ints beyond int64 stay exact in an object array."""
    try:
        arr = np.asarray(counts)
    except ValueError as exc:  # ragged nested sequences
        raise NonSquareError(f"counts must be a square matrix: {exc}") from None
    if arr.dtype.kind in "iu":
        return arr
    if arr.dtype.kind == "O" or not isinstance(counts, np.ndarray):
        # numpy infers float64 or object for Python ints that int64 cannot hold
        exact = np.array(counts, dtype=object)
        if exact.size and all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in exact.flat
        ):
            return exact
    raise TypeError(f"counts must be integers, got dtype {arr.dtype}")


@dataclass(frozen=True)
class ContingencyTable:
    """Square table of non-negative integer counts with ordered category labels.

    Instances are immutable; the counts array is marked read-only. Label order
    fixes the coordinate order of every downstream result.
    """

    labels: tuple[str, ...]
    counts: np.ndarray = field(repr=False)
    n: int

    @property
    def size(self) -> int:
        return len(self.labels)

    def scaled(self, k: int) -> "ContingencyTable":
        """Return a copy with every count multiplied by the positive integer k."""
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        if self.n * int(k) > INT64_MAX:
            raise CountOverflowError(f"total count {self.n} * {k} does not fit in int64")
        return validate_table(self.labels, self.counts * int(k))


@dataclass(frozen=True)
class ProbabilityTable:
    """Empirical cell probabilities p_ij = n_ij / n with margins.

    ``delta`` is the total off-diagonal mass, the normalizer of the
    asymmetry measure. A table with delta == 0 carries no information
    about symmetry and is rejected by downstream operations.
    """

    labels: tuple[str, ...]
    p: np.ndarray = field(repr=False)
    row_margins: np.ndarray = field(repr=False)
    col_margins: np.ndarray = field(repr=False)
    delta: float

    @property
    def size(self) -> int:
        return len(self.labels)


def validate_table(labels: Sequence[str], counts) -> ContingencyTable:
    """Validate labels and counts and build a ContingencyTable.

    Raises:
        NonSquareError: counts is not a square matrix or has fewer than
            two categories.
        NegativeEntryError: some count is negative.
        CountOverflowError: some count or the total exceeds 2**63 - 1.
        EmptyTableError: all counts are zero.
        DuplicateLabelError: labels repeat.
        LabelCountMismatchError: label count differs from the matrix size.
    """
    arr = _count_array(counts)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise NonSquareError(f"counts must be a square matrix with R >= 2, got shape {arr.shape}")
    size = arr.shape[0]
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise NegativeEntryError(f"negative count {arr[i, j]} at cell ({i}, {j})")
    if arr.dtype.kind != "i" and arr.max() > INT64_MAX:
        i, j = np.argwhere(arr > INT64_MAX)[0]
        raise CountOverflowError(f"count {arr[i, j]} at cell ({i}, {j}) does not fit in int64")
    arr = arr.astype(np.int64)
    labels = tuple(str(lab) for lab in labels)
    if len(labels) != size:
        raise LabelCountMismatchError(f"{len(labels)} labels for a {size}x{size} table")
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabelError(f"duplicate label {lab!r}")
        seen.add(lab)
    if arr.max() <= INT64_MAX // arr.size:
        total = int(arr.sum())  # cannot wrap
    else:
        total = sum(arr.ravel().tolist())
        if total > INT64_MAX:
            raise CountOverflowError(f"total count {total} does not fit in int64")
    if total < 1:
        raise EmptyTableError("table has no observations")
    return ContingencyTable(labels=labels, counts=_frozen(arr), n=total)


def to_probabilities(t: ContingencyTable) -> ProbabilityTable:
    """Convert counts to cell probabilities, margins, and off-diagonal mass."""
    p = t.counts / float(t.n)
    off = p.copy()
    np.fill_diagonal(off, 0.0)
    return ProbabilityTable(
        labels=t.labels,
        p=_frozen(p),
        row_margins=_frozen(p.sum(axis=1)),
        col_margins=_frozen(p.sum(axis=0)),
        delta=float(off.sum()),
    )
