"""Validated square contingency tables and their empirical probability form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateLabelError,
    EmptyTableError,
    LabelCountMismatchError,
    NegativeEntryError,
    NonSquareError,
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        EmptyTableError: all counts are zero.
        DuplicateLabelError: labels repeat.
        LabelCountMismatchError: label count differs from the matrix size.
    """
    arr = np.asarray(counts)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"counts must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise NonSquareError(f"counts must be a square matrix with R >= 2, got shape {arr.shape}")
    size = arr.shape[0]
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise NegativeEntryError(f"negative count {arr[i, j]} at cell ({i}, {j})")
    labels = tuple(str(lab) for lab in labels)
    if len(labels) != size:
        raise LabelCountMismatchError(f"{len(labels)} labels for a {size}x{size} table")
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabelError(f"duplicate label {lab!r}")
        seen.add(lab)
    total = int(arr.sum())
    if total < 1:
        raise EmptyTableError("table has no observations")
    return ContingencyTable(labels=labels, counts=_frozen(arr.astype(np.int64)), n=total)


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
