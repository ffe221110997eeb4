"""Validated square contingency tables of counts with their exact category pairs."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError


# Counts are stored as int64; a count or a total above this is rejected.
INT64_MAX = int(np.iinfo(np.int64).max)

# what XML 1.0 or UTF-8 cannot carry: C0 controls but tab, LF and CR, lone surrogates, U+FFFE, U+FFFF
_UNWRITABLE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _count_array(counts) -> np.ndarray:
    """counts as an integer array; Python ints beyond int64 stay exact in an object array."""
    try:
        arr = np.asarray(counts)
    except ValueError as exc:  # ragged nested sequences
        raise InputError(f"counts must be a square matrix: {exc}") from None
    if arr.size == 0 or isinstance(counts, np.ndarray) and arr.dtype.kind in "iu":
        return arr  # an empty matrix fails the shape check
    # anything else goes cell by cell: numpy reads [True, 1] as int64, and infers float64
    # or object for Python ints that int64 cannot hold
    exact = np.array(counts, dtype=object)
    if exact.ndim == 2:  # any other shape fails the shape check
        for cell, x in np.ndenumerate(exact):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise InputError(f"counts must be integers, got {x!r} at cell {cell}")
    return exact


@dataclass(frozen=True)
class CategoryPairs:
    """The category pairs (i, j), i < j, of a table in row-major order: ``sums[k]`` and
    ``diffs[k]`` are n_ij + n_ji and n_ij - n_ji, exact in int64; ``off_diagonal`` is the
    total. ``measured`` maps each lam at which the measure was computed to its Phi, floats
    only, so that the statistic reads it instead of running the kernel again."""

    sums: np.ndarray = field(repr=False)
    diffs: np.ndarray = field(repr=False)
    off_diagonal: float
    measured: dict[float, float] = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """r = |diffs| / sums, 0 on an empty pair, and 1 - r, from sums - |diffs| for its digits."""
        gaps = np.abs(self.diffs)
        safe = np.where(self.sums > 0, self.sums, 1)
        return _frozen(gaps / safe), _frozen((safe - gaps) / safe)


@lru_cache
def upper_triangle(size: int) -> np.ndarray:
    """Read-only mask of the cells (i, j), i < j: ``m[mask]`` and ``m.T[mask]`` gather the
    two cells of every category pair of a square matrix ``m``, in row-major pair order."""
    index = np.arange(size)
    return _frozen(index[:, None] < index)


def pair_matrices(upper: np.ndarray, lower: np.ndarray, size: int) -> np.ndarray:
    """(L, R, R) matrices with upper[:, k] at pair k's cell (i, j) and lower[:, k] at (j, i)."""
    stack = np.zeros((len(upper), size, size))
    mask = upper_triangle(size)[None].repeat(len(upper), axis=0)  # numpy's fast path
    stack[mask] = upper.ravel()
    stack.transpose(0, 2, 1)[mask] = lower.ravel()
    return stack


@dataclass(frozen=True)
class ContingencyTable:
    """Square table of non-negative integer counts with ordered category labels.

    Instances are immutable; the counts array is marked read-only. Label order
    fixes the coordinate order of every downstream result.
    """

    labels: tuple[str, ...]
    counts: np.ndarray = field(repr=False)
    n: int
    pairs: CategoryPairs = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def p(self) -> np.ndarray:
        """Read-only cell probabilities n_ij / n, computed on each access."""
        return _frozen(self.counts / float(self.n))

    @property
    def delta(self) -> float:
        """Off-diagonal mass, the normalizer of the asymmetry measure; 0 leaves it undefined."""
        return self.pairs.off_diagonal / self.n

    def scaled(self, k: int) -> "ContingencyTable":
        """Return a copy with every count multiplied by the positive integer k."""
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise InputError(f"scale factor must be a positive integer, got {k!r}")
        if self.n * int(k) > INT64_MAX:
            raise InputError(f"total count {self.n} * {k} does not fit in int64")
        return validate_table(self.labels, self.counts * int(k))


def validate_table(labels: Sequence[str], counts) -> ContingencyTable:
    """Validate labels and counts and build a ContingencyTable.

    Raises:
        InputError: counts is not a square matrix of integers with at least
            two categories, a count is negative, a count or the total exceeds
            2**63 - 1, all counts are zero, the label count differs from the
            matrix size, or labels repeat or hold what XML or UTF-8 cannot carry.
    """
    arr = _count_array(counts)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise InputError(f"counts must be a square matrix with R >= 2, got shape {arr.shape}")
    size = arr.shape[0]
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise InputError(f"negative count {arr[i, j]} at cell ({i}, {j})")
    if arr.dtype.kind != "i" and arr.max() > INT64_MAX:
        i, j = np.argwhere(arr > INT64_MAX)[0]
        raise InputError(f"count {arr[i, j]} at cell ({i}, {j}) does not fit in int64")
    arr = arr.astype(np.int64)
    labels = tuple(str(lab) for lab in labels)
    if len(labels) != size:
        raise InputError(f"{len(labels)} labels for a {size}x{size} table")
    if _UNWRITABLE.search("".join(labels)):
        bad = next(lab for lab in labels if _UNWRITABLE.search(lab))
        raise InputError(f"label {bad!r} holds a character that XML or UTF-8 cannot carry")
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise InputError(f"duplicate label {lab!r}")
        seen.add(lab)
    if arr.max() <= INT64_MAX // arr.size:
        total = int(arr.sum())  # cannot wrap
    else:
        total = sum(arr.ravel().tolist())
        if total > INT64_MAX:
            raise InputError(f"total count {total} does not fit in int64")
    if total < 1:
        raise InputError("table has no observations")
    upper = upper_triangle(size)
    above = arr[upper]
    below = arr.T[upper]
    pairs = CategoryPairs(*map(_frozen, (above + below, above - below)), total - int(np.trace(arr)))
    return ContingencyTable(labels=labels, counts=_frozen(arr), n=total, pairs=pairs)


def to_probabilities(t: ContingencyTable) -> ContingencyTable:
    """Return ``t``, which carries its probabilities ``p`` and off-diagonal mass ``delta``;
    kept for its two callers, ``benchmarks/worker.py`` and ``benchmarks/test_bench.py``."""
    return t
