"""Metamorphic invariants: relabelling and transposing a table.

Permuting the categories of a table permutes every per-category result,
and transposing it keeps the measure, the statistic and the singular values
while the row and column points swap. The coordinates themselves are fixed
only up to a rotation inside each plane of equal singular values, so only
quantities that no such rotation changes are compared: the measure, the
statistic, the singular values and contributions, the Gram matrices of the
points, their distances, the circles' radii and their verdicts.

The tolerances follow from backward error, not from tuning. Each
factorization is exact for a skew matrix within ``_backward(S)`` =
8 R eps sigma_1 of S, so each singular value moves at most that far. The
plane of pair 1 turns by at most that over the gap sigma_1 - sigma_3 to
pair 2 (Davis and Kahan 1970), which bounds every dims 1-2 quantity.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewca import (
    asymmetry_measure,
    confidence_regions,
    decompose,
    origin_distances,
    skew_from_profile,
    validate_table,
)
from skewca.chisquare import chi_square_quantile
from skewca.divergence import power_divergence_statistic

EPS = np.finfo(float).eps

# a fixed example sequence, so that tier-1 stays deterministic and within seconds
INVARIANTS = settings(derandomize=True, max_examples=60, deadline=None)

LAMBDAS = (-0.5, 0.0, 2.0 / 3.0, 1.0, 3.0)
ALPHA = 0.05


@st.composite
def tables(draw):
    """An asymmetric R x R table of small counts, R = 2..7, with a permutation of its categories."""
    size = draw(st.integers(2, 7))
    counts = draw(arrays(np.int64, (size, size), elements=st.integers(0, 40)))
    assume((counts != counts.T).any())
    return counts, np.array(draw(st.permutations(range(size))))


class Analysis:
    """One table's results at lam under a metric, circles included where they are defined."""

    def __init__(self, counts, lam, metric):
        self.table = t = validate_table([f"c{k}" for k in range(len(counts))], counts)
        profile = asymmetry_measure(t, lam)
        self.phi, self.cells = profile.phi_total, profile.phi_cells
        self.empty_pairs = profile.zero_pair_cells
        self.statistic = power_divergence_statistic(t, lam)
        self.dec = dec = decompose(skew_from_profile(t, profile), t, metric)
        self.rows, self.cols = dec.row_coords, dec.col_coords
        self.regions = None
        if metric == "averaged" and t.size > 2:
            self.regions = confidence_regions(dec, t, profile, ALPHA)
            # the circles' q_alpha / T: a squared radius is it times the dims 1-2 distance squared
            self.calibration = chi_square_quantile(t.size * (t.size - 1) // 2, ALPHA) / self.statistic

    def gram(self, a, b, dims=None):
        """(F_a F_b^T) over all dims, or over the first ``dims``: no in-plane rotation changes it."""
        a, b = getattr(self, a), getattr(self, b)
        return a[:, :dims] @ b[:, :dims].T


def _backward(x: Analysis) -> float:
    """How far from its skew matrix each factorization may be exact: 8 R eps sigma_1."""
    return 8 * x.table.size * EPS * float(x.dec.singular_values[0])


def _plane_tilt(x: Analysis) -> float:
    """Bound on the turn of pair 1's plane: backward error over the gap to pair 2."""
    values = x.dec.singular_values
    gap = float(values[0] - (values[2] if len(values) > 2 else 0.0))
    return _backward(x) / gap if gap > 0.0 else math.inf


def _gram_tolerances(x: Analysis) -> tuple[float, float]:
    """Bounds on a Gram entry's change, over all dims and over dims 1-2.

    An entry is w_i w_j (sums of a_ik a_jk sigma_k^2); over all dims it is
    w_i w_j (S S^T)_ij, which moves by at most 4 w_max^2 sigma_1 times the
    backward error, and over dims 1-2 it also turns with the plane.
    """
    scale = float(np.max(x.dec.metric_weights)) ** 2 * float(x.dec.singular_values[0]) ** 2
    full = 4.0 * scale * _backward(x) / float(x.dec.singular_values[0])
    return full, full + 4.0 * scale * _plane_tilt(x)


def _assert_close(ours, theirs, tol, what):
    gap = float(np.max(np.abs(np.asarray(ours) - np.asarray(theirs)), initial=0.0))
    assert gap <= tol, (what, gap, tol)


def _pairs(size: int) -> int:
    return size * (size - 1) // 2


def _assert_same_spectrum(a: Analysis, b: Analysis) -> None:
    """Phi, T, singular values and contributions agree to their error bounds."""
    pairs = _pairs(a.table.size)
    # each of Phi's P non-negative terms is the same; only their summation order differs
    _assert_close(b.phi, a.phi, 2 * pairs * EPS * a.phi, "phi")
    _assert_close(b.statistic, a.statistic, 4 * pairs * EPS * a.statistic, "statistic")
    tol = _backward(a)
    _assert_close(b.dec.singular_values, a.dec.singular_values, tol, "singular values")
    # 100 sigma_k^2 / I moves by at most 200 (R + 1) sigma_1 tol / I, I the inertia
    share = 200.0 * (a.table.size + 1) * float(a.dec.singular_values[0]) * tol / a.dec.total_inertia
    _assert_close(b.dec.contributions, a.dec.contributions, share, "contributions")


def _assert_same_verdicts(ours, theirs, squares, tol) -> None:
    """Equal ``contains_origin`` for every circle whose squared radius is above its bound ``tol``.

    A circle of positive radius covers the origin when T <= q; one of radius 0
    covers it when its centre is the origin. Within ``tol`` of 0 rounding
    picks the rule, which is the defect that
    ``test_a_category_at_the_origin_covers_it_in_every_labelling`` pins.
    """
    decided = squares.min(axis=0) > tol
    assert [r.contains_origin for r, d in zip(ours, decided) if d] == [
        r.contains_origin for r, d in zip(theirs, decided) if d
    ]


@INVARIANTS
@given(tables(), st.sampled_from(LAMBDAS), st.sampled_from(("averaged", "identity")))
def test_relabelling_permutes_every_per_category_result(drawn, lam, metric):
    counts, perm = drawn
    a = Analysis(counts, lam, metric)
    b = Analysis(counts[np.ix_(perm, perm)], lam, metric)
    _assert_same_spectrum(a, b)
    # each cell's departure is its pair's alone
    _assert_close(b.cells, a.cells[np.ix_(perm, perm)], 4 * EPS * a.phi, "phi cells")
    assert {frozenset(perm[list(pair)]) for pair in b.empty_pairs} == set(map(frozenset, a.empty_pairs))
    # a weight is its category's margin, summed in another order, to the power -1/2
    weights = a.dec.metric_weights
    _assert_close(b.dec.metric_weights, weights[perm], 2 * len(perm) * EPS * np.max(weights), "weights")
    full, plane = _gram_tolerances(a)
    for sides in (("rows", "rows"), ("cols", "cols"), ("rows", "cols")):
        _assert_close(b.gram(*sides), a.gram(*sides)[np.ix_(perm, perm)], full, sides)
        _assert_close(b.gram(*sides, 2), a.gram(*sides, 2)[np.ix_(perm, perm)], plane, sides)
    _assert_close(origin_distances(b.dec) ** 2, origin_distances(a.dec)[perm] ** 2, full, "distances")
    if a.regions is None:
        return
    size = len(perm)
    theirs = [a.regions[axis * size + k] for axis in range(2) for k in perm]
    squares = np.array([[r.radius**2 for r in b.regions], [r.radius**2 for r in theirs]])
    # q / T moves with the statistic, by at most 4 P eps relative
    tol = a.calibration * plane + 4 * _pairs(size) * EPS * squares.max()
    _assert_close(squares[0], squares[1], tol, "radii")
    _assert_same_verdicts(b.regions, theirs, squares, tol)


@INVARIANTS
@given(tables(), st.sampled_from(LAMBDAS), st.sampled_from(("averaged", "identity")))
def test_transposition_keeps_the_measure_and_swaps_rows_and_columns(drawn, lam, metric):
    counts, _ = drawn
    a = Analysis(counts, lam, metric)
    b = Analysis(counts.T.copy(), lam, metric)
    # every pair keeps its sum and the size of its difference, so the kernel sees the same pairs
    assert b.phi == a.phi
    assert b.statistic == a.statistic
    assert np.array_equal(b.cells, a.cells.T)
    _assert_same_spectrum(a, b)
    full, plane = _gram_tolerances(a)
    for (ours, theirs) in ((("rows", "rows"), ("cols", "cols")), (("rows", "cols"), ("cols", "rows"))):
        _assert_close(b.gram(*ours), a.gram(*theirs), full, ours)
        _assert_close(b.gram(*ours, 2), a.gram(*theirs, 2), plane, ours)
    if a.regions is not None:
        size = a.table.size
        # the row circles of the transpose are the column circles of the table
        swapped = a.regions[size:] + a.regions[:size]
        squares = np.array([[r.radius**2 for r in b.regions], [r.radius**2 for r in swapped]])
        _assert_close(squares[0], squares[1], a.calibration * plane, "radii")
        _assert_same_verdicts(b.regions, swapped, squares, a.calibration * plane)


@pytest.mark.xfail(reason="a category at the origin in exact arithmetic may get a radius of rounding size, "
                   "and then its verdict is the symmetry test's, not 'at the origin'")
@pytest.mark.parametrize(
    ("counts", "perm", "at_origin"),
    [
        # category 2 is symmetric against every other one, so S has a zero row there
        ([[1, 0, 1, 16], [1, 1, 1, 1], [1, 1, 1, 1], [0, 33, 1, 1]], [0, 1, 2, 3], 2),
        # categories 0 and 1 carry only pair 2, so they sit at the origin of the dims 1-2 plane
        ([[0, 18, 0, 0, 0], [0] * 5, [0] * 5, [0, 0, 26, 0, 0], [0] * 5], [0, 2, 1, 3, 4], 0),
    ],
)
def test_a_category_at_the_origin_covers_it_in_every_labelling(counts, perm, at_origin):
    counts, perm = np.array(counts), np.array(perm)
    relabelled = int(np.flatnonzero(perm == at_origin)[0])
    for table, position in ((counts, at_origin), (counts.T, at_origin), (counts[np.ix_(perm, perm)], relabelled)):
        regions = Analysis(table, -0.5, "averaged").regions
        assert regions[position].contains_origin and regions[len(perm) + position].contains_origin
