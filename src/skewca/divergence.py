"""Asymmetry quantification for square contingency tables.

Implements the symmetry chi-square test, the power-divergence-type
asymmetry measure (a [0,1] index parameterized by lam, reducing to the
Hellinger, Kullback-Leibler, Cressie-Read, and Pearson forms at
lam = -1/2, 0, 2/3, 1), its per-cell decomposition, and the chi-square
calibrated power-divergence test statistic.

Every quantity here depends on a cell (i, j) only through the pair
(p_ij, p_ji), so all of them are computed over the two vectors that the
strict upper triangle gathers from the table and its transpose. One
kernel, ``pair_departures``, evaluates the measure at a whole vector of
lam values: by the per-cell route and by the divergence definition,
checked against each other to 1e-12.

Every quantity here is a plug-in functional of the cell probabilities,
so it is invariant under scaling all counts by a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisquare import chi_square_sf
from .errors import (
    ConsistencyError,
    DegenerateTableError,
    LambdaOutOfRangeError,
)
from .table import ContingencyTable, ProbabilityTable, _frozen, to_probabilities

# lam values closer to 0 than this use the analytic lam -> 0 limit; the
# generic formula is 0/0 at 0 and loses accuracy in a shrinking band around it.
LAMBDA_ZERO_TOL = 1e-10

_LN2 = math.log(2.0)

NAMED_DIVERGENCES = {
    "hellinger": -0.5,
    "kl": 0.0,
    "cressie-read": 2.0 / 3.0,
    "pearson": 1.0,
}


@dataclass(frozen=True)
class BowkerResult:
    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class AsymmetryProfile:
    """The asymmetry measure together with its per-cell decomposition.

    ``phi_cells[i, j]`` is the non-negative departure carried by cell
    (i, j); it equals ``phi_cells[j, i]`` and the off-diagonal total is
    ``phi_total``. ``zero_pair_cells`` lists pairs (i, j), i < j, where
    both opposing cells are empty; those cells contribute 0 by continuous
    extension.
    """

    lam: float
    delta: float
    phi_total: float
    phi_cells: np.ndarray = field(repr=False)
    zero_pair_cells: tuple[tuple[int, int], ...] = ()


def require_lambda(lam: float) -> float:
    lam = float(lam) + 0.0  # -0.0, the KL case, comes back as +0.0
    if not lam > -1.0 or math.isinf(lam) or math.isnan(lam):
        raise LambdaOutOfRangeError(f"lam must be a finite number > -1, got {lam}")
    return lam


def power_divergence_scale(lam: float) -> float:
    """The factor lam*(lam+1)/(2**lam - 1), taken at its limit 1/ln 2 for lam = 0.

    This converts between the normalized asymmetry measure and the
    chi-square calibrated divergence statistic; both sides of that
    conversion must use the same branch.
    """
    lam = require_lambda(lam)
    if abs(lam) < LAMBDA_ZERO_TOL:
        return 1.0 / _LN2
    return lam * (lam + 1.0) / math.expm1(lam * _LN2)


@dataclass(frozen=True)
class PairDepartures:
    """The measure over P category pairs at L values of lam.

    ``cells[l, k]`` is the departure carried by each cell of pair k at
    the l-th lam; ``totals[l]`` is the measure by the per-cell route (twice
    the row sum of ``cells``), capped at 1 against rounding, and
    ``divergence[l]`` the unscaled divergence sum over occupied off-diagonal cells,
    sum p_ij [(2 p_ij / (p_ij + p_ji))^lam - 1] (sum p_ij ln(...) at lam = 0).
    """

    cells: np.ndarray = field(repr=False)
    totals: np.ndarray = field(repr=False)
    divergence: np.ndarray = field(repr=False)


def upper_triangle(size: int) -> np.ndarray:
    """Mask of the cells (i, j) with i < j, in row-major pair order.

    ``m[mask]`` and ``m.T[mask]`` gather the two cells of every category
    pair of a square matrix ``m``.
    """
    index = np.arange(size)
    return index[:, None] < index


def symmetric_cells(cells: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(L, R, R) symmetric matrices from (L, P) pair departures gathered by ``upper``."""
    stack = np.zeros((len(cells), *upper.shape))
    mask = upper[None].repeat(len(cells), axis=0)  # a full-depth mask takes numpy's fast path
    stack[mask] = cells.ravel()
    stack.transpose(0, 2, 1)[mask] = cells.ravel()
    return stack


def _overflow(what: str, lams: np.ndarray, finite: np.ndarray) -> LambdaOutOfRangeError:
    return LambdaOutOfRangeError(
        f"{what} overflows double precision at lam={float(lams[~finite][0])}"
    )


def _weighted_expm1(
    lams: np.ndarray, logs: np.ndarray, weights: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[l, k] = weights[k] * expm1(lams[l] * logs[k]), computed in place."""
    np.multiply.outer(lams, logs, out=out)
    np.expm1(out, out=out)
    out *= weights
    return out


def pair_departures(a: np.ndarray, b: np.ndarray, delta: float, lams) -> PairDepartures:
    """Departures of the pairs (a[k], b[k]) at every lam, by both routes.

    The per-cell route gives each cell of pair k the departure
    (a+b)/(2 delta) [1 - 2^lam/(2^lam - 1) (1 - s1^(1+lam) - s2^(1+lam))]
    with s1 = a/(a+b), s2 = 1 - s1, written with expm1 so that it stays
    accurate for lam within a few ulp of the lam = 0 branch point; equal
    and doubly-empty pairs get exactly 0. The divergence route sums the
    definition over the occupied cells. The per-cell route cancels once
    s^(1+lam) falls below eps; a lam whose two totals differ by more than
    1e-11 relative gives each cell half its pair's divergence instead,
    divided by 2^lam - 1 before 2 delta, a product that overflows near
    lam = 1023. The two measures must then agree to 1e-12; a disagreement
    is a numerical defect, not a property of data.

    Raises:
        LambdaOutOfRangeError: some lam <= -1 or non-finite, or the
            measure overflows double precision there; checked first.
        DegenerateTableError: delta <= 0, all mass on the diagonal.
        ConsistencyError: the two routes disagree.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    bad = ~(lams > -1.0) | np.isinf(lams)
    if bad.any():
        raise LambdaOutOfRangeError(f"lam must be a finite number > -1, got {lams[bad][0]}")
    if not delta > 0.0:
        raise DegenerateTableError("all mass on the diagonal: asymmetry is undefined")
    near0 = np.abs(lams) < LAMBDA_ZERO_TOL
    # the generic formulas run at lam = 1 on near-zero rows, which then take
    # the analytic lam -> 0 limit instead
    generic = np.where(near0, 1.0, lams)
    tot = a + b
    work = np.empty((lams.size, a.size))
    # two pair-sized buffers, reused by both routes: a cell's share of its
    # pair (or twice that) and its log, taken as 0 on empty cells
    share = np.empty_like(a)
    logs = np.empty_like(a)
    with np.errstate(over="ignore"):  # overflow is detected below and raised
        em = np.expm1(generic * _LN2)  # 2^lam - 1
        if not np.isfinite(em).all():
            raise _overflow("measure", lams, np.isfinite(em))

        # per-cell route: s1 = a / (a + b), then s2 = 1 - s1 in the same buffer,
        # the exact complement, which keeps 1 - s1 - s2 identically zero
        share.fill(0.0)
        np.divide(a, tot, out=share, where=tot > 0.0)
        cells = np.zeros_like(work)
        entropy = np.zeros_like(a) if near0.any() else None
        for _ in ("s1", "s2"):
            logs.fill(0.0)
            np.log(share, out=logs, where=share > 0.0)
            cells += _weighted_expm1(generic, logs, share, work)
            if entropy is not None:
                logs *= share
                entropy += logs
            np.subtract(1.0, share, out=share)

        # divergence route: the ratio 2 p_ij / (p_ij + p_ji) of each occupied cell;
        # work ends with each pair's sum, in which its two terms cancel near lam = -1
        a_terms = np.empty_like(work)
        log_divergence = 0.0
        for own, out in ((a, a_terms), (b, work)):
            share.fill(0.5)
            np.divide(own, tot, out=share, where=own > 0.0)
            share *= 2.0
            np.log(share, out=logs)
            _weighted_expm1(generic, logs, own, out)
            log_divergence += own @ logs
        work += a_terms
        divergence = work.sum(axis=1)
    # cells now holds s1^(1+lam) + s2^(1+lam) - 1
    cells *= (1.0 + 1.0 / em)[:, None]
    cells += 1.0
    tot /= 2.0 * delta  # now the prefactor (a + b) / (2 delta)
    cells *= tot
    if entropy is not None:
        cells[near0] = tot * (1.0 + entropy / _LN2)
        divergence[near0] = log_divergence
    np.maximum(cells, 0.0, out=cells)
    cells *= (a != b) & (tot > 0.0)
    totals = 2.0 * cells.sum(axis=1)
    other = divergence / delta / np.where(near0, _LN2, em)
    finite = np.isfinite(totals) & np.isfinite(other)
    if not finite.all():
        raise _overflow("measure", lams, finite)
    # rows where the per-cell route cancelled take the divergence route
    lost = ~near0 & (np.abs(totals - other) > 1e-11 * other)
    if lost.any():
        cells[lost] = np.maximum(work[lost] / em[lost][:, None] / (2.0 * delta), 0.0)
        totals[lost] = 2.0 * cells[lost].sum(axis=1)
    gap = np.abs(totals - other)
    if gap.max() > 1e-12:
        worst = int(np.argmax(gap))
        raise ConsistencyError(
            f"asymmetry measure mismatch between definitions at lam={lams[worst]}: "
            f"{totals[worst]!r} vs {other[worst]!r}"
        )
    np.minimum(totals, 1.0, out=totals)
    return PairDepartures(cells=cells, totals=totals, divergence=divergence)


def bowker_statistic(t: ContingencyTable) -> BowkerResult:
    """Chi-square test of the symmetry hypothesis n_ij ~ n_ji.

    Sums (n_ij - n_ji)^2 / (n_ij + n_ji) over unordered category pairs,
    skipping pairs with no observations in either direction. The degrees
    of freedom are R(R-1)/2 regardless of skipped pairs.
    """
    upper = upper_triangle(t.size)
    above, below = t.counts[upper].astype(float), t.counts.T[upper].astype(float)
    tot = above + below
    squares = (above - below) ** 2
    stat = float(np.divide(squares, tot, out=np.zeros_like(tot), where=tot > 0.0).sum())
    dof = t.size * (t.size - 1) // 2
    return BowkerResult(statistic=stat, dof=dof, p_value=chi_square_sf(dof, stat))


def asymmetry_measure(p: ProbabilityTable, lam: float) -> AsymmetryProfile:
    """The [0,1] asymmetry measure with its per-cell decomposition.

    Both of the measure's routes run in ``pair_departures``, which insists
    they agree to 1e-12.

    Raises:
        LambdaOutOfRangeError: lam <= -1, or the measure overflows.
        DegenerateTableError: every observation is on the diagonal.
    """
    lam = require_lambda(lam)
    upper = upper_triangle(p.size)
    a, b = p.p[upper], p.p.T[upper]
    pairs = pair_departures(a, b, p.delta, lam)
    zero_pairs: tuple[tuple[int, int], ...] = ()
    empty = np.flatnonzero(a + b == 0.0)
    if empty.size:
        rows, cols = np.nonzero(upper)
        zero_pairs = tuple(zip(rows[empty].tolist(), cols[empty].tolist()))
    return AsymmetryProfile(
        lam=lam,
        delta=p.delta,
        phi_total=float(pairs.totals[0]),
        phi_cells=_frozen(symmetric_cells(pairs.cells, upper)[0]),
        zero_pair_cells=zero_pairs,
    )


def power_divergence_statistic(t: ContingencyTable, lam: float) -> float:
    """Chi-square calibrated power-divergence statistic for symmetry.

    Evaluates 2n/(lam (lam+1)) * sum p_ij [(2 p_ij/(p_ij+p_ji))^lam - 1]
    at the plug-in probabilities (the log form at lam = 0). At lam = 1
    this is exactly the symmetry chi-square statistic. The algebraic
    identity with the asymmetry measure (statistic = 2 n delta Phi / c,
    with c the power-divergence scale) is verified to 1e-10.
    """
    lam = require_lambda(lam)
    p = to_probabilities(t)
    upper = upper_triangle(p.size)
    pairs = pair_departures(p.p[upper], p.p.T[upper], p.delta, lam)
    stat = 2.0 * t.n * float(pairs.divergence[0])
    if abs(lam) >= LAMBDA_ZERO_TOL:
        stat /= lam * (lam + 1.0)
    if not math.isfinite(stat):
        raise LambdaOutOfRangeError(f"statistic overflows double precision at lam={lam}")
    via_measure = 2.0 * t.n * p.delta * float(pairs.totals[0]) / power_divergence_scale(lam)
    if abs(stat - via_measure) > 1e-10 * max(1.0, abs(stat)):
        raise ConsistencyError(
            f"power-divergence statistic mismatch: {stat!r} vs {via_measure!r}"
        )
    return stat
