"""Asymmetry quantification for square contingency tables.

Implements the symmetry chi-square test, the power-divergence-type
asymmetry measure (a [0,1] index parameterized by lam, reducing to the
Hellinger, Kullback-Leibler, Cressie-Read, and Pearson forms at
lam = -1/2, 0, 2/3, 1), its per-cell decomposition, and the chi-square
calibrated power-divergence test statistic.

Every quantity here depends on a cell (i, j) only through the pair
(n_ij, n_ji), so all of them read the table's ``CategoryPairs``, each
pair's sum and difference exact in int64. One kernel, ``departures``,
evaluates the measure at a whole vector of lam values, with a formula
for each pair chosen from lam and r = |n_ij - n_ji| / (n_ij + n_ji).
Each quantity is invariant under scaling all counts by a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisquare import chi_square_sf
from .errors import AnalysisError, InputError
from .table import CategoryPairs, ContingencyTable, _frozen, pair_matrices, upper_triangle

# lam values closer to 0 than this take the lam -> 0 limit, where the formula is 0/0.
# The limit errs by O(lam), below double precision here; at or above the bound every
# lam * x the formula forms (x = ln 2 or log(1 +- r), r >= SERIES_MAX_R) is a normal double.
LAMBDA_ZERO_TOL = 1e-300

# pairs with r below this, and (1 + lam) r < 1, take the even series in r to its
# term in r^18, whose k-th ratio is (lam + SHIFT) (lam + SHIFT + 1) / DENOMINATOR r^2
SERIES_MAX_R = 0.1
_SERIES_SHIFT = -2.0 * np.arange(1, 9)
_SERIES_DENOMINATOR = (2.0 * np.arange(1, 9) + 1.0) * (2.0 * np.arange(1, 9) + 2.0)

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
    phi_total: float
    phi_cells: np.ndarray = field(repr=False)
    zero_pair_cells: tuple[tuple[int, int], ...] = ()


def require_lambda(lam: float) -> float:
    if isinstance(lam, (bool, np.bool_)):
        raise InputError(f"lam must be a finite number > -1, got {lam}")
    lam = float(lam) + 0.0  # -0.0, the KL case, comes back as +0.0
    if not lam > -1.0 or math.isinf(lam) or math.isnan(lam):
        raise InputError(f"lam must be a finite number > -1, got {lam}")
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


def _series(lams: np.ndarray, squares: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``scale`` g(r) / lam from r^2 = ``squares`` by the series (1+lam)/2 r^2 (t_0 + ... + t_8):
    t_0 = 1, t_k/t_(k-1) = (lam-2k)(lam+1-2k) r^2 / ((2k+1)(2k+2)), which r < SERIES_MAX_R
    and (1+lam) r < 1 bound by the larger of r^2 and 1/((2k+1)(2k+2)), so t_9 < 6e-17."""
    z = lams[:, None] + _SERIES_SHIFT
    total = np.zeros((lams.size, squares.size))
    # Horner's rule in r^2, from the last term: t_k = coefficient_k r^(2k)
    for coefficient in np.cumprod(z * (z + 1.0) / _SERIES_DENOMINATOR, axis=1).T[::-1, :, None]:
        total += coefficient
        total *= squares
    total += 1.0
    return ((1.0 + lams) / 2.0 * scale)[:, None] * squares * total


def _definition(lams, em, near0, r, lower):
    """u by the definition, [(1+r) expm1(lam log(1+r)) + (1-r) expm1(lam log(1-r))] / 2 over
    2^lam - 1; below lam = -1/2, where those terms cancel, [expm1((1+lam) log(1+r)) +
    expm1((1+lam) log(1-r))] / 2 over it; for |lam| < LAMBDA_ZERO_TOL, the limit over ln 2."""
    log_upper = np.log1p(r)
    log_lower = np.log(lower)  # -inf on a one-sided pair, whose u is set to 1 below
    low = (lams < -0.5)[:, None]
    exps = np.where(low, 1.0 + lams[:, None], lams[:, None])
    terms = np.where(low, 1.0, 1.0 + r) * np.expm1(exps * log_upper)
    terms += np.where(low, 1.0, lower) * np.expm1(exps * log_lower)
    terms /= 2.0 * em[:, None]
    if near0.any():
        terms[near0] = ((1.0 + r) * log_upper + lower * log_lower) / (2.0 * _LN2)
    np.copyto(terms, 1.0, where=lower == 0.0)  # g(1) = 2^lam - 1
    return terms


def departures(pairs: CategoryPairs, lams) -> tuple[np.ndarray, np.ndarray]:
    """The measure's departures of P ``pairs`` at L lams, each one > -1 and finite, as
    ``(cells, totals)``: ``cells[l, k]`` is the departure of each cell of pair k at the l-th
    lam and ``totals[l]`` the measure, capped at 1 against rounding.

    A cell of a pair with sum s carries s u / (2 delta), delta the off-diagonal total,
    u = g(r) / (2^lam - 1) and g(r) = ((1+r)^(1+lam) + (1-r)^(1+lam)) / 2 - 1 (Cressie
    and Read 1984). The formula for u is chosen from lam and r alone: ``_series`` where
    r < SERIES_MAX_R and (1+lam) r < 1, and for every r at a whole lam from 1 to 16,
    where it ends; ``_definition`` elsewhere. The definition summed over all pairs must
    agree to 1e-12; a disagreement is a numerical defect, not a property of data.

    Raises:
        AnalysisError: delta <= 0, all mass on the diagonal.
        InputError: the measure overflows, or underflows to 0 on asymmetric pairs.
        AssertionError: the definition disagrees with the measure, a bug.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if not pairs.off_diagonal > 0:
        raise AnalysisError("all mass on the diagonal: asymmetry is undefined")
    r, lower = pairs.ratios
    near0 = np.abs(lams) < LAMBDA_ZERO_TOL
    weights = pairs.sums / (2.0 * pairs.off_diagonal)  # each cell's share of delta
    with np.errstate(all="ignore"):  # overflow is raised below; the band's 0/0 is replaced
        em = np.expm1(lams * _LN2)  # 2^lam - 1
        scale = np.where(near0, 1.0 / _LN2, lams / em)  # u / (g / lam)
        u = _definition(lams, em, near0, r, lower)
        check = 2.0 * (u * weights).sum(axis=1)
        # at a whole lam from 1 to 16 the series ends by t_8, and it is exact for every r
        whole = (lams >= 1.0) & (lams <= 2 * len(_SERIES_SHIFT)) & (lams == np.round(lams))
        cols = np.flatnonzero((r < SERIES_MAX_R) | whole.any())
        rs = r[cols]
        fits = whole[:, None] | ((rs < SERIES_MAX_R) & ((1.0 + lams[:, None]) * rs < 1.0))
        u[:, cols] = np.where(fits, _series(lams, rs * rs, scale), u[:, cols])
        u *= weights  # now the cells
        totals = 2.0 * u.sum(axis=1)
    finite = np.isfinite(em) & np.isfinite(totals) & np.isfinite(check)
    if not finite.all():
        bad = float(lams[~finite][0])
        raise InputError(f"measure overflows double precision at lam={bad}")
    if pairs.diffs.any() and not totals.all():  # an asymmetric table measures above 0
        bad = float(lams[totals == 0][0])
        raise InputError(f"measure underflows double precision at lam={bad}")
    gap = np.abs(totals - check)
    if gap.max() > 1e-12:
        worst = int(np.argmax(gap))
        raise AssertionError(
            f"asymmetry measure mismatch between definitions at lam={lams[worst]}: "
            f"{totals[worst]!r} vs {check[worst]!r}"
        )
    np.minimum(totals, 1.0, out=totals)
    return u, totals


def bowker_statistic(t: ContingencyTable) -> BowkerResult:
    """Chi-square test of the symmetry hypothesis n_ij ~ n_ji.

    Sums (n_ij - n_ji)^2 / (n_ij + n_ji) over unordered category pairs,
    skipping pairs with no observations in either direction. The degrees
    of freedom are R(R-1)/2 regardless of skipped pairs.
    """
    stat = float((t.pairs.diffs.astype(float) ** 2 / np.maximum(t.pairs.sums, 1)).sum())
    dof = t.size * (t.size - 1) // 2
    return BowkerResult(statistic=stat, dof=dof, p_value=chi_square_sf(dof, stat))


def asymmetry_measure(t: ContingencyTable, lam: float) -> AsymmetryProfile:
    """The [0,1] asymmetry measure with its per-cell decomposition.

    ``departures`` evaluates it on the table's count pairs and checks
    it against the definition to 1e-12; Phi is recorded on the pairs.

    Raises:
        InputError: lam <= -1, or the measure overflows or underflows.
        AnalysisError: every observation is on the diagonal.
    """
    lam = require_lambda(lam)
    cells, totals = departures(t.pairs, lam)
    t.pairs.measured[lam] = phi = float(totals[0])
    zero_pairs: tuple[tuple[int, int], ...] = ()
    empty = np.flatnonzero(t.pairs.sums == 0)
    if empty.size:
        rows, cols = np.nonzero(upper_triangle(t.size))
        zero_pairs = tuple(zip(rows[empty].tolist(), cols[empty].tolist()))
    return AsymmetryProfile(
        lam=lam,
        phi_total=phi,
        phi_cells=_frozen(pair_matrices(cells, cells, t.size)[0]),
        zero_pair_cells=zero_pairs,
    )


def power_divergence_statistic(t: ContingencyTable, lam: float) -> float:
    """Chi-square calibrated power-divergence statistic for symmetry.

    2n/(lam (lam+1)) * sum p_ij [(2 p_ij/(p_ij+p_ji))^lam - 1] at the plug-in
    probabilities, which equals 2 n delta Phi / c, c the power-divergence scale, so
    it is read from the measure: the Phi its table already computed at this lam, or a
    new kernel call. At lam = 1 this is the symmetry chi-square statistic.
    """
    lam = require_lambda(lam)
    phi = t.pairs.measured.get(lam)
    if phi is None:
        t.pairs.measured[lam] = phi = float(departures(t.pairs, lam)[1][0])
    stat = 2.0 * t.pairs.off_diagonal * phi / power_divergence_scale(lam)
    if not math.isfinite(stat):
        raise InputError(f"statistic overflows double precision at lam={lam}")
    return stat
