"""Signed skew-symmetric decomposition and principal coordinates.

The asymmetry measure admits an exact matrix square root: the signed
skew-symmetric matrix whose (i, j) entry is sign(n_ij - n_ji), from the
exact counts, times the square root of the cell departure. Its squared
Frobenius norm is the measure itself, and its SVD delivers category
coordinates whose squared distances to the origin split it by category.

Singular values of a real skew-symmetric matrix come in equal pairs, and
left/right singular vectors are linked by a block rotation: with J the
block-diagonal matrix of 2x2 blocks [[0, 1], [-1, 0]], the SVD can be
written S = A D J A^T with right vectors B = A J^T. We exploit that
structure instead of computing independent factors: one Hermitian
eigensolve of i S yields every pair plane at once, one QR orthonormalizes
the pairs in order and completes the basis, pairing then holds exactly,
and the rotation ambiguity inside each equal-singular-value plane is
fixed by an explicit canonical orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import AsymmetryProfile, asymmetry_measure
from .divergence import departures, require_lambda
from .errors import AnalysisError, InputError
from .table import ContingencyTable, _frozen, pair_matrices, upper_triangle

METRICS = ("averaged", "identity")

# singular values below this fraction of the largest are structural zeros
ZERO_SINGULAR_RTOL = 1e-10

# most skew-matrix entries one chunk of the lam scan holds at once
SCAN_CHUNK_CELLS = 1 << 16


def _quarter_turn(m: np.ndarray) -> np.ndarray:
    """m @ J.T, the column side of a row-side array: each column pair (x, y)
    becomes (y, -x), and "+ 0.0" and "0.0 -" write a zero of either sign as +0.0."""
    turned = np.empty_like(m)
    turned[:, 0::2] = m[:, 1::2] + 0.0
    turned[:, 1::2] = 0.0 - m[:, 0::2]
    return turned


@dataclass(frozen=True)
class PairedSVD:
    """SVD of a skew-symmetric matrix with exact pair structure.

    ``singular_values`` is non-increasing with entries equal in consecutive
    pairs; ``right_vectors`` is ``left_vectors`` turned a quarter turn in
    each pair plane. The number of retained dimensions is R for even R and
    R - 1 for odd R, with structural zeros kept as explicit zero singular values.
    """

    left_vectors: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)

    @property
    def n_dims(self) -> int:
        return int(self.left_vectors.shape[1])

    @property
    def right_vectors(self) -> np.ndarray:
        return _quarter_turn(self.left_vectors)


@dataclass(frozen=True)
class SymmetryDecomposition(PairedSVD):
    """The paired SVD of a skew matrix with its principal coordinates under a metric.

    ``row_coords`` and ``col_coords`` are R x M; the same category's row
    and column points coincide when rotated about the origin. Squared
    singular values sum to ``total_inertia``, which equals the asymmetry
    measure. A fully symmetric table yields the flagged zero decomposition
    rather than an error.
    """

    labels: tuple[str, ...]
    metric: str
    metric_weights: np.ndarray = field(repr=False)
    row_coords: np.ndarray = field(repr=False)
    col_coords: np.ndarray = field(repr=False)
    total_inertia: float
    contributions: np.ndarray = field(repr=False)
    fully_symmetric: bool

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LambdaScanResult:
    best_lambda: float
    best_contribution: float
    grid: tuple[float, ...]
    contributions: tuple[float, ...]
    inertias: tuple[float, ...]


def skew_matrix(t: ContingencyTable, lam: float) -> np.ndarray:
    """Signed element-wise square root of the cell departures at lam, read-only."""
    return skew_from_profile(t, asymmetry_measure(t, lam))


def skew_from_profile(t: ContingencyTable, profile: AsymmetryProfile) -> np.ndarray:
    """Read-only skew matrix of a computed profile, by ``skew_stack``."""
    return _frozen(skew_stack(t, profile.phi_cells[upper_triangle(t.size)][None])[0])


def skew_stack(t: ContingencyTable, cells: np.ndarray) -> np.ndarray:
    """(L, R, R) sign(n_ij - n_ji) sqrt(cells) from t's (L, P) pair cells; every zero is +0.0."""
    upper = np.sign(t.pairs.diffs) * np.sqrt(cells) + 0.0
    return pair_matrices(upper, 0.0 - upper, t.size)


def _oriented(cols: np.ndarray) -> np.ndarray:
    """Each column times the unit phase that makes its first largest-magnitude entry positive."""
    pivots = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return cols * (np.abs(pivots) / pivots)


def _structural_zeros(values: np.ndarray, largest: np.ndarray | float) -> np.ndarray:
    """``values`` with each one at or below ZERO_SINGULAR_RTOL of ``largest`` set to 0."""
    return np.where(values > ZERO_SINGULAR_RTOL * largest, values, 0.0)


def paired_svd(skew: np.ndarray) -> PairedSVD:
    """Canonically oriented paired SVD of a skew-symmetric matrix.

    i S is Hermitian with eigenvalues +-mu; the real part a of a +mu
    eigenvector, its phase fixed by ``_oriented``, and its image -S a span
    the plane of one singular pair, even inside clusters of equal values.
    One Householder QR of [a_1, -S a_1, a_2, -S a_2, ...] with a positive
    diagonal is Gram-Schmidt in column order: it orthonormalizes the
    pairs in order, each keeping its plane and orientation, so pairing
    and the rotation link to the right vectors are exact, and its
    trailing columns, each ``_oriented``, complete the basis. Pairs below
    ZERO_SINGULAR_RTOL of the largest value are structural zeros spanned
    by that completion; for odd R the leftover null vector is dropped.
    """
    size = skew.shape[0]
    eigenvalues, vecs = np.linalg.eigh(1j * skew)
    # eigh sorts ascending: reversed, the first R // 2 eigenvalues are the pair values mu
    mus, vecs = eigenvalues[::-1][: size // 2], vecs[:, ::-1]
    mus = _structural_zeros(mus, mus[:1])
    n_kept = int(np.count_nonzero(mus))
    pairs = np.empty((size, 2 * n_kept))
    pairs[:, 0::2] = _oriented(vecs[:, :n_kept]).real
    pairs[:, 1::2] = -skew @ pairs[:, 0::2]
    basis, tri = np.linalg.qr(pairs, mode="complete")
    left = basis[:, : size - size % 2]
    left[:, : 2 * n_kept] *= np.copysign(1.0, np.diag(tri))
    left[:, 2 * n_kept :] = _oriented(left[:, 2 * n_kept :])
    return PairedSVD(left_vectors=_frozen(left), singular_values=_frozen(np.repeat(mus, 2)))


def metric_weights(t: ContingencyTable, metric: str) -> np.ndarray:
    """Per-category weights d_i of the chosen metric.

    The averaged metric gives rows and columns the common scale
    ((p_i. + p_.i)/2)^(-1/2); the identity metric leaves coordinates as
    scaled singular vectors. A category with no observations at all gets
    weight 1: it is trivially symmetric and its coordinates vanish anyway,
    so any finite weight yields the correct origin placement.
    """
    if metric not in METRICS:
        raise InputError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "identity":
        return np.ones(t.size)
    p = t.p
    margins = (p.sum(axis=1) + p.sum(axis=0)) / 2.0
    return np.where(margins > 0.0, margins, 1.0) ** -0.5


def _shares(values: np.ndarray, inertia: float) -> np.ndarray:
    """Percent of ``inertia`` in each value's square; all 0 when the inertia is 0."""
    return 100.0 * values**2 / inertia if inertia > 0.0 else np.zeros(len(values))


def decompose(s: np.ndarray, t: ContingencyTable, metric: str = "averaged") -> SymmetryDecomposition:
    """Principal coordinates, inertia, and contributions of a skew matrix.

    A fully symmetric table (zero matrix) is a legitimate outcome: it
    returns all coordinates at the origin, zero contributions, and the
    ``fully_symmetric`` flag instead of raising.
    """
    svd = paired_svd(s)
    weights = metric_weights(t, metric)
    row = weights[:, None] * svd.left_vectors * svd.singular_values[None, :]
    inertia = float(np.sum(svd.singular_values**2))
    return SymmetryDecomposition(
        left_vectors=svd.left_vectors,
        singular_values=svd.singular_values,
        labels=t.labels,
        metric=metric,
        metric_weights=_frozen(weights),
        row_coords=_frozen(row),
        col_coords=_frozen(_quarter_turn(row)),
        total_inertia=inertia,
        contributions=_frozen(_shares(svd.singular_values, inertia)),
        fully_symmetric=not t.pairs.diffs.any(),
    )


def origin_distances(dec: SymmetryDecomposition) -> np.ndarray:
    """Read-only distance of each category from the origin, its row point's and column point's alike.

    A quarter turn keeps distances. A category sits at the origin exactly
    when its whole row and column are symmetric.
    """
    return _frozen(np.linalg.norm(dec.row_coords, axis=1))


def default_lambda_grid() -> np.ndarray:
    """lam from -0.99 to 3.00 in steps of 0.01."""
    return np.round(np.arange(-99, 301) * 0.01, 10)


def scan_lambda(t: ContingencyTable, grid: Sequence[float] | None = None) -> LambdaScanResult:
    """Grid search for the lam maximizing the dims 1-2 contribution.

    Reports the first (smallest) lam attaining the maximum summed
    contribution of the two leading dimensions, together with the full
    profile in grid order. The contribution is 2 mu_1^2 / Phi(lam), which
    no metric changes; mu_1^2 is the largest eigenvalue of S^T S = -S^2,
    and the percentage is capped at 100 against rounding. An explicit grid
    passes ``require_lambda`` point by point before any work. The measure
    kernel runs over a chunk of grid points at a time, its totals Phi are
    the inertias, and one batched eigensolve of -S^2 yields every mu_1^2 of
    the chunk; a chunk holds at most SCAN_CHUNK_CELLS skew-matrix entries.
    """
    pts = default_lambda_grid() if grid is None else np.array([require_lambda(x) for x in grid])
    if pts.size == 0:
        raise InputError("empty lambda grid")
    step = max(1, SCAN_CHUNK_CELLS // t.size**2)
    contribs = np.empty(pts.size)
    inertias = np.empty(pts.size)
    for start in range(0, pts.size, step):
        chunk = slice(start, start + step)
        result = departures(t.pairs, pts[chunk])  # raises on delta = 0 first
        if not t.pairs.diffs.any():
            raise AnalysisError(
                "fully symmetric table: the contribution profile is undefined at every lam"
            )
        skew = skew_stack(t, result.cells)
        top = np.linalg.eigvalsh(-(skew @ skew))[:, -1]
        inertias[chunk] = result.totals
        contribs[chunk] = np.minimum(200.0 * top / result.totals, 100.0)
    # ties go to the smaller lam; a small tolerance keeps the rule meaningful
    # when two grid points agree to rounding noise
    best = int(np.argmax(contribs >= contribs.max() - 1e-9))
    return LambdaScanResult(
        best_lambda=float(pts[best]),
        best_contribution=float(contribs[best]),
        grid=tuple(float(x) for x in pts),
        contributions=tuple(float(x) for x in contribs),
        inertias=tuple(float(x) for x in inertias),
    )
