"""Signed skew-symmetric decomposition and principal coordinates.

The asymmetry measure admits an exact matrix square root: the signed
skew-symmetric matrix whose (i, j) entry is sign(p_ij - p_ji) times the
square root of the cell departure. Its squared Frobenius norm is the
measure itself, and its SVD delivers category coordinates whose squared
distances to the origin decompose the measure by category.

Singular values of a real skew-symmetric matrix come in equal pairs, and
left/right singular vectors are linked by a block rotation: with J the
block-diagonal matrix of 2x2 blocks [[0, 1], [-1, 0]], the SVD can be
written S = A D J A^T with right vectors B = A J^T. We exploit that
structure instead of computing independent factors: one Hermitian
eigensolve of i S yields every pair plane at once, pairing then holds
exactly, and the rotation ambiguity inside each equal-singular-value
plane is fixed by an explicit canonical orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import AsymmetryProfile, asymmetry_measure, pair_departures, upper_triangle
from .errors import DegenerateTableError, FullySymmetricError, LambdaOutOfRangeError
from .table import ContingencyTable, ProbabilityTable, to_probabilities

METRICS = ("averaged", "identity")

# singular values below this fraction of the largest are structural zeros
ZERO_SINGULAR_RTOL = 1e-10

# most skew-matrix entries one chunk of the lam scan holds at once
SCAN_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class SkewMatrix:
    """Signed square-root matrix of the per-cell departures."""

    values: np.ndarray = field(repr=False)
    lam: float

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class PairedSVD:
    """SVD of a skew-symmetric matrix with exact pair structure.

    ``singular_values`` is non-increasing with entries equal in consecutive
    pairs; ``right_vectors`` equals ``left_vectors @ block_rotation.T``.
    The number of retained dimensions is R for even R and R - 1 for odd R,
    with structural zeros kept as explicit zero singular values.
    """

    left_vectors: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)

    @property
    def n_dims(self) -> int:
        return int(self.left_vectors.shape[1])

    @property
    def block_rotation(self) -> np.ndarray:
        return block_rotation_matrix(self.n_dims)

    @property
    def right_vectors(self) -> np.ndarray:
        return self.left_vectors @ self.block_rotation.T

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


@dataclass(frozen=True)
class SymmetryDecomposition:
    """Principal coordinates of the skew decomposition under a metric.

    ``row_coords`` and ``col_coords`` are R x M; the same category's row
    and column points coincide when rotated about the origin. Squared
    singular values sum to ``total_inertia``, which equals the asymmetry
    measure. A fully symmetric table yields the flagged zero decomposition
    rather than an error.
    """

    labels: tuple[str, ...]
    lam: float
    metric: str
    svd: PairedSVD
    metric_weights: np.ndarray = field(repr=False)
    row_coords: np.ndarray = field(repr=False)
    col_coords: np.ndarray = field(repr=False)
    total_inertia: float
    contributions: np.ndarray = field(repr=False)
    fully_symmetric: bool

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_dims(self) -> int:
        return self.svd.n_dims

    @property
    def singular_values(self) -> np.ndarray:
        return self.svd.singular_values

    @property
    def left_vectors(self) -> np.ndarray:
        return self.svd.left_vectors

    @property
    def right_vectors(self) -> np.ndarray:
        return self.svd.right_vectors


@dataclass(frozen=True)
class LambdaScanResult:
    best_lambda: float
    best_contribution: float
    grid: tuple[float, ...]
    contributions: tuple[float, ...]
    inertias: tuple[float, ...]


def block_rotation_matrix(n_dims: int) -> np.ndarray:
    """Block-diagonal orthogonal skew matrix of [[0, 1], [-1, 0]] blocks."""
    if n_dims % 2 != 0:
        raise ValueError("the paired SVD always retains an even number of dimensions")
    j = np.zeros((n_dims, n_dims))
    for k in range(n_dims // 2):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


def skew_matrix(p: ProbabilityTable, lam: float) -> SkewMatrix:
    """Signed element-wise square root of the cell departures at lam."""
    return skew_from_profile(p, asymmetry_measure(p, lam))


def skew_from_profile(p: ProbabilityTable, profile: AsymmetryProfile) -> SkewMatrix:
    """The skew matrix of an already computed asymmetry profile."""
    upper = upper_triangle(p.size)
    s = _skew_stack(p, upper, profile.phi_cells[upper][None])[0]
    s.setflags(write=False)
    return SkewMatrix(values=s, lam=profile.lam)


def _skew_stack(p: ProbabilityTable, upper: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """(L, R, R) skew matrices from (L, P) upper-triangle cell departures.

    The (i, j) entry, i < j, is sign(p_ij - p_ji) sqrt(departure); the
    (j, i) entry is its negative and the diagonal is zero, so antisymmetry
    holds by construction.
    """
    roots = np.sqrt(cells)
    roots *= np.sign(p.p[upper] - p.p.T[upper])
    stack = np.zeros((len(cells), p.size, p.size))
    stack[:, upper] = roots
    stack.transpose(0, 2, 1)[:, upper] = np.negative(roots, out=roots)
    return stack


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry is positive (ties: lowest index)."""
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec


def paired_svd(skew: np.ndarray) -> PairedSVD:
    """Canonically oriented paired SVD of a skew-symmetric matrix.

    i S is Hermitian with eigenvalues +-mu; the real and imaginary parts
    of a +mu eigenvector span the plane of one singular pair, even inside
    clusters of equal values. The eigenvector's phase is fixed so that
    the category with the greatest in-plane mass gets a positive and
    maximal first coordinate (ties to the lowest index); the second
    vector is the image -S a / mu, which makes the pairing and the
    block-rotation link to the right vectors exact. Pairs below
    ZERO_SINGULAR_RTOL of the largest value are structural zeros, filled
    with a canonically signed orthonormal completion of the retained
    vectors; for odd R the single leftover null vector is dropped.
    """
    size = skew.shape[0]
    n_dims = size - size % 2
    mus, vecs = np.linalg.eigh(1j * skew)
    # eigh sorts ascending: the last n_dims / 2 eigenpairs, reversed, are the +mu ones
    mus, vecs = mus[::-1][: n_dims // 2], vecs[:, ::-1]
    n_kept = int(np.count_nonzero(mus > ZERO_SINGULAR_RTOL * mus.max(initial=0.0)))
    left = np.zeros((size, n_dims))
    singular = np.zeros(n_dims)
    for k in range(n_kept):
        u = vecs[:, k]
        pivot = int(np.argmax(np.abs(u)))
        first = (u * (abs(u[pivot]) / u[pivot])).real
        # re-orthogonalize against the built pairs: over spectra spread across
        # many decades eigenvectors of tiny values lose orthogonality otherwise
        done = left[:, : 2 * k]
        first -= done @ (done.T @ first)
        first /= np.linalg.norm(first)
        second = -skew @ first
        second -= done @ (done.T @ second) + (first @ second) * first
        second /= np.linalg.norm(second)
        left[:, 2 * k], left[:, 2 * k + 1] = first, second
        singular[2 * k] = singular[2 * k + 1] = mus[k]
    kept = 2 * n_kept
    if kept < n_dims:
        completion = np.linalg.qr(left[:, :kept], mode="complete")[0]
        for c in range(kept, n_dims):
            left[:, c] = _canonical_sign(completion[:, c])
    return PairedSVD(left_vectors=_ro(left), singular_values=_ro(singular))


def _ro(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def metric_weights(p: ProbabilityTable, metric: str) -> np.ndarray:
    """Per-category weights d_i of the chosen metric.

    The averaged metric gives rows and columns the common scale
    ((p_i. + p_.i)/2)^(-1/2); the identity metric leaves coordinates as
    scaled singular vectors. A category with no observations at all gets
    weight 1: it is trivially symmetric and its coordinates vanish anyway,
    so any finite weight yields the correct origin placement.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "identity":
        return np.ones(p.size)
    margins = (p.row_margins + p.col_margins) / 2.0
    return np.where(margins > 0.0, margins, 1.0) ** -0.5


def decompose(s: SkewMatrix, p: ProbabilityTable, metric: str = "averaged") -> SymmetryDecomposition:
    """Principal coordinates, inertia, and contributions of a skew matrix.

    A fully symmetric table (zero matrix) is a legitimate outcome: it
    returns all coordinates at the origin, zero contributions, and the
    ``fully_symmetric`` flag instead of raising.
    """
    svd = paired_svd(np.asarray(s.values, dtype=float))
    weights = metric_weights(p, metric)
    inv_root = weights[:, None]
    row = inv_root * svd.left_vectors * svd.singular_values[None, :]
    col = inv_root * svd.right_vectors * svd.singular_values[None, :]
    inertia = float(np.sum(svd.singular_values**2))
    fully_symmetric = not np.any(s.values)
    if inertia > 0.0:
        contributions = 100.0 * svd.singular_values**2 / inertia
    else:
        contributions = np.zeros(svd.n_dims)
    return SymmetryDecomposition(
        labels=p.labels,
        lam=s.lam,
        metric=metric,
        svd=svd,
        metric_weights=_ro(weights),
        row_coords=_ro(row),
        col_coords=_ro(col),
        total_inertia=inertia,
        contributions=_ro(contributions),
        fully_symmetric=fully_symmetric,
    )


def origin_distances(dec: SymmetryDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each category's row and column point from the origin.

    A category sits at the origin exactly when its whole row and column
    are symmetric.
    """
    return (
        np.linalg.norm(dec.row_coords, axis=1),
        np.linalg.norm(dec.col_coords, axis=1),
    )


def default_lambda_grid() -> np.ndarray:
    """lam from -0.99 to 3.00 in steps of 0.01."""
    return np.round(np.arange(-99, 301) * 0.01, 10)


def scan_lambda(
    t: ContingencyTable,
    grid: Sequence[float] | None = None,
    metric: str = "averaged",
) -> LambdaScanResult:
    """Grid search for the lam maximizing the dims 1-2 contribution.

    Reports the first (smallest) lam attaining the maximum summed
    contribution of the two leading dimensions, together with the full
    profile in grid order. Contributions are ratios of squared singular
    values, which no metric changes, so ``metric`` is only validated. The
    measure kernel runs over a chunk of grid points at a time and one
    batched eigensolve of i S yields every singular value of the chunk;
    a chunk holds at most SCAN_CHUNK_CELLS skew-matrix entries.
    """
    pts = default_lambda_grid() if grid is None else np.asarray(list(grid), dtype=float)
    if pts.size == 0:
        raise ValueError("empty lambda grid")
    if np.any(pts <= -1.0):
        raise LambdaOutOfRangeError("grid contains lam <= -1")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    p = to_probabilities(t)
    if p.delta <= 0.0:
        raise DegenerateTableError("all mass on the diagonal: asymmetry is undefined")
    upper = upper_triangle(p.size)
    a, b = p.p[upper], p.p.T[upper]
    step = max(1, SCAN_CHUNK_CELLS // p.size**2)
    contribs = np.empty(pts.size)
    inertias = np.empty(pts.size)
    for start in range(0, pts.size, step):
        chunk = slice(start, start + step)
        cells = pair_departures(a, b, p.delta, pts[chunk]).cells
        if not cells.any(axis=1).all():
            raise FullySymmetricError(
                "fully symmetric table: the contribution profile is undefined at every lam"
            )
        # eigenvalues ascend: the top half, reversed, are the pair values mu
        mus = np.linalg.eigvalsh(1j * _skew_stack(p, upper, cells))[:, ::-1][:, : p.size // 2]
        mus = np.where(mus > ZERO_SINGULAR_RTOL * mus[:, :1], mus, 0.0)
        inertias[chunk] = 2.0 * np.sum(mus**2, axis=1)
        ratio = 100.0 * mus[:, 0] ** 2 / inertias[chunk]
        contribs[chunk] = ratio + ratio
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
