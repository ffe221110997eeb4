import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COUNTS_PAST_DOUBLE_PRECISION,
    COUNTS_UNDERFLOWING,
    abc_table,
    oracle_block_rotation,
    oracle_origin_distances,
    oracle_phi_total,
    oracle_plane_coords,
    oracle_reconstruct,
    oracle_skew,
    planted_skew,
    random_table,
    symmetrized,
)
from skewca import decomposition
from skewca.decomposition import (
    ZERO_SINGULAR_RTOL,
    PairedSVD,
    decompose,
    default_lambda_grid,
    metric_weights,
    origin_distances,
    paired_svd,
    scan_lambda,
    skew_from_profile,
    skew_matrix,
)
from skewca.divergence import asymmetry_measure
from skewca.errors import (
    DegenerateTableError,
    FullySymmetricError,
    InvalidParameterError,
    LambdaOutOfRangeError,
)
from skewca.reporting import AnalysisConfig, run_scan
from skewca.table import to_probabilities, validate_table


def table22(a, b):
    return validate_table(["x", "y"], [[0, a], [b, 0]])


def random_skew(rng, size):
    mat = rng.normal(size=(size, size))
    return mat - mat.T


# -------------------------------------------------------------- skew matrix


def test_symmetric_table_gives_zero_matrix():
    p = to_probabilities(validate_table(["a", "b"], [[1, 2], [2, 1]]))
    s = skew_matrix(p, 1.0)
    assert np.all(s == 0.0)


def test_2x2_signed_root():
    p = to_probabilities(table22(3, 1))
    s = skew_matrix(p, 1.0)
    assert s[0, 1] == pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert s[1, 0] == -s[0, 1]
    flipped = skew_matrix(to_probabilities(table22(1, 3)), 1.0)
    assert flipped[0, 1] == pytest.approx(-math.sqrt(0.125), abs=1e-15)


def test_skew_from_profile_equals_skew_matrix(coffee, rng):
    tables = [coffee, validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 0]])]
    tables.append(validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 1]]))
    tables += [random_table(rng, int(rng.integers(2, 8))) for _ in range(10)]
    for t in tables:
        p = to_probabilities(t)
        for lam in (-0.5, 0.0, 1.0, 100.0):
            via_profile = skew_from_profile(p, asymmetry_measure(p, lam))
            direct = skew_matrix(p, lam)
            assert np.array_equal(via_profile, direct)
            assert not via_profile.flags.writeable
            # every zero is +0.0: the diagonal, equal or empty pairs, and (at lam = 100)
            # unequal pairs whose departure is 0
            assert not np.signbit(direct[direct == 0.0]).any()


def test_skew_matches_oracle_and_reconstructs_measure(coffee, rng):
    p = to_probabilities(coffee)
    for lam in (-0.5, 0.0, 1.0, 2.0):
        s = skew_matrix(p, lam)
        assert np.allclose(s, oracle_skew(np.asarray(p.p), lam), atol=1e-13)
        assert np.array_equal(s, -s.T)
        phi = oracle_phi_total(np.asarray(p.p), lam)
        assert float(np.sum(s**2)) == pytest.approx(phi, abs=1e-12)


def test_lambda_errors_propagate():
    p = to_probabilities(table22(3, 1))
    with pytest.raises(LambdaOutOfRangeError):
        skew_matrix(p, -1.5)


# -------------------------------------------------------------- paired SVD


def test_paired_svd_invariants_on_random_matrices(rng):
    for size in (2, 3, 4, 5, 8, 11, 25):
        s = random_skew(rng, size)
        svd = paired_svd(s)
        n_dims = size if size % 2 == 0 else size - 1
        assert svd.n_dims == n_dims
        left, vals = svd.left_vectors, svd.singular_values
        assert np.abs(left.T @ left - np.eye(n_dims)).max() < 1e-10
        right = svd.right_vectors
        assert np.abs(right.T @ right - np.eye(n_dims)).max() < 1e-10
        for k in range(n_dims // 2):
            assert vals[2 * k] == vals[2 * k + 1]
        assert np.all(np.diff(vals[::2]) <= 1e-12)
        assert np.abs(oracle_reconstruct(svd) - s).max() < 1e-10
        # values agree with LAPACK
        lapack = np.linalg.svd(s, compute_uv=False)[:n_dims]
        assert np.abs(np.sort(vals)[::-1] - lapack).max() < 1e-10


def test_reconstruction_on_large_random_tables(rng):
    for size in (10, 17, 25):
        t = random_table(rng, size, high=50)
        p = to_probabilities(t)
        s = skew_matrix(p, 1.0)
        svd = paired_svd(np.asarray(s, dtype=float))
        assert np.abs(oracle_reconstruct(svd) - s).max() < 1e-10
        assert float(np.sum(svd.singular_values**2)) == pytest.approx(
            float(np.sum(np.asarray(s) ** 2)), abs=1e-10
        )


def test_paired_svd_handles_repeated_singular_values(rng):
    basis = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    s = 0.7 * (np.outer(basis[:, 0], basis[:, 1]) - np.outer(basis[:, 1], basis[:, 0]))
    s += 0.7 * (np.outer(basis[:, 2], basis[:, 3]) - np.outer(basis[:, 3], basis[:, 2]))
    svd = paired_svd(s)
    assert np.abs(oracle_reconstruct(svd) - s).max() < 1e-12
    assert np.allclose(svd.singular_values[:4], 0.7, atol=1e-12)
    assert np.allclose(svd.singular_values[4:], 0.0, atol=1e-12)

    def orthonormal(size):
        return np.linalg.qr(rng.normal(size=(size, size)))[0]

    structured = [
        # two equal pairs in R = 5
        planted_skew(np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))[0], [0.7, 0.7]),
        # odd R, every nonzero value equal
        planted_skew(orthonormal(7), [0.5, 0.5, 0.5]),
        # even R, rank-deficient: zero pairs after nonzero ones
        planted_skew(orthonormal(8), [1.3, 0.4]),
        # values spread down to 1e-9 of the largest
        planted_skew(orthonormal(6), [1.0, 3e-5, 1e-9]),
    ]
    for s in structured:
        svd = paired_svd(s)
        n_dims = svd.n_dims
        left, vals = svd.left_vectors, svd.singular_values
        lapack = np.linalg.svd(s, compute_uv=False)[:n_dims]
        assert np.abs(vals - lapack).max() < 1e-10
        assert np.abs(oracle_reconstruct(svd) - s).max() < 1e-10
        assert np.abs(left.T @ left - np.eye(n_dims)).max() < 1e-10
        right = svd.right_vectors
        assert np.abs(right.T @ right - np.eye(n_dims)).max() < 1e-10
        for k in range(n_dims // 2):
            assert vals[2 * k] == vals[2 * k + 1]
            if vals[2 * k] > 0.0:
                first, second = left[:, 2 * k], left[:, 2 * k + 1]
                pivot = int(np.argmax(first**2 + second**2))
                assert first[pivot] > 0.0


@st.composite
def planted_spectra(draw):
    """(orthonormal basis, pair values) for R = 2..11, the values largest first.

    Each value below the largest is drawn relative to it: anywhere in
    [0, 1], tied with it, clustered within 1e-9 of it, clustered in
    [1.5e-10, 1e-8] of it (just above the structural-zero threshold
    ZERO_SINGULAR_RTOL, where orthogonality is hardest to keep), or near
    and below that threshold.
    """
    size = draw(st.integers(2, 11))
    relative = st.one_of(
        st.floats(0.0, 1.0),
        st.just(1.0),
        st.floats(1.0 - 1e-9, 1.0),
        st.floats(1.5e-10, 1e-8),
        st.sampled_from([1e-8, 1e-9, 2e-10, 1e-10, 5e-11, 1e-13, 0.0]),
    )
    rest = draw(st.lists(relative, min_size=size // 2 - 1, max_size=size // 2 - 1))
    top = draw(st.floats(1e-6, 1e6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(size, size)))[0]
    return basis, top * np.array(sorted([1.0, *rest], reverse=True))


@given(planted_spectra())
@settings(max_examples=200, deadline=None)
def test_paired_svd_on_planted_spectra(planted):
    basis, mus = planted
    s = planted_skew(basis, mus)
    size, top = s.shape[0], float(mus[0])
    svd = paired_svd(s)
    vals, left = svd.singular_values, svd.left_vectors
    n_dims = size - size % 2
    assert left.shape == (size, n_dims)
    # exact pairing, non-increasing
    assert np.array_equal(vals[0::2], vals[1::2])
    assert np.all(np.diff(vals) <= 0.0)
    # values clearly below the structural-zero threshold are exactly zero, others kept
    planted = np.repeat(mus, 2)
    assert np.all(vals[planted < 0.5 * ZERO_SINGULAR_RTOL * top] == 0.0)
    assert np.all(vals[planted > 2.0 * ZERO_SINGULAR_RTOL * top] > 0.0)
    # LAPACK agrees on every kept value; a value set to zero was below the threshold
    lapack = np.linalg.svd(s, compute_uv=False)[:n_dims]
    kept = vals > 0.0
    assert np.all(np.abs(vals - lapack)[kept] <= 1e-12 * top)
    assert np.all(lapack[~kept] <= (ZERO_SINGULAR_RTOL + 1e-12) * top)
    # reconstruction misses at most the values set to zero
    assert np.abs(oracle_reconstruct(svd) - s).max() <= (ZERO_SINGULAR_RTOL + 1e-12) * top
    for vectors in (left, svd.right_vectors):
        assert np.abs(vectors.T @ vectors - np.eye(n_dims)).max() < 1e-12


def test_paired_svd_zero_matrix():
    svd = paired_svd(np.zeros((5, 5)))
    assert svd.n_dims == 4
    assert np.all(svd.singular_values == 0.0)
    assert np.abs(svd.left_vectors.T @ svd.left_vectors - np.eye(4)).max() < 1e-14


def test_paired_svd_orients_every_column(rng):
    # kept pairs and the completion that spans the structural zeros follow one rule:
    # a pair's first vector and each completion column have a positive first
    # largest-magnitude entry
    for size in range(3, 10):
        for rank in range(size // 2):
            basis = np.linalg.qr(rng.normal(size=(size, size)))[0]
            svd = paired_svd(planted_skew(basis, rng.uniform(0.5, 1.0, size=rank)))
            left, vals = svd.left_vectors, svd.singular_values
            assert np.count_nonzero(vals) == 2 * rank
            oriented = list(range(0, 2 * rank, 2)) + list(range(2 * rank, svd.n_dims))
            for c in oriented:
                assert left[np.argmax(np.abs(left[:, c])), c] > 0.0, (size, rank, c)


def test_right_vectors_are_the_rotation_product_bit_for_bit(rng):
    # the product sums from +0.0, so a zero comes out +0.0 whatever its sign in left
    lefts = [np.array([[-0.0, -0.0, 1.0, -2.0], [0.0, -3.0, -0.0, 0.0], [-1.0, -0.0, -0.0, -0.0]])]
    cyclic = validate_table(list("abcde"), 7 * np.roll(np.eye(5, dtype=int), 1, axis=1))
    for t in [cyclic] + [random_table(rng, int(rng.integers(3, 9))) for _ in range(10)]:
        p = to_probabilities(t)
        lefts.append(decompose(skew_matrix(p, 1.0), p).left_vectors)
    for left in lefts:
        right = PairedSVD(left_vectors=left, singular_values=np.zeros(left.shape[1])).right_vectors
        product = left @ oracle_block_rotation(left.shape[1]).T
        assert np.array_equal(right, product)
        assert np.array_equal(np.signbit(right), np.signbit(product))


# --------------------------------------------------------------- decompose


def test_fully_symmetric_flagged_zero_decomposition():
    t = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 5, 1], [3, 1, 4]])
    p = to_probabilities(t)
    dec = decompose(skew_matrix(p, 1.0), p)
    assert dec.fully_symmetric
    assert dec.total_inertia == 0.0
    assert np.all(dec.row_coords == 0.0)
    assert np.all(dec.col_coords == 0.0)
    assert np.all(dec.contributions == 0.0)


def test_2x2_origin_distance_is_half():
    p = to_probabilities(table22(3, 1))
    dec = decompose(skew_matrix(p, 1.0), p)
    assert np.allclose(dec.metric_weights, math.sqrt(2.0))
    assert dec.singular_values[0] == pytest.approx(math.sqrt(0.125), abs=1e-14)
    rows, cols = origin_distances(dec)
    assert np.allclose(rows, 0.5, atol=1e-12)
    assert np.allclose(cols, 0.5, atol=1e-12)
    assert dec.contributions[0] == pytest.approx(50.0, abs=1e-10)
    assert dec.contributions[1] == pytest.approx(50.0, abs=1e-10)


def test_odd_table_drops_null_dimension(rng):
    t = random_table(rng, 5)
    p = to_probabilities(t)
    dec = decompose(skew_matrix(p, 1.0), p)
    assert dec.n_dims == 4
    vals = dec.singular_values
    assert vals[0] == vals[1] >= vals[2] == vals[3]


def test_decomposition_identities(coffee, rng):
    tables = [coffee] + [random_table(rng, int(rng.integers(3, 7))) for _ in range(8)]
    for t in tables:
        p = to_probabilities(t)
        for lam in (-0.5, 0.0, 1.0):
            s = skew_matrix(p, lam)
            dec = decompose(s, p)
            phi = float(np.sum(np.asarray(s) ** 2))
            mu = dec.singular_values
            left, right = dec.left_vectors, dec.right_vectors
            rot = oracle_block_rotation(dec.n_dims)
            metric = np.diag(1.0 / dec.metric_weights**2)
            # inertia identities
            assert dec.total_inertia == pytest.approx(phi, abs=1e-10)
            assert float(np.trace(dec.row_coords.T @ metric @ dec.row_coords)) == pytest.approx(
                phi, abs=1e-10
            )
            assert float(np.trace(dec.col_coords.T @ metric @ dec.col_coords)) == pytest.approx(
                phi, abs=1e-10
            )
            # structure identities
            assert np.abs(right - left @ rot.T).max() < 1e-12
            assert np.abs(dec.col_coords - dec.row_coords @ rot.T).max() < 1e-10
            assert np.abs(dec.row_coords - dec.col_coords @ rot).max() < 1e-10
            assert np.abs((left * mu) @ right.T - s).max() < 1e-10
            # per-category rotation coincidence
            rn = np.linalg.norm(dec.row_coords, axis=1)
            cn = np.linalg.norm(dec.col_coords, axis=1)
            assert np.abs(rn - cn).max() < 1e-10
            # coordinate expansion through the skew matrix
            expansion = dec.metric_weights[:, None] * (s @ right)
            assert np.abs(dec.row_coords - expansion).max() < 1e-10


def test_origin_distances_match_oracle(coffee, rng):
    tables = [coffee] + [random_table(rng, int(rng.integers(2, 7))) for _ in range(10)]
    for t in tables:
        p = to_probabilities(t)
        for lam in (-0.5, 0.5, 1.0):
            dec = decompose(skew_matrix(p, lam), p)
            rows, cols = origin_distances(dec)
            expected = oracle_origin_distances(np.asarray(p.p), lam)
            assert np.abs(rows - expected).max() < 1e-10
            # a quarter turn keeps distances: one value per category, bit for bit
            assert np.array_equal(rows, cols)


def test_origin_distance_zero_iff_row_symmetric():
    # category c is symmetric against everyone else, a and b are not
    t = validate_table(["a", "b", "c"], [[0, 3, 1], [1, 0, 1], [1, 1, 0]])
    p = to_probabilities(t)
    dec = decompose(skew_matrix(p, 1.0), p)
    rows, cols = origin_distances(dec)
    assert rows[2] < 1e-14 and cols[2] < 1e-14
    assert rows[0] > 1e-3 and rows[1] > 1e-3


def test_category_with_no_observations_sits_at_origin():
    t = validate_table(["a", "b", "c"], [[0, 3, 0], [1, 4, 0], [0, 0, 0]])
    p = to_probabilities(t)
    dec = decompose(skew_matrix(p, 1.0), p)
    assert np.all(np.isfinite(dec.row_coords))
    rows, cols = origin_distances(dec)
    assert rows[2] == 0.0 and cols[2] == 0.0
    assert rows[0] > 0.0


def test_plane_geometry_matches_lapack_oracle(coffee):
    # gauge-invariant comparison: pairwise dot products of dims 1-2 points
    p = to_probabilities(coffee)
    dec = decompose(skew_matrix(p, 1.0), p)
    mine = dec.row_coords[:, :2]
    oracle = oracle_plane_coords(np.asarray(p.p), 1.0)
    assert np.abs(mine @ mine.T - oracle @ oracle.T).max() < 1e-10


def test_count_scaling_invariance(coffee):
    p1 = to_probabilities(coffee)
    dec1 = decompose(skew_matrix(p1, 1.0), p1)
    for k in (2, 10, 100):
        p2 = to_probabilities(coffee.scaled(k))
        dec2 = decompose(skew_matrix(p2, 1.0), p2)
        assert np.abs(dec1.singular_values - dec2.singular_values).max() < 1e-12
        assert np.abs(dec1.row_coords - dec2.row_coords).max() < 1e-12
        d1 = origin_distances(dec1)[0]
        d2 = origin_distances(dec2)[0]
        assert np.abs(d1 - d2).max() < 1e-12


def test_decompose_is_deterministic(coffee):
    p = to_probabilities(coffee)
    dec1 = decompose(skew_matrix(p, 2.0 / 3.0), p)
    dec2 = decompose(skew_matrix(p, 2.0 / 3.0), p)
    assert np.array_equal(dec1.row_coords, dec2.row_coords)
    assert np.array_equal(dec1.singular_values, dec2.singular_values)
    assert np.array_equal(dec1.left_vectors, dec2.left_vectors)


def test_identity_metric():
    p = to_probabilities(table22(3, 1))
    dec = decompose(skew_matrix(p, 1.0), p, metric="identity")
    assert np.all(dec.metric_weights == 1.0)
    rows, _ = origin_distances(dec)
    assert np.allclose(rows, math.sqrt(0.125), atol=1e-12)
    with pytest.raises(InvalidParameterError):
        metric_weights(p, "weird")


def test_contribution_ratios_four_by_four(rng):
    t = random_table(rng, 4)
    p = to_probabilities(t)
    dec = decompose(skew_matrix(p, 1.0), p)
    if dec.fully_symmetric:
        return
    ratios = dec.contributions
    mu = dec.singular_values
    assert ratios[0] == ratios[1]
    assert ratios.sum() == pytest.approx(100.0, abs=1e-8)
    expected = 100.0 * mu[0] ** 2 / float(np.sum(mu**2))
    assert ratios[0] == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- lambda scan


def test_scan_2x2_returns_grid_minimum():
    result = scan_lambda(table22(3, 1), grid=np.arange(-0.5, 1.51, 0.25))
    assert result.best_lambda == -0.5
    assert all(abs(c - 100.0) < 1e-9 for c in result.contributions)
    # a rank-2 skew matrix puts all of Phi on dims 1-2 at every lam, and the
    # contribution is a percentage even where mu_1^2 and Phi round apart
    rank2 = validate_table(["a", "b", "c"], [[5, 9, 1], [2, 6, 4], [3, 1, 7]])
    result = scan_lambda(rank2)
    assert max(result.contributions) <= 100.0
    assert result.best_contribution == 100.0


def test_scan_symmetric_table_errors():
    t = validate_table(["a", "b"], [[1, 2], [2, 1]])
    with pytest.raises(FullySymmetricError):
        scan_lambda(t, grid=[0.0, 1.0])


def test_scan_coffee_small_grid_matches_exhaustive(coffee):
    grid = [-0.5, 0.0, 2.0 / 3.0, 1.0, 2.0]
    result = scan_lambda(coffee, grid=grid)
    # exhaustive oracle over the same grid
    best_lam, best_c = None, -1.0
    p = to_probabilities(coffee)
    for lam in grid:
        dec = decompose(skew_matrix(p, lam), p)
        c = float(dec.contributions[0] + dec.contributions[1])
        if c > best_c + 1e-12:
            best_lam, best_c = lam, c
    assert result.best_lambda == pytest.approx(best_lam)
    assert result.best_contribution == pytest.approx(best_c, abs=1e-9)
    assert len(result.grid) == len(grid)


def test_default_grid_shape():
    grid = default_lambda_grid()
    assert grid[0] == -0.99
    assert grid[-1] == 3.0
    assert len(grid) == 400
    assert np.all(grid > -1.0)


def test_scan_rejects_bad_grid(coffee, monkeypatch):
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[-1.5, 0.0])
    with pytest.raises(InvalidParameterError):
        scan_lambda(coffee, grid=[])
    # the grid is checked before any chunk, so a symmetric first chunk
    # cannot report its own error ahead of a bad point further on
    monkeypatch.setattr(decomposition, "SCAN_CHUNK_CELLS", 1)
    symmetric = validate_table(["a", "b", "c"], [[1, 2, 3], [2, 1, 4], [3, 4, 1]])
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(LambdaOutOfRangeError):
            scan_lambda(symmetric, grid=[1.0, bad])


def per_point_scan(t, grid, metric="averaged"):
    """Contributions and inertias from a full decomposition at every grid point,
    and the measure Phi there."""
    p = to_probabilities(t)
    contribs, inertias, measures = [], [], []
    for lam in grid:
        dec = decompose(skew_matrix(p, float(lam)), p, metric)
        ratios = dec.contributions
        contribs.append(float(ratios[0] + ratios[1]))
        inertias.append(dec.total_inertia)
        measures.append(asymmetry_measure(p, float(lam)).phi_total)
    return np.array(contribs), np.array(inertias), np.array(measures)


def assert_scan_matches_per_point(result, t, grid):
    contribs, inertias, measures = per_point_scan(t, grid)
    assert np.abs(np.array(result.contributions) - contribs).max() <= 1e-12 * 100.0
    assert np.abs(np.array(result.inertias) - inertias).max() <= 1e-12
    # the scan's inertias are the measure kernel's totals, Phi itself
    assert np.array_equal(result.inertias, measures)
    best = int(np.argmax(contribs >= contribs.max() - 1e-9))
    assert result.best_lambda == float(grid[best])


def test_batched_scan_matches_per_point_decompose(coffee, opinions, rng):
    grid = default_lambda_grid()
    for t in (coffee, *opinions):
        assert_scan_matches_per_point(scan_lambda(t), t, grid)
    sparse = validate_table(["a", "b", "c", "d", "e"], [[0, 3, 0, 1, 0], [1, 0, 0, 2, 2],
                                                         [0, 0, 4, 0, 0], [5, 2, 0, 0, 1],
                                                         [0, 0, 0, 7, 0]])
    # every pair one-sided: Phi is 1 at every lam, and the scan must not read it above 1
    one_sided = validate_table(["a", "b", "c"], [[0, 1, 4], [0, 0, 1], [0, 0, 0]])
    assert_scan_matches_per_point(scan_lambda(one_sided), one_sided, grid)
    tables = [sparse] + [random_table(rng, int(rng.integers(2, 10))) for _ in range(8)]
    small_grid = np.concatenate((grid[::37], [-1e-11, 1e-11, 1e-9]))
    for t in tables:
        if not np.any(t.counts != t.counts.T):
            continue
        assert_scan_matches_per_point(scan_lambda(t, small_grid), t, small_grid)


def test_scan_grid_spanning_several_chunks(coffee, monkeypatch):
    grid = np.linspace(-0.9, 2.5, 23)
    whole = scan_lambda(coffee, grid)
    # three grid points per chunk: eight chunks, the last one partial
    monkeypatch.setattr(decomposition, "SCAN_CHUNK_CELLS", 3 * coffee.size**2 + 1)
    chunked = scan_lambda(coffee, grid)
    assert chunked == whole
    assert_scan_matches_per_point(chunked, coffee, grid)
    # a budget smaller than one skew matrix still moves one grid point per chunk
    monkeypatch.setattr(decomposition, "SCAN_CHUNK_CELLS", 1)
    assert scan_lambda(coffee, grid) == whole


def test_scan_contributions_ignore_the_metric(coffee):
    grid = [-0.5, 0.0, 1.0]
    identity = run_scan(AnalysisConfig(metric="identity"), coffee, grid)
    averaged = run_scan(AnalysisConfig(metric="averaged"), coffee, grid)
    assert identity.scan == averaged.scan
    # the report still records the metric, and the config still checks it
    assert identity.config["metric"] == "identity"
    with pytest.raises(InvalidParameterError):
        AnalysisConfig(metric="euclidean")


def test_scan_errors_on_degenerate_and_overflowing_input(coffee):
    with pytest.raises(DegenerateTableError):
        scan_lambda(validate_table(["a", "b"], [[4, 0], [0, 3]]), grid=[1.0])
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[1.0, 2000.0])
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[1.0, float("nan")])


def test_skew_signs_come_from_the_exact_counts(coffee):
    # at 2^53 the pair's probabilities round to one double, its counts do not
    for t in (coffee, abc_table(COUNTS_PAST_DOUBLE_PRECISION)):
        p = to_probabilities(t)
        sign = np.sign(t.counts - t.counts.T)
        for lam in (-0.5, 0.0, 1.0, 3.0):
            expected = sign * np.sqrt(asymmetry_measure(p, lam).phi_cells)
            assert np.array_equal(skew_matrix(p, lam), expected)


def test_measure_and_scan_raise_where_the_measure_underflows():
    t = abc_table(COUNTS_UNDERFLOWING)
    p = to_probabilities(t)
    with pytest.raises(LambdaOutOfRangeError, match="underflows double precision at lam=1000.0"):
        asymmetry_measure(p, 1000.0)
    with pytest.raises(LambdaOutOfRangeError, match="underflows double precision at lam=1000.0"):
        scan_lambda(t, grid=[700.0, 1000.0])
    assert asymmetry_measure(p, 700.0).phi_total > 0.0
    assert scan_lambda(t, grid=[700.0]).inertias[0] > 0.0
    # a fully symmetric table still measures exactly 0 there
    assert asymmetry_measure(to_probabilities(table22(3, 3)), 1000.0).phi_total == 0.0
