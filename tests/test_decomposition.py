import math

import numpy as np
import pytest

from conftest import (
    oracle_origin_distances,
    oracle_phi_total,
    oracle_plane_coords,
    oracle_skew,
    random_table,
    symmetrized,
)
from skewca import decomposition
from skewca.decomposition import (
    block_rotation_matrix,
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
from skewca.errors import DegenerateTableError, FullySymmetricError, LambdaOutOfRangeError
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
    assert np.all(s.values == 0.0)


def test_2x2_signed_root():
    p = to_probabilities(table22(3, 1))
    s = skew_matrix(p, 1.0)
    assert s.values[0, 1] == pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert s.values[1, 0] == -s.values[0, 1]
    flipped = skew_matrix(to_probabilities(table22(1, 3)), 1.0)
    assert flipped.values[0, 1] == pytest.approx(-math.sqrt(0.125), abs=1e-15)


def test_skew_from_profile_equals_skew_matrix(coffee, rng):
    tables = [coffee, validate_table(["a", "b", "c"], [[0, 3, 0], [1, 0, 0], [0, 0, 0]])]
    tables += [random_table(rng, int(rng.integers(2, 8))) for _ in range(10)]
    for t in tables:
        p = to_probabilities(t)
        for lam in (-0.5, 0.0, 1.0):
            via_profile = skew_from_profile(p, asymmetry_measure(p, lam))
            direct = skew_matrix(p, lam)
            assert np.array_equal(via_profile.values, direct.values)
            assert via_profile.lam == direct.lam
            assert not via_profile.values.flags.writeable


def test_skew_matches_oracle_and_reconstructs_measure(coffee, rng):
    p = to_probabilities(coffee)
    for lam in (-0.5, 0.0, 1.0, 2.0):
        s = skew_matrix(p, lam)
        assert np.allclose(s.values, oracle_skew(np.asarray(p.p), lam), atol=1e-13)
        assert np.array_equal(s.values, -s.values.T)
        phi = oracle_phi_total(np.asarray(p.p), lam)
        assert float(np.sum(s.values**2)) == pytest.approx(phi, abs=1e-12)


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
        assert np.abs(svd.reconstruct() - s).max() < 1e-10
        # values agree with LAPACK
        lapack = np.linalg.svd(s, compute_uv=False)[:n_dims]
        assert np.abs(np.sort(vals)[::-1] - lapack).max() < 1e-10


def test_reconstruction_on_large_random_tables(rng):
    for size in (10, 17, 25):
        t = random_table(rng, size, high=50)
        p = to_probabilities(t)
        s = skew_matrix(p, 1.0)
        svd = paired_svd(np.asarray(s.values, dtype=float))
        assert np.abs(svd.reconstruct() - s.values).max() < 1e-10
        assert float(np.sum(svd.singular_values**2)) == pytest.approx(
            float(np.sum(np.asarray(s.values) ** 2)), abs=1e-10
        )


def planted_skew(basis, values):
    """Sum of mu_k (q_2k q_2k+1^T - q_2k+1 q_2k^T) over orthonormal columns q."""
    s = np.zeros((basis.shape[0], basis.shape[0]))
    for k, mu in enumerate(values):
        a, b = basis[:, 2 * k], basis[:, 2 * k + 1]
        s += mu * (np.outer(a, b) - np.outer(b, a))
    return s


def test_paired_svd_handles_repeated_singular_values(rng):
    basis = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    s = 0.7 * (np.outer(basis[:, 0], basis[:, 1]) - np.outer(basis[:, 1], basis[:, 0]))
    s += 0.7 * (np.outer(basis[:, 2], basis[:, 3]) - np.outer(basis[:, 3], basis[:, 2]))
    svd = paired_svd(s)
    assert np.abs(svd.reconstruct() - s).max() < 1e-12
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
        assert np.abs(svd.reconstruct() - s).max() < 1e-10
        assert np.abs(left.T @ left - np.eye(n_dims)).max() < 1e-10
        right = svd.right_vectors
        assert np.abs(right.T @ right - np.eye(n_dims)).max() < 1e-10
        for k in range(n_dims // 2):
            assert vals[2 * k] == vals[2 * k + 1]
            if vals[2 * k] > 0.0:
                first, second = left[:, 2 * k], left[:, 2 * k + 1]
                pivot = int(np.argmax(first**2 + second**2))
                assert first[pivot] > 0.0


def test_paired_svd_zero_matrix():
    svd = paired_svd(np.zeros((5, 5)))
    assert svd.n_dims == 4
    assert np.all(svd.singular_values == 0.0)
    assert np.abs(svd.left_vectors.T @ svd.left_vectors - np.eye(4)).max() < 1e-14


def test_block_rotation_matrix_shape():
    j = block_rotation_matrix(4)
    assert np.array_equal(j, np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]))
    assert np.array_equal(j @ j.T, np.eye(4))
    with pytest.raises(ValueError):
        block_rotation_matrix(3)


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
            phi = float(np.sum(np.asarray(s.values) ** 2))
            mu = dec.singular_values
            left, right = dec.left_vectors, dec.right_vectors
            rot = dec.svd.block_rotation
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
            assert np.abs((left * mu) @ right.T - s.values).max() < 1e-10
            # per-category rotation coincidence
            rn = np.linalg.norm(dec.row_coords, axis=1)
            cn = np.linalg.norm(dec.col_coords, axis=1)
            assert np.abs(rn - cn).max() < 1e-10
            # coordinate expansion through the skew matrix
            expansion = dec.metric_weights[:, None] * (s.values @ right)
            assert np.abs(dec.row_coords - expansion).max() < 1e-10


def test_origin_distances_match_oracle(coffee, rng):
    tables = [coffee] + [random_table(rng, int(rng.integers(2, 7))) for _ in range(10)]
    for t in tables:
        p = to_probabilities(t)
        for lam in (-0.5, 0.5, 1.0):
            dec = decompose(skew_matrix(p, lam), p)
            rows, _ = origin_distances(dec)
            expected = oracle_origin_distances(np.asarray(p.p), lam)
            assert np.abs(rows - expected).max() < 1e-10


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
    with pytest.raises(ValueError):
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


def test_scan_rejects_bad_grid(coffee):
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[-1.5, 0.0])
    with pytest.raises(ValueError):
        scan_lambda(coffee, grid=[])


def per_point_scan(t, grid, metric="averaged"):
    """Contributions and inertias from a full decomposition at every grid point."""
    p = to_probabilities(t)
    contribs, inertias = [], []
    for lam in grid:
        dec = decompose(skew_matrix(p, float(lam)), p, metric)
        ratios = dec.contributions
        contribs.append(float(ratios[0] + ratios[1]))
        inertias.append(dec.total_inertia)
    return np.array(contribs), np.array(inertias)


def assert_scan_matches_per_point(result, t, grid):
    contribs, inertias = per_point_scan(t, grid)
    assert np.abs(np.array(result.contributions) - contribs).max() <= 1e-12 * 100.0
    assert np.abs(np.array(result.inertias) - inertias).max() <= 1e-12
    best = int(np.argmax(contribs >= contribs.max() - 1e-9))
    assert result.best_lambda == float(grid[best])


def test_batched_scan_matches_per_point_decompose(coffee, opinions, rng):
    grid = default_lambda_grid()
    for t in (coffee, *opinions):
        assert_scan_matches_per_point(scan_lambda(t), t, grid)
    sparse = validate_table(["a", "b", "c", "d", "e"], [[0, 3, 0, 1, 0], [1, 0, 0, 2, 2],
                                                         [0, 0, 4, 0, 0], [5, 2, 0, 0, 1],
                                                         [0, 0, 0, 7, 0]])
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
    assert scan_lambda(coffee, grid, "identity") == scan_lambda(coffee, grid, "averaged")
    with pytest.raises(ValueError):
        scan_lambda(coffee, grid, "euclidean")


def test_scan_errors_on_degenerate_and_overflowing_input(coffee):
    with pytest.raises(DegenerateTableError):
        scan_lambda(validate_table(["a", "b"], [[4, 0], [0, 3]]), grid=[1.0])
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[1.0, 2000.0])
    with pytest.raises(LambdaOutOfRangeError):
        scan_lambda(coffee, grid=[1.0, float("nan")])
