import numpy as np
import pytest

from conftest import random_table
from skewca.errors import CountOverflowError, DimensionMismatchError, LabelMismatchError
from skewca.matched import build_matched, matched_coordinates
from skewca.table import validate_table

# published block SVD of the opinion pair: paired singular values and the
# duplicated/sign-flipped block pattern, reproduced at the Pearson parameter
PUBLISHED_BLOCK_VALUES = np.array([1.344, 1.344, 0.239, 0.239, 0.055, 0.055, 0.032, 0.032])
PUBLISHED_COLUMN_COORDS = np.array(
    [
        [0.000, 0.836],
        [-0.267, 0.342],
        [-0.598, 0.144],
        [-0.688, -0.258],
    ]
)


def test_identical_tables(rng):
    t = random_table(rng, 4)
    m = build_matched(t, t, 1.0)
    assert np.all(m.s_minus == 0.0)
    assert np.abs(m.svd_minus.singular_values).max() == 0.0
    # every positive block value carries the sum tag
    for cls in m.dim_classes:
        if cls.singular_value > 1e-12:
            assert cls.component == "sum"
    coords = matched_coordinates(m, "identity")
    assert np.all(coords.difference_rows == 0.0)
    assert np.all(coords.difference_cols == 0.0)


def test_second_table_symmetric_duplicates_first(rng):
    t1 = random_table(rng, 4)
    sym_counts = np.array([[1, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 2]])
    t2 = validate_table(t1.labels, sym_counts)
    m = build_matched(t1, t2, 1.0)
    assert np.abs(m.s_plus - m.s_minus).max() < 1e-15
    assert np.abs(m.s_plus - m.skew_first.values).max() < 1e-15
    vals = m.block_svd.singular_values
    # every value of the first table's SVD appears twice: once sum, once difference
    plus = m.svd_plus.singular_values
    assert np.allclose(np.sort(vals), np.sort(np.concatenate([plus, plus])), atol=1e-10)
    tags = [c.component for c in m.dim_classes]
    for k in range(0, len(tags), 4):
        assert tags[k : k + 4] == ["sum", "sum", "difference", "difference"]


def test_transposed_pair_kills_the_sum_component(rng):
    # the transposed table has the mirrored skew matrix, so the shared
    # asymmetry cancels exactly and everything sits in the difference
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, t1.counts.T.copy())
    m = build_matched(t1, t2, 1.0)
    assert np.abs(m.s_plus).max() < 1e-15
    assert np.abs(m.s_minus - 2.0 * m.skew_first.values).max() < 1e-15
    for cls in m.dim_classes:
        if cls.singular_value > 1e-12:
            assert cls.component == "difference"
    coords = matched_coordinates(m, "identity")
    assert np.abs(coords.sum_rows).max() < 1e-12


def test_block_values_union_property(rng):
    for draw in range(201):
        size = int(rng.integers(3, 6)) if draw < 200 else 5  # plus one odd size for sure
        t1 = random_table(rng, size)
        t2 = validate_table(t1.labels, random_table(rng, size).counts)
        m = build_matched(t1, t2, 1.0)
        block_vals = np.sort(m.block_svd.singular_values)
        pooled = np.zeros(2 * size)
        pooled[: m.svd_plus.n_dims] = m.svd_plus.singular_values
        pooled[size : size + m.svd_minus.n_dims] = m.svd_minus.singular_values
        assert np.abs(block_vals - np.sort(pooled)).max() < 1e-9
        assert np.all(np.diff(m.block_svd.singular_values) <= 1e-12)
        # the block matrix is the oracle for the assembled block SVD
        assert np.abs(m.block_svd.reconstruct() - m.block).max() < 1e-12
        oracle = np.linalg.svd(m.block, compute_uv=False)
        assert np.abs(m.block_svd.singular_values - oracle).max() < 1e-12


def test_skew_closure(rng):
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    m = build_matched(t1, t2, 0.5)
    s1, s2 = m.skew_first.values, m.skew_second.values
    cross = float(np.sum(s1 * s2))
    assert float(np.sum(m.s_plus**2)) == pytest.approx(
        float(np.sum(s1**2)) + float(np.sum(s2**2)) + 2 * cross, abs=1e-12
    )
    assert float(np.sum(m.s_minus**2)) == pytest.approx(
        float(np.sum(s1**2)) + float(np.sum(s2**2)) - 2 * cross, abs=1e-12
    )


def test_swap_antisymmetry(rng):
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    ab = build_matched(t1, t2, 1.0)
    ba = build_matched(t2, t1, 1.0)
    assert np.abs(ab.s_plus - ba.s_plus).max() < 1e-15
    assert np.abs(ab.s_minus + ba.s_minus).max() < 1e-15
    assert np.abs(
        ab.svd_plus.singular_values - ba.svd_plus.singular_values
    ).max() < 1e-12
    ca = matched_coordinates(ab, "identity")
    cb = matched_coordinates(ba, "identity")
    da = np.linalg.norm(ca.difference_rows, axis=1)
    db = np.linalg.norm(cb.difference_rows, axis=1)
    assert np.abs(da - db).max() < 1e-10


def test_sample_size_independence(rng):
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    base = build_matched(t1, t2, 1.0)
    scaled = build_matched(t1.scaled(5), t2.scaled(7), 1.0)
    assert np.abs(
        base.block_svd.singular_values - scaled.block_svd.singular_values
    ).max() < 1e-12
    cb = matched_coordinates(base, "identity")
    cs = matched_coordinates(scaled, "identity")
    assert np.abs(cb.sum_rows - cs.sum_rows).max() < 1e-12
    assert np.abs(cb.difference_rows - cs.difference_rows).max() < 1e-12


def test_mismatch_errors(rng):
    t1 = random_table(rng, 4)
    t3 = random_table(rng, 3)
    with pytest.raises(DimensionMismatchError):
        build_matched(t1, t3, 1.0)
    relabeled = validate_table(["w", "x", "y", "z"], t1.counts)
    with pytest.raises(LabelMismatchError):
        build_matched(t1, relabeled, 1.0)


# -------------------------------------------------- published reproduction


def test_opinion_block_values_at_pearson(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    vals = m.block_svd.singular_values
    assert np.abs(vals - PUBLISHED_BLOCK_VALUES).max() < 1e-3
    # dims 1,2,7,8 sum; 3,4,5,6 difference (1-based)
    tags = [c.component for c in m.dim_classes]
    assert tags == [
        "sum", "sum", "difference", "difference",
        "difference", "difference", "sum", "sum",
    ]


def test_opinion_block_vector_pattern(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    left = m.block_svd.left_vectors
    half = m.size
    for k, cls in enumerate(m.dim_classes):
        top, bottom = left[:half, k], left[half:, k]
        if cls.component == "sum":
            assert np.abs(bottom - top).max() < 1e-10
        else:
            assert np.abs(bottom + top).max() < 1e-10
    # the pattern holds by construction; the block matrix is the oracle
    assert np.abs(m.block_svd.reconstruct() - m.block).max() < 1e-12
    oracle = np.linalg.svd(m.block, compute_uv=False)
    assert np.abs(m.block_svd.singular_values - oracle).max() < 1e-12


def test_opinion_coordinates_match_published_norms(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    coords = matched_coordinates(m, "identity")
    mine = np.linalg.norm(coords.sum_cols[:, :2], axis=1)
    published = np.linalg.norm(PUBLISHED_COLUMN_COORDS, axis=1)
    assert np.abs(mine - published).max() < 1e-3
    # first category's distance in the dominant plane
    assert mine[0] == pytest.approx(0.836, abs=1e-3)


def test_opinion_difference_component_near_origin(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    coords = matched_coordinates(m, "identity")
    distances = np.linalg.norm(coords.difference_rows, axis=1)
    assert np.all(distances <= 0.16)


def test_pooled_metric_variant(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    coords = matched_coordinates(m, "averaged")
    assert coords.metric == "averaged"
    assert coords.sum_rows.shape == (4, 4)
    assert np.all(np.isfinite(coords.sum_rows))


def test_pooled_count_overflow_names_the_cell():
    t1 = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 5 * 10**18], [7, 8, 9]])
    t2 = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 5 * 10**18, 9]])
    small = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert build_matched(t1, small, 1.0).pooled.p.shape == (3, 3)
    # every pooled cell fits, the pooled total does not
    with pytest.raises(CountOverflowError, match="total count"):
        build_matched(t1, t2, 1.0)
    # a pooled cell wraps past 2**63 - 1
    with pytest.raises(CountOverflowError, match=r"pooled count 10000000000000000000 at cell \(1, 2\)"):
        build_matched(t1, t1, 1.0)
    with pytest.raises(CountOverflowError, match=r"at cell \(2, 1\)"):
        build_matched(t2, t2, 1.0)
