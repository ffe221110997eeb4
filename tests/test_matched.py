from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COUNTS_PAST_DOUBLE_PRECISION,
    abc_table,
    oracle_reconstruct,
    planted_skew,
    random_table,
)
from skewca import matched
from skewca.errors import (
    CountOverflowError,
    DimensionMismatchError,
    InvalidParameterError,
    LabelMismatchError,
)
from skewca.matched import build_matched
from skewca.divergence import asymmetry_measure
from skewca.table import to_probabilities, validate_table

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
    assert np.all(m.difference_rows == 0.0)
    assert np.all(m.difference_cols == 0.0)


def test_second_table_symmetric_duplicates_first(rng):
    t1 = random_table(rng, 4)
    sym_counts = np.array([[1, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 2]])
    t2 = validate_table(t1.labels, sym_counts)
    m = build_matched(t1, t2, 1.0)
    assert np.abs(m.s_plus - m.s_minus).max() < 1e-15
    assert np.abs(m.s_plus - m.skew_first).max() < 1e-15
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
    assert np.abs(m.s_minus - 2.0 * m.skew_first).max() < 1e-15
    for cls in m.dim_classes:
        if cls.singular_value > 1e-12:
            assert cls.component == "difference"
    assert np.abs(m.sum_rows).max() < 1e-12


def test_block_values_union_property(rng):
    checked = 0
    for draw in range(201):
        size = int(rng.integers(3, 6)) if draw < 200 else 5  # plus one odd size for sure
        t1 = random_table(rng, size)
        t2 = validate_table(t1.labels, random_table(rng, size).counts)
        m = build_matched(t1, t2, 1.0)
        block_svd = m.block_svd
        block_vals = np.sort(block_svd.singular_values)
        pooled = np.zeros(2 * size)
        pooled[: m.svd_plus.n_dims] = m.svd_plus.singular_values
        pooled[size : size + m.svd_minus.n_dims] = m.svd_minus.singular_values
        assert np.abs(block_vals - np.sort(pooled)).max() < 1e-9
        assert np.all(np.diff(block_svd.singular_values) <= 1e-12)
        assert np.abs(oracle_reconstruct(block_svd) - m.block).max() < 1e-12
        oracle = np.linalg.svd(m.block, compute_uv=False)
        assert np.abs(block_svd.singular_values - oracle).max() < 1e-12
        # with no sum value equal to a difference value, each block pair lies in the sum
        # or the difference subspace, and the closed-form coordinates are the block
        # SVD's first-block coordinates up to the pair's sign
        plus, minus = m.svd_plus.singular_values, m.svd_minus.singular_values
        if np.abs(plus[:, None] - minus[None, :]).min() < 1e-6:
            continue
        checked += 1
        for component in ("sum", "difference"):
            dims = [k for k, cls in enumerate(m.dim_classes) if cls.component == component]
            left, right = block_svd.left_vectors, block_svd.right_vectors
            for side, vectors in (("rows", left), ("cols", right)):
                expected = vectors[:size, dims] * block_svd.singular_values[dims]
                ours = getattr(m, f"{component}_{side}")
                for k in range(0, size, 2):
                    pair = slice(k, k + 2)
                    gap = min(
                        np.abs(ours[:, pair] - expected[:, pair]).max(),
                        np.abs(ours[:, pair] + expected[:, pair]).max(),
                    )
                    assert gap < 1e-10, (draw, component, side, k)
    assert checked >= 190


@st.composite
def near_tied_components(draw):
    """(S1, S2) for R = 2..10 whose sum and difference values tie or nearly tie.

    S+ and S- are planted on independent random bases. S+ takes pair values
    in [0.01, 1]; each S- value is one of them times 1 + eps, with eps 0,
    +-1e-15, +-1e-12, +-1e-9 or +-1e-6, or is drawn on its own from 0 and
    [0.01, 1], away from the structural-zero threshold; or else every S-
    value lies in [2e-12, 9.9e-11] times the largest S+ value, below the
    block's threshold of 1e-10 but not S-'s own (rounding moves a value near
    1e-10 by about 1e-6 of itself, so the 1% margin decides its side). In
    about half the draws S- is S+ itself, so S2 is zero and every tie is
    exact in floating point. S1 = (S+ + S-) / 2 and S2 = (S+ - S-) / 2.
    """
    size = draw(st.integers(2, 10))
    n_pairs = size // 2
    plus = draw(st.lists(st.floats(0.01, 1.0), min_size=n_pairs, max_size=n_pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_plus = planted_skew(np.linalg.qr(rng.normal(size=(size, size)))[0], plus)
    if draw(st.booleans()):
        s_minus = s_plus
    else:
        eps = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
        tied = st.tuples(st.sampled_from(plus), eps).map(lambda v: v[0] * (1.0 + v[1]))
        value = tied | st.just(0.0) | st.floats(0.01, 1.0)
        below_zero = st.floats(2e-12, 9.9e-11).map(lambda v: v * max(plus))
        minus = draw(
            st.lists(value, min_size=n_pairs, max_size=n_pairs)
            | st.lists(below_zero, min_size=n_pairs, max_size=n_pairs)
        )
        s_minus = planted_skew(np.linalg.qr(rng.normal(size=(size, size)))[0], minus)
    return (s_plus + s_minus) / 2.0, (s_plus - s_minus) / 2.0


@given(near_tied_components())
@settings(max_examples=200, deadline=None)
def test_block_values_merge_near_tied_components(components):
    # the tables only carry the labels and the pooling: the planted skew
    # matrices stand in for the two tables' own
    s1, s2 = components
    size = s1.shape[0]
    table = validate_table([f"c{k}" for k in range(size)], np.ones((size, size), dtype=int))
    with mock.patch.object(matched, "skew_matrix", side_effect=[s1, s2]):
        m = build_matched(table, table, 1.0)
    merged = np.array([cls.singular_value for cls in m.dim_classes])
    block_svd = m.block_svd
    top = float(merged[0])
    assert np.abs(block_svd.singular_values - merged).max() <= 1e-12 * top
    left = block_svd.left_vectors
    assert np.abs(left.T @ left - np.eye(2 * size)).max() <= 1e-12
    kept = m.block
    if np.abs(s1 - s2).max() <= 1e-10 * top:
        # every S- value is a structural zero of the block, so its SVD factorizes the S+ part
        half = (s1 + s2) / 2.0
        kept = np.block([[half, half], [half, half]])
    assert np.abs(oracle_reconstruct(block_svd) - kept).max() <= 1e-12 * top
    # the components report the block's structural zeros as zeros too
    components = np.concatenate([m.svd_plus.singular_values, m.svd_minus.singular_values])
    assert np.array_equal(np.sort(components)[::-1], merged[: len(components)])
    tags = [cls.component for cls in m.dim_classes]
    assert tags.count("sum") == tags.count("difference") == size
    # the merge is stable, so within a run of exactly equal values every sum comes first
    for k in range(2 * size - 1):
        if merged[k] == merged[k + 1]:
            assert (tags[k], tags[k + 1]) != ("difference", "sum"), k


def test_skew_closure(rng):
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    m = build_matched(t1, t2, 0.5)
    s1, s2 = m.skew_first, m.skew_second
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
    da = np.linalg.norm(ab.difference_rows, axis=1)
    db = np.linalg.norm(ba.difference_rows, axis=1)
    assert np.abs(da - db).max() < 1e-10


def test_sample_size_independence(rng):
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    base = build_matched(t1, t2, 1.0)
    scaled = build_matched(t1.scaled(5), t2.scaled(7), 1.0)
    assert np.abs(
        base.block_svd.singular_values - scaled.block_svd.singular_values
    ).max() < 1e-12
    assert np.abs(base.sum_rows - scaled.sum_rows).max() < 1e-12
    assert np.abs(base.difference_rows - scaled.difference_rows).max() < 1e-12


def test_mismatch_errors(rng):
    t1 = random_table(rng, 4)
    t3 = random_table(rng, 3)
    with pytest.raises(DimensionMismatchError):
        build_matched(t1, t3, 1.0)
    relabeled = validate_table(["w", "x", "y", "z"], t1.counts)
    with pytest.raises(LabelMismatchError):
        build_matched(t1, relabeled, 1.0)


def test_build_matched_rejects_unknown_metric_before_any_eigensolve(rng, monkeypatch):
    calls = []
    counted = matched.paired_svd
    monkeypatch.setattr(matched, "paired_svd", lambda s: calls.append(s) or counted(s))
    t1 = random_table(rng, 4)
    t2 = validate_table(t1.labels, random_table(rng, 4).counts)
    with pytest.raises(InvalidParameterError, match="metric must be one of"):
        build_matched(t1, t2, 1.0, "weird")
    assert calls == []
    # the counter sees the two component eigensolves of a valid build
    assert build_matched(t1, t2, 1.0, "averaged").metric == "averaged"
    assert len(calls) == 2


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
    # the pattern above is read from the block's own paired SVD, and the block
    # matrix is the oracle for that factorization
    assert np.abs(oracle_reconstruct(m.block_svd) - m.block).max() < 1e-12
    oracle = np.linalg.svd(m.block, compute_uv=False)
    assert np.abs(m.block_svd.singular_values - oracle).max() < 1e-12


def test_opinion_coordinates_match_published_norms(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    mine = np.linalg.norm(m.sum_cols[:, :2], axis=1)
    published = np.linalg.norm(PUBLISHED_COLUMN_COORDS, axis=1)
    assert np.abs(mine - published).max() < 1e-3
    # first category's distance in the dominant plane
    assert mine[0] == pytest.approx(0.836, abs=1e-3)


def test_opinion_difference_component_near_origin(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0)
    distances = np.linalg.norm(m.difference_rows, axis=1)
    assert np.all(distances <= 0.16)


def test_pooled_metric_variant(opinions):
    t1, t2 = opinions
    m = build_matched(t1, t2, 1.0, "averaged")
    assert m.metric == "averaged"
    assert m.sum_rows.shape == (4, 4)
    assert np.all(np.isfinite(m.sum_rows))


def test_pooled_count_overflow_names_the_cell():
    t1 = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 5 * 10**18], [7, 8, 9]])
    t2 = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 5 * 10**18, 9]])
    small = validate_table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert build_matched(t1, small, 1.0, "averaged").sum_rows.shape == (3, 3)
    # every pooled cell fits, the pooled total does not
    with pytest.raises(CountOverflowError, match="total count"):
        build_matched(t1, t2, 1.0)
    # a pooled cell wraps past 2**63 - 1
    with pytest.raises(CountOverflowError, match=r"pooled count 10000000000000000000 at cell \(1, 2\)"):
        build_matched(t1, t1, 1.0)
    with pytest.raises(CountOverflowError, match=r"at cell \(2, 1\)"):
        build_matched(t2, t2, 1.0)


def test_matched_skew_signs_come_from_the_exact_counts():
    t = abc_table(COUNTS_PAST_DOUBLE_PRECISION)
    m = build_matched(t, abc_table([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 1.0)
    cells = asymmetry_measure(to_probabilities(t), 1.0).phi_cells
    expected = np.sign(t.counts - t.counts.T) * np.sqrt(cells)
    assert np.array_equal(m.skew_first, expected)
