import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewca.errors import InputError
from skewca.decomposition import metric_weights
from skewca.table import INT64_MAX, validate_table


def test_basic_table():
    t = validate_table(["a", "b"], [[1, 2], [3, 4]])
    assert t.size == 2
    assert t.n == 10
    assert t.labels == ("a", "b")


def test_coffee_dimensions(coffee):
    assert coffee.size == 5
    assert coffee.n == 541


def test_negative_entry():
    with pytest.raises(InputError, match=r"negative count -1 at cell \(1, 1\)"):
        validate_table(["a", "b"], [[1, 2], [3, -1]])


def test_non_square():
    with pytest.raises(InputError, match=r"square matrix with R >= 2, got shape \(2, 3\)"):
        validate_table(["a", "b"], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InputError, match=r"square matrix with R >= 2, got shape \(1, 1\)"):
        validate_table(["a"], [[1]])
    with pytest.raises(InputError, match="counts must be a square matrix: "):  # ragged rows
        validate_table(["a", "b"], [[1, 2], [3]])
    for labels, counts in (([], []), (["a"], [[]]), ([], np.empty((0, 0)))):  # empty matrices
        with pytest.raises(InputError, match="square matrix with R >= 2, got shape"):
            validate_table(labels, counts)


def test_empty_table():
    with pytest.raises(InputError, match="table has no observations"):
        validate_table(["a", "b"], [[0, 0], [0, 0]])


def test_duplicate_label():
    with pytest.raises(InputError, match="duplicate label 'a'"):
        validate_table(["a", "a"], [[1, 2], [3, 4]])


def test_label_count_mismatch():
    with pytest.raises(InputError, match="3 labels for a 2x2 table"):
        validate_table(["a", "b", "c"], [[1, 2], [3, 4]])


def test_float_counts_rejected():
    with pytest.raises(InputError, match=r"counts must be integers, got 1.0 at cell \(0, 0\)"):
        validate_table(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InputError, match=r"counts must be integers, got True at cell \(0, 0\)"):
        validate_table(["a", "b"], [[True, False], [False, True]])
    with pytest.raises(InputError, match=r"counts must be integers, got 0.5 at cell \(0, 0\)"):
        validate_table(["a", "b"], np.array([[0.5, 2.0], [3.0, 4.0]]))
    with pytest.raises(InputError, match=r"counts must be integers, got True at cell \(0, 0\)"):
        validate_table(["a", "b"], np.array([[True, False], [False, True]]))


def test_bool_counts_rejected_among_integers():
    # numpy reads a list that mixes bools and ints as int64, so each cell is checked
    with pytest.raises(InputError, match=r"counts must be integers, got True at cell \(0, 0\)"):
        validate_table(["a", "b"], [[True, 1], [2, 3]])
    with pytest.raises(InputError, match=r"counts must be integers, got False at cell \(1, 0\)"):
        validate_table(["a", "b"], [[4, 1], [False, 3]])
    with pytest.raises(InputError, match=r"counts must be integers, got np.True_ at cell \(0, 1\)"):
        validate_table(["a", "b"], np.array([[4, np.True_], [2, 3]], dtype=object))


def test_counts_immutable():
    t = validate_table(["a", "b"], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        t.counts[0, 0] = 99


def test_uniform_probabilities():
    p = validate_table(["a", "b"], [[1, 1], [1, 1]])
    assert np.allclose(p.p, 0.25)
    assert p.delta == 0.5


def test_diagonal_table_has_zero_delta():
    p = validate_table(["a", "b"], [[5, 0], [0, 5]])
    assert p.delta == 0.0


def test_coffee_delta(coffee):
    # direct-summation oracle: total off-diagonal count over n
    off = int(coffee.counts.sum() - np.trace(coffee.counts))
    assert off == 205
    assert abs(coffee.delta - 205 / 541) < 1e-15
    assert abs(coffee.delta - 0.37893) < 5e-6


@st.composite
def tables(draw, min_size=2, max_size=6, high=40):
    size = draw(st.integers(min_size, max_size))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, high), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    if sum(map(sum, counts)) == 0:
        counts[0][0] = 1
    return validate_table([f"c{k}" for k in range(size)], counts)


@given(tables())
@settings(max_examples=60)
def test_probabilities_sum_to_one(t):
    assert abs(t.p.sum() - 1.0) <= 1e-12
    margins = (t.p.sum(axis=1) + t.p.sum(axis=0)) / 2
    weights = metric_weights(t, "averaged")
    seen = margins > 0
    assert np.array_equal(weights[seen], margins[seen] ** -0.5)
    assert np.all(weights[~seen] == 1.0)
    assert 0.0 <= t.delta <= 1.0


@given(tables())
@settings(max_examples=60)
def test_delta_complements_diagonal(t):
    assert abs(t.delta - (1.0 - np.trace(t.p))) <= 1e-12


@given(tables(), st.sampled_from([2, 3, 10, 100]))
@settings(max_examples=60)
def test_count_scaling_leaves_probabilities(t, k):
    p2 = t.scaled(k)
    assert np.all(np.abs(t.p - p2.p) <= 1e-14)
    assert abs(t.delta - p2.delta) <= 1e-14


def test_count_beyond_int64_is_rejected():
    # numpy holds 2**63 as uint64 in an array, as float64 from a list and
    # 10**20 as object; each is an input error naming the cell, never a wrap
    with pytest.raises(InputError, match=r"count 9223372036854775808 at cell \(0, 1\) does not fit"):
        validate_table(["a", "b"], np.array([[1, 2**63], [3, 4]], dtype=np.uint64))
    with pytest.raises(InputError, match=r"count 9223372036854775808 at cell \(0, 1\) does not fit"):
        validate_table(["a", "b"], [[1, 2**63], [3, 4]])
    with pytest.raises(InputError, match=r"count 100000000000000000000 at cell \(1, 0\) does not fit"):
        validate_table(["a", "b"], [[1, 2], [10**20, 4]])
    with pytest.raises(InputError, match=r"count 100000000000000000000 at cell \(1, 1\) does not fit"):
        validate_table(["a", "b"], np.array([[1, 2], [3, 10**20]], dtype=object))
    # a negative count is still reported as such next to a huge one
    with pytest.raises(InputError, match=r"negative count -1 at cell \(0, 0\)"):
        validate_table(["a", "b"], [[-1, 2**63], [3, 4]])


def test_total_beyond_int64_is_rejected():
    with pytest.raises(InputError, match=f"total count {2 * INT64_MAX} does not fit in int64"):
        validate_table(["a", "b"], [[0, INT64_MAX], [INT64_MAX, 0]])
    with pytest.raises(InputError, match=f"total count {INT64_MAX + 1} does not fit in int64"):
        validate_table(["a", "b"], np.array([[0, INT64_MAX], [1, 0]], dtype=np.int64))


def test_total_at_int64_max_is_exact():
    t = validate_table(["a", "b"], np.array([[0, INT64_MAX - 3], [1, 2]], dtype=np.uint64))
    assert t.n == INT64_MAX
    assert t.counts.dtype == np.int64
    assert t.counts[0, 1] == INT64_MAX - 3


def test_scaled_total_beyond_int64_is_rejected():
    t = validate_table(["a", "b"], [[0, 2**61], [1, 0]])
    assert t.scaled(3).n == 3 * (2**61 + 1)
    with pytest.raises(InputError, match=f"total count {2**61 + 1} \\* 4 does not fit in int64"):
        t.scaled(4)



def test_scaled_rejects_factor_below_one():
    t = validate_table(["a", "b"], [[0, 2], [1, 0]])
    for k in (0, -3, 1.9, 2.5, True):
        with pytest.raises(InputError, match=f"scale factor must be a positive integer, got {k!r}"):
            t.scaled(k)
