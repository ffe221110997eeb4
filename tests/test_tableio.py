import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewca import tableio
from skewca.errors import (
    CountOverflowError,
    EmptyTableError,
    InputError,
    LabelOrderMismatchError,
    MalformedCsvError,
    NegativeEntryError,
)
from skewca.table import INT64_MAX, validate_table
from skewca.tableio import (
    load_table,
    parse_table_csv,
    parse_table_json,
    serialize_table_csv,
)

COFFEE_CSV = """,HP,TC,SA,NE,BR
HP,93,17,44,7,10
TC,9,46,11,0,9
SA,17,11,155,9,12
NE,6,4,9,15,2
BR,10,4,12,2,27
"""


def test_parse_basic():
    t = parse_table_csv("a,b\na,1,2\nb,3,4\n")
    assert t.labels == ("a", "b")
    assert t.n == 10


def test_parse_with_corner_cell():
    t = parse_table_csv(",a,b\na,1,2\nb,3,4\n")
    assert t.labels == ("a", "b")
    assert np.array_equal(t.counts, [[1, 2], [3, 4]])


def test_parse_coffee(coffee):
    t = parse_table_csv(COFFEE_CSV)
    assert t.size == 5
    assert t.n == 541
    assert np.array_equal(t.counts, coffee.counts)


def test_missing_row():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("a,b\na,1,2\n")


def test_extra_row():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("a,b\na,1,2\nb,3,4\nc,5,6\n")


def test_wrong_cell_count():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("a,b\na,1\nb,3,4\n")


def test_non_integer_cell():
    with pytest.raises(MalformedCsvError) as err:
        parse_table_csv("a,b\na,1,2.5\nb,3,4\n")
    assert "2.5" in str(err.value)


def test_negative_cell():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("a,b\na,1,-2\nb,3,4\n")


def test_label_order_mismatch():
    with pytest.raises(LabelOrderMismatchError):
        parse_table_csv("a,b\nb,1,2\na,3,4\n")


def test_empty_input():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("")


def test_table_errors_propagate():
    with pytest.raises(NegativeEntryError):
        parse_table_json('{"labels": ["a", "b"], "counts": [[1, 2], [3, -4]]}')


def test_serialize_round_trip(coffee):
    text = serialize_table_csv(coffee)
    again = parse_table_csv(text)
    assert again.labels == coffee.labels
    assert np.array_equal(again.counts, coffee.counts)
    # parse -> serialize -> parse is idempotent
    assert serialize_table_csv(again) == text


def test_parse_json():
    t = parse_table_json('{"labels": ["a", "b"], "counts": [[1, 2], [3, 4]]}')
    assert t.labels == ("a", "b")
    assert t.n == 10


def test_parse_json_rejects_floats():
    with pytest.raises(MalformedCsvError):
        parse_table_json('{"labels": ["a", "b"], "counts": [[1.5, 2], [3, 4]]}')


def test_parse_json_requires_fields():
    with pytest.raises(MalformedCsvError):
        parse_table_json('{"labels": ["a", "b"]}')
    with pytest.raises(MalformedCsvError):
        parse_table_json("not json {")


def test_parse_json_labels_must_be_a_list_of_strings_or_numbers():
    for labels in ("5", '"ab"', "null", '{"a": 1}', '[null, "b"]', '[true, "b"]', '[["a"], "b"]'):
        with pytest.raises(MalformedCsvError, match='"labels"'):
            parse_table_json('{"labels": %s, "counts": [[1, 2], [3, 4]]}' % labels)
    assert parse_table_json('{"labels": [1, 2.5], "counts": [[1, 2], [3, 4]]}').labels == ("1", "2.5")


def test_load_table_sniffs_format(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("a,b\na,1,2\nb,3,4\n", encoding="utf-8")
    json_path = tmp_path / "t.json"
    json_path.write_text('{"labels": ["a", "b"], "counts": [[1, 2], [3, 4]]}', encoding="utf-8")
    assert load_table(csv_path).n == 10
    assert load_table(json_path).n == 10


_label = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _-,\""),
    min_size=1,
    max_size=8,
).map(str.strip).filter(bool)


@st.composite
def random_tables(draw):
    size = draw(st.integers(2, 5))
    labels = draw(
        st.lists(_label, min_size=size, max_size=size, unique=True)
    )
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 99), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    if sum(map(sum, counts)) == 0:
        counts[0][0] = 1
    return validate_table(labels, counts)


@given(random_tables())
@settings(max_examples=60)
def test_round_trip_any_table(t):
    again = parse_table_csv(serialize_table_csv(t))
    assert again.labels == t.labels
    assert np.array_equal(again.counts, t.counts)


def test_count_beyond_int64_names_the_cell():
    with pytest.raises(MalformedCsvError) as err:
        parse_table_csv("a,b\na,1,2\nb,99999999999999999999,4\n")
    assert "('b', 'a')" in str(err.value) and "99999999999999999999" in str(err.value)
    # 19 digits that still fit are read exactly by the per-cell rule
    t = parse_table_csv("a,b\na,1,1000000000000000001\nb,0,0\n")
    assert t.counts[0, 1] == 10**18 + 1 and t.n == 10**18 + 2


def test_total_beyond_int64_is_an_input_error():
    text = ",a,b\na,9223372036854775807,9223372036854775807\nb,12,0\n"
    with pytest.raises(CountOverflowError):
        parse_table_csv(text)
    t = parse_table_csv(",a,b\na,0,9223372036854775807\nb,0,0\n")
    assert t.n == INT64_MAX


def test_json_count_beyond_int64():
    for big in ("9223372036854775808", "99999999999999999999"):
        with pytest.raises(CountOverflowError):
            parse_table_json('{"labels": ["a", "b"], "counts": [[1, %s], [3, 4]]}' % big)


def test_unreadable_csv_is_malformed():
    with pytest.raises(MalformedCsvError):
        parse_table_csv("a,b\na\rx,1,2\nb,3,4\n")


def test_long_header_over_short_rows():
    # 0.56 MB of input; an R x R buffer made before the rows are checked would
    # ask for 12.8 GB here
    labels = [f"c{i:05d}" for i in range(40000)]
    text = ",".join([""] + labels) + "\n" + "".join(label + "\n" for label in labels)
    with pytest.raises(MalformedCsvError, match="row 2 holds 1 cells"):
        parse_table_csv(text)


def test_canonical_rows_skip_the_per_cell_rule(monkeypatch):
    size = 200
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 10**6, size=(size, size))
    counts[0, 1] = counts[7, 3] = 10**18 - 1  # 18 digits, the longest canonical cell
    labels = [f"c{i:03d}" for i in range(size)]
    lines = ["," + ",".join(labels)]
    for i, label in enumerate(labels):
        cells = [("+" if (i + j) % 17 == 0 else "") + str(v) for j, v in enumerate(counts[i])]
        lines.append(label + "," + ",".join(cells))

    def per_cell_rule(*args):
        raise AssertionError("a canonical row reached the per-cell rule")

    monkeypatch.setattr(tableio, "_cell_to_count", per_cell_rule)
    t = parse_table_csv("\n".join(lines) + "\n")
    assert t.labels == tuple(labels)
    assert np.array_equal(t.counts, counts)
    assert t.n == int(sum(int(v) for v in counts.ravel()))


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_DECORATIONS = (
    lambda s: " " + s,
    lambda s: s + "\t",
    lambda s: "\t " + s + "  ",
    lambda s: "+" + s,
    lambda s: " +" + s,
    lambda s: "000" + s,
    lambda s: s.translate(_FULLWIDTH),
    lambda s: s.translate(_ARABIC_INDIC),
)
# 18 digits always fit in int64; 19 digits sometimes do; 20 never
_count_text = st.one_of(
    st.integers(0, 99),
    st.integers(10**17, 10**18 - 1),
    st.integers(10**18, 10**19 - 1),
    st.integers(10**19, 10**20 - 1),
).map(str)
_any_cell = st.one_of(
    _count_text,
    st.tuples(_count_text, st.sampled_from(_DECORATIONS)).map(lambda t: t[1](t[0])),
    st.sampled_from(["1,2", "-1", "1.0", "1_0", "", " ", "+", "1 2"]),
)


@st.composite
def decorated_tables(draw):
    """Labels and count cells; a row is canonical, uniformly decorated or mixed."""
    size = draw(st.integers(2, 5))
    labels = draw(st.lists(_label, min_size=size, max_size=size, unique=True))
    rows = []
    for _ in range(size):
        style = draw(st.sampled_from(("clean", "uniform", "mixed")))
        if style == "clean":
            cell = st.integers(0, 10**18 - 1).map(str)
        elif style == "uniform":  # one decoration on every cell of the row
            cell = _count_text.map(draw(st.sampled_from(_DECORATIONS)))
        else:
            cell = _any_cell
        rows.append(draw(st.lists(cell, min_size=size, max_size=size)))
    return labels, rows


def _render(labels, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + labels)
    for label, cells in zip(labels, rows):
        writer.writerow([label] + cells)
    return out.getvalue()


def _per_cell_oracle(labels, rows):
    """(counts, None) or (None, (error type, message)) by the _INT_RE + int() rule."""
    counts = []
    for label, cells in zip(labels, rows):
        row = []
        for col, cell in zip(labels, cells):
            text = cell.strip()
            if not tableio._INT_RE.match(text):
                message = f"cell ({label!r}, {col!r}) is not a non-negative integer: {text!r}"
                return None, (MalformedCsvError, message)
            if int(text) > INT64_MAX:
                message = f"cell ({label!r}, {col!r}) does not fit in a 64-bit count: {text!r}"
                return None, (MalformedCsvError, message)
            row.append(int(text))
        counts.append(row)
    total = sum(map(sum, counts))
    if total > INT64_MAX:
        return None, (CountOverflowError, None)
    if total == 0:
        return None, (EmptyTableError, None)
    return counts, None


@given(decorated_tables())
@settings(max_examples=300, deadline=None)
def test_row_path_matches_per_cell_oracle(table):
    labels, rows = table
    expected, error = _per_cell_oracle(labels, rows)
    text = _render(labels, rows)
    if error is None:
        t = parse_table_csv(text)
        assert t.labels == tuple(labels)
        assert t.counts.tolist() == expected
        assert t.n == sum(map(sum, expected))
    else:
        kind, message = error
        with pytest.raises(kind) as err:
            parse_table_csv(text)
        assert type(err.value) is kind
        if message is not None:
            assert str(err.value) == message


_csv_chars = st.sampled_from(list(',,,\n\n"+-0129 \t\ra٣０'))


@given(st.one_of(st.text(max_size=200), st.text(_csv_chars, max_size=120)))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_raises_only_input_errors(text):
    try:
        parse_table_csv(text)
    except InputError:
        pass
