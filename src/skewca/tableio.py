"""Reading and writing contingency tables.

The canonical on-disk form is CSV: a header row with the R category
labels (optionally preceded by an empty corner cell), then exactly R data
rows, each a row label followed by R non-negative integer counts. Row
labels must repeat the header labels in the same order. A JSON body with
the same content ({"labels": [...], "counts": [[...]]}) is accepted as an
alternative.

A count cell is an optional "+" and decimal digits, with surrounding
whitespace ignored; any Unicode decimal digits are accepted, and a count
must fit in a 64-bit signed integer. The parser reads a data row in one of
two ways with the same result:

- the row path: a canonical row, whose counts joined by "," are plain
  ASCII digits with an optional "+", no padding and at most 18 digits each
  (so every value is below 2**63), is checked by one regular expression
  and converted by one numpy call;
- the per-cell path: every other row goes cell by cell through
  ``_cell_to_count``, which names the first offending cell.

Either way the error reported is the first one in row order, and the
rows are stacked into one int64 array for ``validate_table``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import IO

import numpy as np

from .errors import InputError, LabelOrderMismatchError, MalformedCsvError
from .table import INT64_MAX, ContingencyTable, validate_table

_INT_RE = re.compile(r"^[+]?\d+$")
# the count cells of a canonical row joined by ","; 18 digits keep a value below 2**63
_CANONICAL_ROW_RE = re.compile(r"\+?[0-9]{1,18}(?:,\+?[0-9]{1,18})*")


def _cell_to_count(cell: str, row_label: str, col_label: str) -> int:
    text = cell.strip()
    if not _INT_RE.match(text):
        raise MalformedCsvError(
            f"cell ({row_label!r}, {col_label!r}) is not a non-negative integer: {text!r}"
        )
    value = int(text)
    if value > INT64_MAX:
        raise MalformedCsvError(
            f"cell ({row_label!r}, {col_label!r}) does not fit in a 64-bit count: {text!r}"
        )
    return value


def parse_table_csv(source: str | IO[str]) -> ContingencyTable:
    """Parse a contingency table from CSV text or a text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        rows = [row for row in csv.reader(source) if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise MalformedCsvError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise MalformedCsvError("empty input")
    header = [cell.strip() for cell in rows[0]]
    if header and header[0] == "":
        header = header[1:]
    if not header:
        raise MalformedCsvError("header row holds no labels")
    size = len(header)
    data_rows = rows[1:]
    if len(data_rows) != size:
        raise MalformedCsvError(f"expected {size} data rows, found {len(data_rows)}")
    labels: list[str] = []
    # rows are stacked at the end rather than written into an R x R buffer made up
    # front, so a long header over short rows cannot claim memory the input lacks
    counts: list = []
    for r, row in enumerate(data_rows):
        if len(row) != size + 1:
            raise MalformedCsvError(
                f"row {r + 2} holds {len(row)} cells, expected label + {size} counts"
            )
        label = row[0].strip()
        labels.append(label)
        text = ",".join(row[1:])
        if text.count(",") == size - 1 and _CANONICAL_ROW_RE.fullmatch(text):
            counts.append(np.fromstring(text, dtype=np.int64, sep=","))
        else:
            counts.append([_cell_to_count(row[j + 1], label, header[j]) for j in range(size)])
    if labels != header:
        raise LabelOrderMismatchError(
            f"row labels {labels} do not match column labels {header} in order"
        )
    return validate_table(labels, np.array(counts, dtype=np.int64))


def serialize_table_csv(t: ContingencyTable) -> str:
    """CSV form of a table; parse_table_csv inverts this exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(t.labels))
    for label, row in zip(t.labels, t.counts):
        writer.writerow([label] + [int(x) for x in row])
    return out.getvalue()


def parse_table_json(text: str) -> ContingencyTable:
    """Parse the JSON alternative body {"labels": [...], "counts": [[...]]}."""
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCsvError(f"invalid JSON table: {exc}") from exc
    if not isinstance(body, dict) or "labels" not in body or "counts" not in body:
        raise MalformedCsvError('JSON table requires "labels" and "counts" fields')
    counts = body["counts"]
    if not isinstance(counts, list) or not all(
        isinstance(row, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        for row in counts
    ):
        raise MalformedCsvError('"counts" must be a matrix of integers')
    labels = body["labels"]
    if not isinstance(labels, list) or not all(
        isinstance(x, (str, int, float)) and not isinstance(x, bool) for x in labels
    ):
        raise MalformedCsvError('"labels" must be a list of strings or numbers')
    return validate_table([str(x) for x in labels], counts)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise an InputError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_table(path: str | Path) -> ContingencyTable:
    """Load a table from a CSV or JSON file, sniffing by content."""
    text = read_text(path)
    if text.lstrip().startswith("{"):
        return parse_table_json(text)
    return parse_table_csv(text)
