"""Reading and writing contingency tables.

The canonical on-disk form is CSV: a header row with the R category
labels (optionally preceded by an empty corner cell), then exactly R data
rows, each a row label followed by R non-negative integer counts. Row
labels must repeat the header labels in the same order. Rows whose cells
are all blank are skipped. A JSON body with the same content
({"labels": [...], "counts": [[...]]}) is accepted as an alternative.

A count cell is an optional "+" and decimal digits, with surrounding
whitespace ignored; any Unicode decimal digits are accepted, and a count
must fit in a 64-bit signed integer. The parser reads a CSV body in one of
two ways with the same result:

- the table path: a plain body, with no quote, NUL or lone carriage
  return, is split into lines. Once the header, the row count, each
  line's comma count and the row labels check out, and every count cell
  holds only ASCII digits, "+", spaces and tabs with at most 18 digits in
  a run (so every value is below 2**63), one ``np.loadtxt`` call reads all
  R x R counts;
- the per-cell path: any body the table path does not accept outright,
  including every malformed one, goes through ``csv.reader`` and then cell
  by cell through ``_cell_to_count``, which names the first offending cell.

The character check before ``np.loadtxt`` keeps the accepted set the same
for every numpy version: older releases read "2.5", "1e3" or a count past
int64 into an integer column through a float with only a warning, and no
such cell reaches the call. Both paths hand the labels and the int64
counts to ``validate_table``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np

from .errors import InputError
from .table import INT64_MAX, ContingencyTable, validate_table

_INT_RE = re.compile(r"^[+]?\d+$")
# a character that makes a line a row: \s is the whitespace that str.strip removes
_FILLED = re.compile(r"[^\s,]")
# a count cell's bytes by their shape: a digit reads "0", a separator "," and any other byte "x"
_CELL_SHAPE = bytes(
    ord("0") if chr(b) in "0123456789" else ord(",") if chr(b) in "+ \t," else ord("x")
    for b in range(256)
)
# 19 digits in a run may pass 2**63 - 1; the per-cell path decides those cells
_LONG_RUN = b"0" * 19


def _cell_to_count(cell: str, row_label: str, col_label: str) -> int:
    text = cell.strip()
    if not _INT_RE.match(text):
        raise InputError(
            f"cell ({row_label!r}, {col_label!r}) is not a non-negative integer: {text!r}"
        )
    value = int(text)
    if value > INT64_MAX:
        raise InputError(
            f"cell ({row_label!r}, {col_label!r}) does not fit in a 64-bit count: {text!r}"
        )
    return value


def _header_labels(cells: list[str]) -> list[str]:
    """The category labels of a header row: its stripped cells but an empty corner cell."""
    header = [cell.strip() for cell in cells]
    return header[1:] if header and header[0] == "" else header


def _read_plain(text: str) -> tuple[list[str], np.ndarray] | None:
    """The labels and counts of a plain, well-formed body, or None to read it cell by cell."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.split("\n")
    # a field past csv's size limit is its error to report
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = [line for line in lines if _FILLED.search(line)]
    if not rows:
        return None
    header = _header_labels(rows[0].split(","))
    size = len(header)
    # R < 2, which validate_table rejects anyway, admits an empty count line that np.loadtxt skips
    if size < 2 or len(rows) != size + 1:
        return None
    count_lines = []
    for line, label in zip(rows[1:], header):
        cut = line.find(",")
        if line.count(",") != size or line[:cut].strip() != label:
            return None
        count_lines.append(line[cut + 1 :])
    cells = ",".join(count_lines)
    if not cells.isascii():
        return None
    shape = cells.encode("ascii").translate(_CELL_SHAPE)
    if b"x" in shape or _LONG_RUN in shape:
        return None
    try:
        counts = np.loadtxt(count_lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # a cell such as "", "+" or "1 2"
        return None
    return header, counts


def _read_cells(text: str) -> tuple[list[str], np.ndarray]:
    """The labels and counts of any CSV body, or the InputError for its first fault."""
    reader = csv.reader(io.StringIO(text))
    try:
        # each row with the file line it ends on
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise InputError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise InputError("empty input")
    header = _header_labels(rows[0][1])
    size = len(header)
    data_rows = rows[1:]
    if len(data_rows) != size:
        raise InputError(f"expected {size} data rows, found {len(data_rows)}")
    labels: list[str] = []
    # rows are stacked at the end rather than written into an R x R buffer made up
    # front, so a long header over short rows cannot claim memory the input lacks
    counts: list = []
    for line, row in data_rows:
        if len(row) != size + 1:
            raise InputError(f"row {line} holds {len(row)} cells, expected label + {size} counts")
        label = row[0].strip()
        labels.append(label)
        counts.append([_cell_to_count(row[j + 1], label, header[j]) for j in range(size)])
    if labels != header:
        raise InputError(
            f"row labels {labels} do not match column labels {header} in order"
        )
    return labels, np.array(counts, dtype=np.int64)


def parse_table_csv(text: str) -> ContingencyTable:
    """Parse a contingency table from CSV text."""
    return validate_table(*(_read_plain(text) or _read_cells(text)))


def parse_table_json(text: str) -> ContingencyTable:
    """Parse the JSON alternative body {"labels": [...], "counts": [[...]]}."""
    # besides bad syntax, json fails on nesting too deep and on an int past Python's digit limit
    try:
        body = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON table: {exc}") from None
    if not isinstance(body, dict) or "labels" not in body or "counts" not in body:
        raise InputError('JSON table requires "labels" and "counts" fields')
    labels = body["labels"]
    if not isinstance(labels, list) or not all(
        isinstance(x, (str, int, float)) and not isinstance(x, bool) for x in labels
    ):
        raise InputError('"labels" must be a list of strings or numbers')
    return validate_table([str(x) for x in labels], body["counts"])


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file without its byte-order mark, if any.

    Bytes that are not UTF-8 raise an InputError that names the file.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_table(path: str | Path) -> ContingencyTable:
    """Load a table from a CSV or JSON file, sniffing by content.

    A body that parses as JSON, or starts with "{", is a JSON table; any
    other body is CSV.
    """
    text = read_text(path)
    if not text.lstrip().startswith("{"):
        try:
            json.loads(text)
        except (ValueError, RecursionError):
            return parse_table_csv(text)
    return parse_table_json(text)
