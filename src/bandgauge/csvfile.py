"""The one table format of the package, for every table it reads or writes.

UTF-8, one header row, "\\n" line ends and RFC 4180 quoting, so any id
round-trips exactly.  Every error names the file and the line on which the
offending record starts: ``ValueError("<path>:<line>: ...")``.
"""

from __future__ import annotations

import csv
import io
import sys


def write_rows(path, header, rows) -> None:
    """Write the header row, then each row; path None writes to stdout.

    Fields are written as str() gives them, so callers format numbers.
    """
    text = "".join(",".join(map(_field, row)) + "\n" for row in [header, *rows])
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_SPECIAL = frozenset(',"\r\n')


def _field(value) -> str:
    """One RFC 4180 field: quoted when it holds a comma, a quote or a line
    break.  (The csv module's writer leaves a bare "\\r" unquoted when rows
    end in "\\n", and its reader then splits the record there.)"""
    text = str(value)
    if _SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _records(path):
    """(line_no, row) for every record, the header first; a data row must
    have as many fields as the header."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line_no}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    line_no = 1
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}:1: empty file, expected a header row")
        yield line_no, header
        line_no = reader.line_num + 1
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{line_no}: {exc}") from None


def read_rows(path, header):
    """Yield (line_no, row) for each data row of a table whose header row is
    exactly `header`; every row has one field per column."""
    records = _records(path)
    _, first = next(records)
    if first != list(header):
        raise ValueError(f"{path}:1: expected header {','.join(header)}")
    yield from records


def read_keyed(path, names, parse=float) -> dict:
    """{id: parse(value)}: ids from the first column, values from the first
    column whose name is in `names`.  An id may appear on one row only, and a
    value that parse rejects with ValueError names its line."""
    records = _records(path)
    _, header = next(records)
    col = next((header.index(name) for name in names if name in header), None)
    if len(header) < 2 or col is None:
        raise ValueError(f"{path}:1: need an id column and a column named one of {names}")
    out = {}
    for line_no, row in records:
        if row[0] in out:
            raise ValueError(f"{path}:{line_no}: duplicate id {row[0]!r}")
        try:
            out[row[0]] = parse(row[col])
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return out
