"""The one reader of the CSV files a project names (rain record, direct
tables, pairwise matrices): rows come from `read_rows`, values from
`read_cell`, and each error reads `<file>: line L, column C (<name>): <why>`."""

from __future__ import annotations

import csv
import math

from lidscore.errors import ValidationError


def read_rows(path):
    """Yield (line number, cells) of each row with a non-blank cell of the CSV
    file at `path`, header first, one row at a time; a file that cannot be
    read raises ValidationError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"{path}: cannot read: {why}") from None


def read_cell(where: str, row, col: int, name: str, parse=float,
              kind: str = "a number", blank=None):
    """`parse` of cell `col` of `row`, stripped; `where` names the row. A
    blank or missing cell gives `blank`, or is an error if that is None; so
    is a cell `parse` rejects, or a float that is not finite."""
    cell = row[col] if col < len(row) else None
    if isinstance(cell, str):
        cell = cell.strip() or None
    if cell is None:
        if blank is None:
            raise ValidationError(f"{where}, column {col + 1} ({name}): missing value")
        return blank
    try:
        value = parse(cell)
    except (TypeError, ValueError, ZeroDivisionError):
        why = f"{cell!r} is not {kind}"
    else:
        if not isinstance(value, float) or math.isfinite(value):
            return value
        why = f"{cell!r} is not finite"
    raise ValidationError(f"{where}, column {col + 1} ({name}): {why}")
