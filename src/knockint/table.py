"""The one CSV format every stage writes and reads.

A table is a header line and rows of comma-separated cells. A cell is
written with ``str``, which for a Python float is the shortest string that
reads back to the same float, and lines end in ``\\r\\n``: the bytes
``csv.writer`` gives for the same cells. No cell the pipeline writes needs
quoting. Matrices are written a block of rows at a time, so no whole-matrix
list of Python floats is ever built.
"""

from __future__ import annotations

import csv

import numpy as np

from .exceptions import ValidationError

_BLOCK = 256


def float_rows(*arrays):
    """Rows of the column-stacked float arrays, as lists of Python floats."""
    for start in range(0, len(arrays[0]), _BLOCK):
        yield from np.column_stack([a[start:start + _BLOCK] for a in arrays]).tolist()


def write_table(path, header, rows):
    """Write a header and an iterable of rows; ``None`` cells must be passed as ''."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def read_table(path, columns=None) -> tuple[list, np.ndarray]:
    """Header and the finite float matrix of ``columns`` (default: all of them).

    Raises ``ValidationError`` naming the first bad row (counting the header
    as row 1) for a ragged, non-numeric, missing or non-finite cell, and for
    a file with no header or no rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValidationError(f"{path}: empty file")
        missing = [c for c in columns or () if c not in header]
        if missing:
            raise ValidationError(f"{path}: columns {missing} not found; "
                                  f"available columns: {header}")
        keep = [header.index(c) for c in columns] if columns else range(len(header))
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}: row {rownum} has {len(row)} cells, "
                                      f"expected {len(header)}")
            try:
                rows.append([float(row[k]) for k in keep])
            except ValueError as exc:
                raise ValidationError(f"{path}: non-numeric or missing cell in row "
                                      f"{rownum} (ValueError: {exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: non-finite cell in row {bad[0] + 2}")
    return header, data
