"""The file formats every stage writes and reads: CSV tables, JSON and ``.npz``.

A table is a header line and rows of comma-separated cells. A cell is
written with ``str``, which for a Python float is the shortest string that
reads back to the same float, and lines end in ``\\r\\n``: the bytes
``csv.writer`` gives for the same cells. No cell the pipeline writes needs
quoting. Matrices are written a block of rows at a time, so no whole-matrix
list of Python floats is ever built.
JSON keys are sorted; an ``.npz`` file ends in ``meta``, a JSON object with
the format ``version``. A reader raises ``ValidationError`` naming a file
that is not what it claims to be.
"""

from __future__ import annotations

import csv
import json
import zipfile

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
    try:
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
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a CSV text file "
                              f"({type(exc).__name__}: {exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path}: non-finite cell in row {bad[0] + 2}")
    return header, data


def index_pairs(value) -> bool:
    """Whether a JSON value is a list of ``[int, int]`` pairs."""
    return isinstance(value, list) and all(
        isinstance(pr, list) and len(pr) == 2 and all(type(k) is int for k in pr)
        for pr in value)


class Entries(dict):
    """A dict read from ``path``; a missing key raises ``ValidationError``."""

    def __init__(self, path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise ValidationError(f"{self.path}: no {key!r} entry")


def write_json(path, obj, compact=False):
    """Write ``obj`` with sorted keys, indented by 2 and ending in a newline;
    ``compact`` writes one line and no newline (the training-trace format)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=None if compact else 2, sort_keys=True)
        fh.write("" if compact else "\n")


def read_json(path) -> Entries:
    """The JSON object in ``path``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{path}: not a JSON file ({type(exc).__name__}: {exc})") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return Entries(path, obj)


def save_npz(path, version: int, arrays: dict, **meta):
    """Write ``arrays``, then ``meta`` and the format's ``version`` as JSON."""
    meta = json.dumps({"version": version, **meta}, sort_keys=True)
    with open(path, "wb") as fh:  # a file object, so numpy adds no ".npz" to the name
        np.savez(fh, **arrays, meta=np.frombuffer(meta.encode(), dtype=np.uint8))


def load_npz(path, version: int) -> tuple[Entries, Entries]:
    """The meta object and the arrays of a file ``save_npz`` wrote in ``version``."""
    try:
        with np.load(path) as data:  # TypeError: an .npy file loads as a bare array
            arrays = Entries(path, ((name, data[name]) for name in data.files))
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    except (ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a knockint .npz file "
                              f"({type(exc).__name__}: {exc})") from exc
    if not isinstance(meta, dict) or meta.get("version") != version:
        raise ValidationError(f"{path}: meta {meta} is not of file version {version}")
    return Entries(path, meta), arrays
