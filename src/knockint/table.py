"""The file formats every stage writes and reads: CSV tables, JSON and ``.npz``.

A table is a header line and rows of comma-separated cells, each line
ending in ``\\r\\n``. ``write_table`` takes the table as columns (equal-length
1-D arrays or lists) and writes a block of ``_BLOCK`` rows at a time: each
column's slice becomes Python values with ``.tolist()`` and each value a
cell with ``str``, which for a Python float is the shortest string that
reads back to the same float. These are the bytes ``csv.writer`` gives for
the same rows; no cell the pipeline writes needs quoting.

``read_table`` checks every row's cell count by counting its commas, then
reads the float columns in one parse by numpy's C reader (``np.loadtxt``).
A cell read is a finite decimal or exponent number as ``float()`` spells it
(``1``, ``-0.5``, ``.5``, ``+3``, ``1E5``), with optional spaces around it
and optionally in double quotes, and reads to the bits ``float()`` gives;
unlike ``float()``, the reader takes only ASCII digits and rejects ``1_0``.
A row has exactly as many cells as the header, a blank line being a row of
none, and no cell holds a comma.

JSON keys are sorted; an ``.npz`` file ends in ``meta``, a JSON object with
the format ``version``. A reader raises ``ValidationError`` naming a file
that is not what it claims to be.
"""

from __future__ import annotations

import csv
import json
import zipfile
from itertools import repeat

import numpy as np

from .exceptions import ValidationError

_BLOCK = 256


def _cells(column, start):
    part = column[start:start + _BLOCK]
    return map(str, part.tolist() if isinstance(part, np.ndarray) else part)


def write_table(path, header, columns):
    """Write a header and the equal-length ``columns``; ``None`` cells must be passed as ''."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]) if columns else 0, _BLOCK):
            rows = map(",".join, zip(*(_cells(c, start) for c in columns)))
            fh.write("\r\n".join(rows) + "\r\n")


def read_table(path, columns=None) -> tuple[list, np.ndarray]:
    """Header and the finite float matrix of ``columns`` (default: all of them).

    Raises ``ValidationError`` for a file with no header or no rows, and
    otherwise names a bad row (counting the header as row 1): the first
    ragged row, else the first with a non-numeric or missing cell (with
    numpy's message for that one line), else the first non-finite one.
    """
    try:
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), None)
            if not header:
                raise ValidationError(f"{path}: empty file")
            missing = [c for c in columns or () if c not in header]
            if missing:
                raise ValidationError(f"{path}: columns {missing} not found; "
                                      f"available columns: {header}")
            lines = fh.read().split("\n")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a CSV text file "
                              f"({type(exc).__name__}: {exc})") from exc
    if lines[-1] == "":  # the newline that ends the last row
        lines.pop()
    if not lines:
        raise ValidationError(f"{path}: no data rows")
    cells = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) + 1
    if "" in lines:  # a blank line is a row of no cells, as csv.reader reads it
        cells[[k for k, line in enumerate(lines) if not line]] = 0
    ragged = np.flatnonzero(cells != len(header))
    if ragged.size:
        k = ragged[0]
        raise ValidationError(f"{path}: row {k + 2} has {cells[k]} cells, "
                              f"expected {len(header)}")
    parse = dict(delimiter=",", ndmin=2, comments=None, quotechar='"',
                 usecols=[header.index(c) for c in columns] if columns else None)
    try:
        data = np.loadtxt(lines, **parse)
    except ValueError:
        for rownum, line in enumerate(lines, start=2):  # find the first bad row
            try:
                np.loadtxt([line], **parse)
            except ValueError as exc:
                raise ValidationError(f"{path}: non-numeric or missing cell in row "
                                      f"{rownum} (ValueError: {exc})") from exc
        data = None  # every row parses alone
    if data is None or len(data) < len(lines):  # a quote left open joins a row to the next
        k = next(k for k, line in enumerate(lines) if line.count('"') % 2)
        raise ValidationError(f"{path}: row {k + 2} opens a quote it does not close")
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

    def check(self, rules):
        """Raise a ``ValidationError`` on the first ``(key, value, ok, want)`` rule not ``ok``."""
        for key, value, ok, want in rules:
            if not ok:
                raise ValidationError(f"{self.path}: {key!r} must be {want}, got {value!r}")


def write_json(path, obj, compact=False):
    """Write ``obj`` with sorted keys, indented by 2 and ending in a newline;
    ``compact`` writes one line and no newline (the training-trace format).
    The text is built before ``path`` is opened, so an ``obj`` that JSON
    cannot hold raises before the file is touched."""
    text = json.dumps(obj, indent=None if compact else 2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text if compact else text + "\n")


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
