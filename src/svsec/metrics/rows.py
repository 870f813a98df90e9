"""Dataset rows and their CSV round-trip.

One row per labeled generation, append-only, unique by
(provider, cwe_id, difficulty, regen_index).  A DatasetRow is an
immutable named tuple: its fields, in order, are the CSV columns, and
constructing one, by position or by keyword, checks the verdict and
which of cex_depth and k_used it carries.  Being a tuple, a row
compares and hashes by its values.  Files are UTF-8 with RFC-4180
quoting and an empty cell for None.

The reader holds each distinct text of the columns that repeat down a
dataset (provider, difficulty, verdict, source path, property id and
toolkit version) once, where the CSV reader gives every cell a string
of its own: a paper-scale dataset of 60,000 rows would otherwise keep
some 300,000 copies of a few dozen texts alive for as long as its rows.
"""

from __future__ import annotations

import csv
import os
from collections import namedtuple
from pathlib import Path

VERDICTS = ("proven", "falsified", "unknown", "compile_error")


class RowError(ValueError):
    pass


# The columns, in order, and how a cell reads back.
_COLUMNS = (("design_id", str), ("provider", str), ("cwe_id", int),
            ("difficulty", str), ("regen_index", int), ("verdict", str),
            ("cex_depth", int | None), ("k_used", int | None),
            ("lines_of_code", int), ("runtime_ms", int),
            ("source_path", str), ("property_id", str),
            ("toolkit_version", str), ("seed", int))
CSV_HEADER = [name for name, _ in _COLUMNS]
_INTS = [i for i, (_, kind) in enumerate(_COLUMNS) if kind is int]
_OPTIONAL_INTS = [i for i, (_, kind) in enumerate(_COLUMNS)
                  if kind == int | None]
# The text columns that repeat a few values down a whole dataset.
_REPEATED = [CSV_HEADER.index(name) for name in (
    "provider", "difficulty", "verdict", "source_path", "property_id",
    "toolkit_version")]


class DatasetRow(namedtuple("DatasetRow", CSV_HEADER)):
    """One labeled generation, checked as it is built."""

    __slots__ = ()

    def __new__(cls, design_id: str, provider: str, cwe_id: int,
                difficulty: str, regen_index: int, verdict: str,
                cex_depth: int | None, k_used: int | None,
                lines_of_code: int, runtime_ms: int, source_path: str,
                property_id: str, toolkit_version: str, seed: int):
        if verdict not in VERDICTS:
            raise RowError(f"unknown verdict {verdict!r}")
        if (verdict == "falsified") != (cex_depth is not None):
            raise RowError("cex_depth must be present exactly for "
                           "falsified rows")
        if (verdict == "proven") != (k_used is not None):
            raise RowError("k_used must be present exactly for proven rows")
        return tuple.__new__(cls, (
            design_id, provider, cwe_id, difficulty, regen_index, verdict,
            cex_depth, k_used, lines_of_code, runtime_ms, source_path,
            property_id, toolkit_version, seed))

    @classmethod
    def _make(cls, iterable):
        """Through `__new__`, so `_replace` checks its row too."""
        return cls(*iterable)

    def key(self) -> tuple:
        """(provider, cwe_id, difficulty, regen_index)."""
        return self[1:5]


def design_id(provider: str, problem_id: str, regen_index: int) -> str:
    """The design_id of the row for one generation."""
    return f"{provider}:{problem_id}:{regen_index}"


def export_csv(rows, path) -> None:
    """Write `rows` to `path` through a temporary file in the same
    directory, so an interrupted write leaves any old file whole."""
    keys = set()
    for r in rows:
        key = r.key()
        if key in keys:
            raise RowError(f"duplicate row {key}")
        keys.add(key)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            # A row is its cells; the writer gives None an empty cell.
            for r in rows:
                w.writerow(r)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def import_csv(path) -> list:
    """The rows of a file that `export_csv` wrote.  A file that does not
    read back raises RowError, naming the line where it fails."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _read_rows(reader)
        except csv.Error as exc:
            raise RowError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise RowError(f"not UTF-8 text: {exc.reason}") from None


def _read_rows(reader) -> list:
    header = next(reader, None)
    if header != CSV_HEADER:
        raise RowError(f"line 1: unexpected header {header}")
    rows, texts = [], {}
    for rec in reader:
        if len(rec) != len(_COLUMNS):
            raise RowError(f"line {reader.line_num} has {len(rec)} cells, "
                           f"expected {len(_COLUMNS)}")
        for i in _REPEATED:
            rec[i] = texts.setdefault(rec[i], rec[i])
        try:
            for i in _INTS:
                rec[i] = int(rec[i])
            for i in _OPTIONAL_INTS:
                rec[i] = int(rec[i]) if rec[i] else None
        except ValueError:
            raise RowError(f"line {reader.line_num}: {CSV_HEADER[i]} "
                           f"{rec[i]!r} is not an integer") from None
        try:
            rows.append(DatasetRow(*rec))
        except RowError as exc:
            raise RowError(f"line {reader.line_num}: {exc}") from None
    return rows
