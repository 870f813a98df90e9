"""Dataset rows and their CSV round-trip.

One row per labeled generation, append-only, unique by
(provider, cwe_id, difficulty, regen_index).  DatasetRow's fields, in
order, are the CSV columns; files are UTF-8 with RFC-4180 quoting and
an empty cell for None.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields
from pathlib import Path

VERDICTS = ("proven", "falsified", "unknown", "compile_error")


class RowError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetRow:
    design_id: str
    provider: str
    cwe_id: int
    difficulty: str
    regen_index: int
    verdict: str
    cex_depth: int | None
    k_used: int | None
    lines_of_code: int
    runtime_ms: int
    source_path: str
    property_id: str
    toolkit_version: str
    seed: int

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise RowError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "falsified") != (self.cex_depth is not None):
            raise RowError("cex_depth must be present exactly for "
                           "falsified rows")
        if (self.verdict == "proven") != (self.k_used is not None):
            raise RowError("k_used must be present exactly for proven rows")

    def key(self) -> tuple:
        return (self.provider, self.cwe_id, self.difficulty, self.regen_index)


# How a cell is read back, by the field's annotation.
_PARSERS = {"str": str, "int": int,
            "int | None": lambda cell: int(cell) if cell else None}
_COLUMNS = [(f.name, _PARSERS[f.type]) for f in fields(DatasetRow)]
CSV_HEADER = [name for name, _ in _COLUMNS]


def export_csv(rows, path) -> None:
    """Write `rows` to `path` through a temporary file in the same
    directory, so an interrupted write leaves any old file whole."""
    keys = set()
    for r in rows:
        if r.key() in keys:
            raise RowError(f"duplicate row {r.key()}")
        keys.add(r.key())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for r in rows:
                cells = (getattr(r, name) for name in CSV_HEADER)
                w.writerow(["" if v is None else v for v in cells])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def import_csv(path) -> list:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise RowError(f"unexpected header {header}")
        for rec in reader:
            if len(rec) != len(_COLUMNS):
                raise RowError(f"line {reader.line_num} has {len(rec)} cells, "
                               f"expected {len(_COLUMNS)}")
            rows.append(DatasetRow(**{name: parse(cell) for (name, parse), cell
                                      in zip(_COLUMNS, rec)}))
    return rows
