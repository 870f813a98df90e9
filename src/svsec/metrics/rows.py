"""Dataset rows and their CSV round-trip.

One row per labeled generation, append-only, unique by
(provider, cwe_id, difficulty, regen_index).  The schema is fixed by
CSV_HEADER; files are UTF-8 with RFC-4180 quoting.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

VERDICTS = ("proven", "falsified", "unknown", "compile_error")

CSV_HEADER = ["design_id", "provider", "cwe_id", "difficulty", "regen_index",
              "verdict", "cex_depth", "k_used", "lines_of_code", "runtime_ms",
              "source_path", "property_id", "toolkit_version", "seed"]


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


def _cell(v) -> str:
    return "" if v is None else str(v)


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
                w.writerow([r.design_id, r.provider, r.cwe_id, r.difficulty,
                            r.regen_index, r.verdict, _cell(r.cex_depth),
                            _cell(r.k_used), r.lines_of_code, r.runtime_ms,
                            r.source_path, r.property_id, r.toolkit_version,
                            r.seed])
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
            d = dict(zip(CSV_HEADER, rec))
            rows.append(DatasetRow(
                design_id=d["design_id"],
                provider=d["provider"],
                cwe_id=int(d["cwe_id"]),
                difficulty=d["difficulty"],
                regen_index=int(d["regen_index"]),
                verdict=d["verdict"],
                cex_depth=int(d["cex_depth"]) if d["cex_depth"] else None,
                k_used=int(d["k_used"]) if d["k_used"] else None,
                lines_of_code=int(d["lines_of_code"]),
                runtime_ms=int(d["runtime_ms"]),
                source_path=d["source_path"],
                property_id=d["property_id"],
                toolkit_version=d["toolkit_version"],
                seed=int(d["seed"]),
            ))
    return rows
