"""The search is pinned: every catalog check and the deep family give
the same verdict, k, counterexample depth, culprit line and SAT work as
when this table was made.

The solver is deterministic, so the work units of a check repeat
exactly, across processes and hash seeds.  The table therefore freezes
the solver's heuristics (decision order, propagation order, learning
and restarts) along with the verdicts.  A change that alters the search
on purpose regenerates the table and says so; a change that only makes
the search faster leaves it as it is.
"""

from __future__ import annotations

import pytest

from svsec.catalog import list_problems
from svsec.catalog.problems import design_text, instantiate_property_text
from svsec.check import check_design
from svsec.engine import sat

from conftest import pipeline_design

# name -> (status, k_used, cex depth, culprit line, SAT work units)
GOLDEN = {
    'cwe1209_basic_correct': ('proven', 1, None, None, 123),
    'cwe1209_basic_vulnerable': ('falsified', None, 2, 21, 615),
    'cwe1209_intermediate_correct': ('proven', 1, None, None, 49),
    'cwe1209_intermediate_vulnerable': ('falsified', None, 2, 27, 437),
    'cwe1209_advanced_correct': ('proven', 1, None, None, 125),
    'cwe1209_advanced_vulnerable': ('falsified', None, 1, 22, 143),
    'cwe1223_basic_correct': ('proven', 1, None, None, 133),
    'cwe1223_basic_vulnerable': ('falsified', None, 2, 13, 203),
    'cwe1223_intermediate_correct': ('proven', 1, None, None, 1917),
    'cwe1223_intermediate_vulnerable': ('falsified', None, 2, 15, 467),
    'cwe1223_advanced_correct': ('proven', 1, None, None, 135),
    'cwe1223_advanced_vulnerable': ('falsified', None, 2, 14, 194),
    'cwe1254_basic_correct': ('proven', 1, None, None, 22),
    'cwe1254_basic_vulnerable': ('falsified', None, 1, 25, 46),
    'cwe1254_intermediate_correct': ('proven', 1, None, None, 23),
    'cwe1254_intermediate_vulnerable': ('falsified', None, 1, 14, 28),
    'cwe1254_advanced_correct': ('proven', 1, None, None, 23),
    'cwe1254_advanced_vulnerable': ('falsified', None, 1, 14, 44),
    'cwe1261_basic_correct': ('proven', 1, None, None, 566),
    'cwe1261_basic_vulnerable': ('falsified', None, 1, 16, 85),
    'cwe1261_intermediate_correct': ('proven', 1, None, None, 13341),
    'cwe1261_intermediate_vulnerable': ('falsified', None, 1, 14, 92),
    'cwe1261_advanced_correct': ('proven', 1, None, None, 55437),
    'cwe1261_advanced_vulnerable': ('falsified', None, 1, 15, 238),
    'cwe1234_basic_correct': ('proven', 1, None, None, 135),
    'cwe1234_basic_vulnerable': ('falsified', None, 2, 15, 237),
    'cwe1234_intermediate_correct': ('proven', 1, None, None, 2615),
    'cwe1234_intermediate_vulnerable': ('falsified', None, 2, 16, 587),
    'cwe1234_advanced_correct': ('proven', 1, None, None, 30),
    'cwe1234_advanced_vulnerable': ('falsified', None, 2, 20, 76),
    'cwe1280_basic_correct': ('proven', 1, None, None, 45),
    'cwe1280_basic_vulnerable': ('falsified', None, 2, 29, 182),
    'cwe1280_intermediate_correct': ('proven', 1, None, None, 40),
    'cwe1280_intermediate_vulnerable': ('falsified', None, 2, 19, 207),
    'cwe1280_advanced_correct': ('proven', 1, None, None, 47),
    'cwe1280_advanced_vulnerable': ('falsified', None, 2, 17, 164),
    'cwe1299_basic_correct': ('proven', 1, None, None, 541),
    'cwe1299_basic_vulnerable': ('falsified', None, 1, 14, 121),
    'cwe1299_intermediate_correct': ('proven', 1, None, None, 2731),
    'cwe1299_intermediate_vulnerable': ('falsified', None, 1, 17, 258),
    'cwe1299_advanced_correct': ('proven', 1, None, None, 158),
    'cwe1299_advanced_vulnerable': ('falsified', None, 1, 14, 72),
    'cwe1276_basic_correct': ('proven', 1, None, None, 48),
    'cwe1276_basic_vulnerable': ('falsified', None, 1, 44, 45),
    'cwe1276_intermediate_correct': ('proven', 1, None, None, 450),
    'cwe1276_intermediate_vulnerable': ('falsified', None, 1, 37, 171),
    'cwe1276_advanced_correct': ('proven', 1, None, None, 239),
    'cwe1276_advanced_vulnerable': ('falsified', None, 1, 67, 94),
    'cwe1302_basic_correct': ('proven', 1, None, None, 158),
    'cwe1302_basic_vulnerable': ('falsified', None, 1, 12, 72),
    'cwe1302_intermediate_correct': ('proven', 1, None, None, 192),
    'cwe1302_intermediate_vulnerable': ('falsified', None, 5, 18, 1791),
    'cwe1302_advanced_correct': ('proven', 1, None, None, 3284),
    'cwe1302_advanced_vulnerable': ('falsified', None, 5, 21, 5528),
    'cwe1258_basic_correct': ('proven', 1, None, None, 49),
    'cwe1258_basic_vulnerable': ('falsified', None, 2, 12, 169),
    'cwe1258_intermediate_correct': ('proven', 1, None, None, 16),
    'cwe1258_intermediate_vulnerable': ('falsified', None, 2, 15, 84),
    'cwe1258_advanced_correct': ('proven', 1, None, None, 49),
    'cwe1258_advanced_vulnerable': ('falsified', None, 2, 14, 200),
    'prove8': ('proven', 8, None, None, 129),
    'leak8': ('falsified', None, 8, 32, 162),
    'prove10': ('proven', 10, None, None, 231),
    'leak10': ('falsified', None, 10, 38, 272),
    'prove12': ('proven', 12, None, None, 377),
    'leak12': ('falsified', None, 12, 44, 426),
    'prove14': ('proven', 14, None, None, 575),
    'leak14': ('falsified', None, 14, 50, 632),
}

# The deep family: d-stage 4-bit pipelines.  The proving form masks the
# property's bit of the input, and the leaky twin masks another bit.
DEEP_PROPERTY = "!q_out[1]"
DEEP_MASKED_BIT = {"prove": 1, "leak": 3}


def _catalog_checks() -> dict[str, tuple]:
    """Check name -> (catalog spec, design file)."""
    return {fname.removesuffix(".sv"): (spec, fname)
            for spec in list_problems()
            for fname in (spec.correct_file, spec.vulnerable_file)}


def _check(name: str) -> tuple[str, str, str]:
    """(source, top module, property) of the check called `name`."""
    form = name.rstrip("0123456789")
    if form in DEEP_MASKED_BIT:
        source = pipeline_design(int(name[len(form):]), 4,
                                 DEEP_MASKED_BIT[form])
        return source, "pipe", DEEP_PROPERTY
    spec, fname = _catalog_checks()[name]
    return (design_text(fname), spec.module_name,
            instantiate_property_text(spec))


def test_table_covers_the_catalog_and_the_deep_family():
    deep = {f"{form}{d}" for form in DEEP_MASKED_BIT for d in (8, 10, 12, 14)}
    assert set(GOLDEN) == set(_catalog_checks()) | deep
    assert len(GOLDEN) == 68


@pytest.mark.parametrize("name", list(GOLDEN))
def test_search_is_unchanged(name):
    source, top, prop = _check(name)
    before = sat.work_units()
    verdict = check_design(source, top, prop)
    work = sat.work_units() - before
    falsified = verdict.status == "falsified"
    got = (verdict.status,
           verdict.k_used if verdict.status == "proven" else None,
           verdict.depth if falsified else None,
           verdict.culprit_line if falsified else None,
           work)
    assert got == GOLDEN[name]
