from __future__ import annotations

import hashlib

import pytest

from svsec.catalog import CWE_IDS, DIFFICULTIES, list_problems
from svsec.catalog.problems import (CatalogError, design_text,
                                    instantiate_property_text, load_catalog)
from svsec.frontend import parse_source
from svsec.ir.elaborate import elaborate


def test_full_grid():
    problems = list_problems()
    assert len(problems) == 30
    assert {(p.cwe_id, p.difficulty) for p in problems} == \
        {(c, d) for c in CWE_IDS for d in DIFFICULTIES}
    # stable order: grouped by CWE in catalog order, then difficulty
    assert [(p.cwe_id, p.difficulty) for p in problems] == \
        [(c, d) for c in CWE_IDS for d in DIFFICULTIES]
    assert len({p.problem_id for p in problems}) == 30


def test_filters():
    assert len(list_problems(cwe=1234)) == 3
    assert len(list_problems(difficulty="advanced")) == 10
    only = list_problems(cwe=1276, difficulty="basic")
    assert len(only) == 1 and only[0].cwe_id == 1276
    with pytest.raises(CatalogError):
        list_problems(cwe=9999)
    with pytest.raises(CatalogError):
        list_problems(difficulty="nightmare")


def test_port_contracts_are_sane():
    for spec in list_problems():
        assert spec.module_name
        assert spec.description
        dirs = {p.direction for p in spec.ports}
        assert dirs <= {"input", "output"}
        assert any(p.direction == "output" for p in spec.ports)
        assert all(p.width >= 1 for p in spec.ports)
        names = [p.name for p in spec.ports]
        assert len(names) == len(set(names))


def test_reference_designs_compile_and_expose_the_ports():
    for spec in list_problems():
        for fname in (spec.correct_file, spec.vulnerable_file):
            unit, diags = parse_source(design_text(fname))
            assert unit is not None, (fname, [d.message for d in diags])
            ts, _, ediags = elaborate(unit, spec.module_name)
            assert ts is not None, (fname, [d.message for d in ediags])
            have = {n for n, _ in ts.inputs} | set(ts.outputs) | {ts.clock}
            for p in spec.ports:
                assert p.name in have, (fname, p.name)


def test_property_templates_fill_every_placeholder():
    for spec in list_problems():
        text = instantiate_property_text(spec)
        assert "{" not in text, (spec.problem_id, text)


def test_templates_cover_exactly_the_used_ids():
    templates, specs = load_catalog()
    used = {s.property_template_id for s in specs}
    assert used == set(templates)


def test_correct_and_vulnerable_files_differ():
    for spec in list_problems():
        assert spec.correct_file != spec.vulnerable_file
        assert design_text(spec.correct_file) != \
            design_text(spec.vulnerable_file)


# sha256 over every template and every ProblemSpec and Port field, in
# order, as the catalog loaded when it was YAML.  A change to the
# catalog's content or to how it is read must update this on purpose.
CATALOG_DIGEST = "926d6f6c266ac97a08a0d20587b7c2878fe6b758aa5f6960a3a6193491f5c5be"


def test_the_catalog_loads_as_it_did_from_yaml():
    templates, specs = load_catalog()
    h = hashlib.sha256()
    for name, text in templates.items():
        h.update(repr(("template", name, text)).encode())
    for spec in specs:
        for field, value in vars(spec).items():
            if field == "ports":
                value = tuple(tuple(vars(p).items()) for p in value)
            h.update(repr((field, value)).encode())
    assert h.hexdigest() == CATALOG_DIGEST
