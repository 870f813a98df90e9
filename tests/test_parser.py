from __future__ import annotations

from svsec.frontend import parse_source, pretty_print

from conftest import COUNTER


def test_parse_counter():
    unit, diags = parse_source(COUNTER)
    assert unit is not None and not diags
    (mod,) = unit.modules
    assert mod.name == "counter"
    assert [p.name for p in mod.ports] == ["clk_in", "rst_n_in", "en_in",
                                           "count_out"]


def test_pretty_round_trip_is_stable():
    unit1, _ = parse_source(COUNTER)
    text1 = pretty_print(unit1)
    unit2, diags = parse_source(text1)
    assert unit2 is not None and not diags
    assert pretty_print(unit2) == text1


def test_catalog_designs_all_round_trip():
    from svsec.catalog import list_problems
    from svsec.catalog.problems import design_text

    for spec in list_problems():
        for fname in (spec.correct_file, spec.vulnerable_file):
            src = design_text(fname)
            unit, diags = parse_source(src)
            assert unit is not None, (fname, [d.message for d in diags])
            text = pretty_print(unit)
            unit2, diags2 = parse_source(text)
            assert unit2 is not None, (fname, [d.message for d in diags2])
            assert pretty_print(unit2) == text


def test_syntax_error_reports_location():
    unit, diags = parse_source("module m(\ninput logic a\n")
    assert unit is None
    assert any(d.line >= 1 for d in diags)


def test_unsupported_construct_is_flagged_not_crashed():
    src = "module m(input logic a);\n  initial begin end\nendmodule\n"
    unit, diags = parse_source(src)
    assert unit is None
    assert any(d.severity.value == "unsupported" for d in diags)


def test_multiple_modules_parse():
    src = ("module a(input logic x, output logic y);\n"
           "  assign y = x;\nendmodule\n"
           "module b(input logic x, output logic y);\n"
           "  assign y = !x;\nendmodule\n")
    unit, diags = parse_source(src)
    assert unit is not None and not diags
    assert [m.name for m in unit.modules] == ["a", "b"]


def test_empty_lists_parse():
    src = ("module c #() ();\nendmodule\n"
           "module m();\n  c #() u();\nendmodule\n")
    unit, diags = parse_source(src)
    assert unit is not None and not diags
    assert [(m.params, m.ports) for m in unit.modules] == [((), ()), ((), ())]
    assert unit.modules[1].instances[0].param_overrides == ()
