"""`check_design` runs with the cyclic garbage collector paused.

That is safe only while a check makes no reference cycle: a cycle made
during a paused check would be held until some later collection.  These
tests pin that invariant on every kind of check, and that each way out
of a check leaves the collector on or off as the caller had it.
"""

from __future__ import annotations

import gc

import pytest

from conftest import pipeline_design
from svsec.catalog import list_problems
from svsec.catalog.problems import design_text, instantiate_property_text
from svsec.check import check_design
from svsec.gen import STUB_PROVIDERS, StubProvider, extract_code


def _catalog(cwe: int, difficulty: str, which: str) -> tuple:
    (spec,) = list_problems(cwe=cwe, difficulty=difficulty)
    fname = spec.correct_file if which == "correct" else spec.vulnerable_file
    return (design_text(fname), spec.module_name,
            instantiate_property_text(spec))


def _exits() -> dict:
    """Name -> (status, check_design arguments, keyword arguments) of
    each way out of a check."""
    source, top, prop = _catalog(1234, "basic", "correct")
    parens = "(" * 2000 + "a" + ")" * 2000  # past the parser's cap
    return {
        "proven": ("proven", (source, top, prop), {}),
        "falsified": ("falsified", _catalog(1234, "basic", "vulnerable"),
                      {}),
        "budget": ("unknown", _catalog(1261, "advanced", "correct"),
                   {"budget": 20000}),
        "design": ("compile_error",
                   (source[:source.rfind("endmodule")], top, prop), {}),
        "property parse": ("compile_error",
                           (source, top, "no_such_signal == 1'b0"), {}),
        "property compile": ("compile_error",
                             (source, top, "data_out / 2 == 0"), {}),
        "nesting": ("compile_error",
                    ("module m(input logic a, output logic p);\n"
                     f"  assign p = {parens};\nendmodule\n", "m",
                     "p == a"), {}),
    }


EXITS = _exits()


def _catalog_checks():
    for spec in list_problems():
        prop = instantiate_property_text(spec)
        for fname in (spec.correct_file, spec.vulnerable_file):
            yield fname, (design_text(fname), spec.module_name, prop), {}


def _deep_checks():
    """perfbench's deep family: the proving form and its leaky twin."""
    for depth in (8, 10, 12, 14):
        for masked in (1, 2):
            yield (f"pipe{depth} masking bit {masked}",
                   (pipeline_design(depth, 4, masked), "pipe", "!q_out[1]"),
                   {})


def _broken_stub_checks():
    """The stub's `broken` answers: each vulnerable design cut before
    its `endmodule`."""
    stub = StubProvider(seed=1)
    provider = STUB_PROVIDERS[0]
    for spec in list_problems():
        i = stub.plan(provider, spec.problem_id).index("broken")
        source = extract_code(stub.complete(provider, spec, i))
        yield (f"broken {spec.problem_id}",
               (source, spec.module_name, instantiate_property_text(spec)),
               {})


FAMILIES = {
    "catalog": _catalog_checks,
    "deep": _deep_checks,
    "broken stub": _broken_stub_checks,
    "exits": lambda: ((name, args, kwargs)
                      for name, (_, args, kwargs) in EXITS.items()),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_check_leaves_no_cyclic_garbage(family):
    checks = list(FAMILIES[family]())
    assert checks
    gc.collect()
    gc.disable()
    try:
        for name, args, kwargs in checks:
            check_design(*args, **kwargs)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("name", EXITS)
def test_a_check_leaves_the_collector_as_it_found_it(name, collecting):
    status, args, kwargs = EXITS[name]
    seen = []

    def watch(phase, info):
        seen.append(phase)

    gc.collect()  # so that what the check allocates starts from 0
    (gc.enable if collecting else gc.disable)()
    gc.callbacks.append(watch)
    try:
        verdict = check_design(*args, **kwargs)
        assert gc.isenabled() is collecting
    finally:
        gc.callbacks.remove(watch)
        gc.enable()
    assert verdict.status == status
    if status == "compile_error":
        assert verdict.in_property == name.startswith("property")
    # No collection, automatic or otherwise, ran inside the check.
    assert seen == []
