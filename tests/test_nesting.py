"""A verdict is a function of the design, never of the caller's stack.

The parser counts the `parse_expr` and `parse_stmt` calls open at once
and rejects a design or property that nests deeper than `NESTING_CAP`
with one `unsupported` diagnostic.  Every later stage descends at most
that deep, or walks an operator chain in a loop, so each nesting form
gets the same result from a shallow caller, from a deep one, and under
a raised recursion limit.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svsec
from svsec.check import check_design
from svsec.frontend.parser import NESTING_CAP

DESIGN = """module m(input logic a, output logic p);
  logic [1:0] v;
  assign v = 2'b10;
{item}
endmodule
"""

# Each form nests `n` times around `x` and keeps its value: `v[x]` is x
# for a 1-bit x.
EXPRESSIONS = {
    "parentheses": lambda x, n: "(" * n + x + ")" * n,
    "right-nested operators": lambda x, n: "a | (" * n + x + ")" * n,
    "ternary": lambda x, n: f"a ? {x} : " * n + x,
    "concatenation": lambda x, n: "{" * n + x + "}" * n,
    "replication": lambda x, n: "{1{" * n + x + "}}" * n,
    "select": lambda x, n: "v[" * n + x + "]" * n,
}
STATEMENTS = {
    "if / else if chain": lambda n: "if (a) p = a; else " * n + "p = a;",
    "case": lambda n: "case (a) default: " * n + "p = a;" + " endcase" * n,
    "begin": lambda n: "begin " * n + "p = a;" + " end" * n,
}


def design_case(form: str, depth: int) -> tuple[str, str]:
    """A design whose deepest point holds `depth` open levels, and a
    property it meets.  An assignment's expression is one level; an
    `always_comb` statement is one and its assignment's expression one
    more, so a statement form starts at depth 2."""
    if form in EXPRESSIONS:
        item = f"  assign p = {EXPRESSIONS[form]('a', depth - 1)};"
    else:
        item = f"  always_comb {STATEMENTS[form](depth - 2)}"
    return DESIGN.format(item=item), "p == a"


def property_case(form: str, depth: int) -> tuple[str, str]:
    """A property whose deepest point holds `depth` open levels, and a
    design that meets it."""
    source = DESIGN.format(item="  assign p = a;")
    if form == "$past":
        return source, "p == a || " + "$past(" * (depth - 1) + "a" \
            + ")" * (depth - 1)
    return source, EXPRESSIONS[form]("p == a", depth - 1)


CASES = {**{("design", f): design_case for f in [*EXPRESSIONS, *STATEMENTS]},
         **{("property", f): property_case for f in [*EXPRESSIONS, "$past"]}}


def depths(form: str) -> tuple[int, ...]:
    lowest = 2 if form in STATEMENTS else 1
    return lowest, NESTING_CAP, NESTING_CAP + 1, 2 * NESTING_CAP


def outcome(where: str, form: str, depth: int) -> list:
    """What `check_design` gives, as JSON-able values."""
    source, prop = CASES[where, form](form, depth)
    verdict = check_design(source, "m", prop)
    if verdict.status != "compile_error":
        return [verdict.status]
    return [verdict.status, verdict.in_property,
            [[d.severity.value, d.message, d.line] for d in verdict.diagnostics]]


def outcomes() -> dict:
    return {f"{where} {form} {depth}": outcome(where, form, depth)
            for where, form in CASES for depth in depths(form)}


def _deeper(frames: int, fn):
    return fn() if frames == 0 else _deeper(frames - 1, fn)


@pytest.fixture(scope="module")
def shallow():
    return outcomes()


def test_the_cap_bounds_every_nesting_form(shallow):
    cap = f"nesting deeper than {NESTING_CAP} levels is not supported"
    for where, form in CASES:
        for depth in depths(form):
            got = shallow[f"{where} {form} {depth}"]
            if depth <= NESTING_CAP:
                assert got == ["proven"], (where, form, depth, got)
            else:
                line = 1 if where == "property" else 4
                assert got == ["compile_error", where == "property",
                               [["unsupported", cap, line]]], \
                    (where, form, depth, got)


def test_a_deeper_caller_gets_the_same_outcomes(shallow):
    assert _deeper(200, outcomes) == shallow


def test_a_higher_recursion_limit_gives_the_same_outcomes(shallow):
    tests = Path(__file__).parent
    path = [str(Path(svsec.__file__).parents[1]), str(tests),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import json, sys; sys.setrecursionlimit(10_000); "
            "import test_nesting; print(json.dumps(test_nesting.outcomes()))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert json.loads(run.stdout) == shallow


def test_a_long_operator_chain_in_a_property_is_walked_in_a_loop():
    # The parser does not count an operator chain, so each walk over a
    # property's tree loops down it, as elaboration does in a design.
    terms = " ^ ".join(["a_in"] * 5001)
    header = "module m(input logic a_in, output logic y_out);\n"
    chained = header + f"  assign y_out = {terms};\nendmodule\n"
    plain = header + "  assign y_out = a_in;\nendmodule\n"
    in_design = check_design(chained, "m", "a_in == y_out")
    assert in_design.status == "proven"
    in_property = check_design(plain, "m", f"{terms} == y_out")
    assert (in_property.status, in_property.k_used) == \
        (in_design.status, in_design.k_used)
    for prop in (f"$past({terms}) == $past(y_out)",
                 "~" * 5000 + "$stable(y_out ^ a_in) && "
                 + "!" * 5001 + "(y_out != a_in)"):
        assert check_design(plain, "m", prop).status == "proven", prop
    # A failing chain names its culprit line from the walked consequent.
    failed = check_design(plain, "m", f"{terms} != y_out")
    assert (failed.status, failed.culprit_line) == ("falsified", 2)


# RecursionError and the classes it derives from; a bare `except` is None.
CATCH_RECURSION = {"RecursionError", "RuntimeError", "Exception",
                   "BaseException", None}
LIMIT_READS = {"getrecursionlimit", "setrecursionlimit"}


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_code_catches_recursion_or_reads_its_limit():
    """A verdict that depends on the stack comes back through a handler
    that catches `RecursionError` or a use of the recursion limit;
    `src/` holds neither."""
    found = []
    for path in sorted(Path(svsec.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                caught = _names(node.type) if node.type else {None}
                if caught & CATCH_RECURSION:
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) \
                    or node.name
                if name in LIMIT_READS:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
