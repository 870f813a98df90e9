"""The front half is pinned: for every catalog check and the deep
family, the tokens and lexer diagnostics, the AST, the elaborated IR,
the property and its obligation, and the `bmc.Template` are the same as
when this table was made.  `test_search_golden.py` pins what the search
does with them.

Each check's outputs are written out as text and hashed.  The IR is
written one distinct `Op` to a line, numbered in fold order over one
shared memo (as `Tape` lists them), so the text grows with the DAG and
a lost or extra share of a node changes it; `repr` would walk shared
terms as a tree.  A change that only makes the front half faster leaves
the table as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum

import pytest

from svsec.engine.bmc import Template
from svsec.frontend.ast import Node
from svsec.frontend.lexer import tokenize
from svsec.frontend.parser import parse
from svsec.ir import expr as ex
from svsec.ir.elaborate import elaborate
from svsec.props import compile_obligation, parse_property

from test_search_golden import GOLDEN, _check

# name -> the first 16 hex digits of the SHA-256 of `front_half_text`
DIGESTS = {
    'cwe1209_basic_correct': 'f67657902750f39d',
    'cwe1209_basic_vulnerable': '393e6b6790b2af97',
    'cwe1209_intermediate_correct': '2536edca9b6e84a1',
    'cwe1209_intermediate_vulnerable': '2a9ea551ea5cbcce',
    'cwe1209_advanced_correct': '1e5cc34605134732',
    'cwe1209_advanced_vulnerable': '21bcb1474f7853d5',
    'cwe1223_basic_correct': '3937d6aa351864d0',
    'cwe1223_basic_vulnerable': '3aae148ff384c85d',
    'cwe1223_intermediate_correct': 'e95e6e9e77f7eb76',
    'cwe1223_intermediate_vulnerable': '2dc081e824881215',
    'cwe1223_advanced_correct': '74af77fffa8212cc',
    'cwe1223_advanced_vulnerable': '28eb3a208da4c514',
    'cwe1254_basic_correct': '1547da4ea3694556',
    'cwe1254_basic_vulnerable': '9e630a7365a7efd4',
    'cwe1254_intermediate_correct': '24c21b5f6b08db63',
    'cwe1254_intermediate_vulnerable': 'c3c30ce60af24aa7',
    'cwe1254_advanced_correct': '3c87124d5acfe4dd',
    'cwe1254_advanced_vulnerable': '50d7cf507f40cb08',
    'cwe1261_basic_correct': '4595bc8a540a5bfc',
    'cwe1261_basic_vulnerable': '916a6ad166d2ed9b',
    'cwe1261_intermediate_correct': 'b65c2056f402b32f',
    'cwe1261_intermediate_vulnerable': '473d673879a0320f',
    'cwe1261_advanced_correct': '2593ff47bb868a72',
    'cwe1261_advanced_vulnerable': '9ad6dc8a31195bc7',
    'cwe1234_basic_correct': '449368da88ab76bd',
    'cwe1234_basic_vulnerable': '19c98c1147c860ca',
    'cwe1234_intermediate_correct': '54f9062987fdfc73',
    'cwe1234_intermediate_vulnerable': 'ab22c117044ad3e8',
    'cwe1234_advanced_correct': 'bf24985d00e65f55',
    'cwe1234_advanced_vulnerable': '54d313f07ea870ad',
    'cwe1280_basic_correct': 'c333ed4d6e0790ff',
    'cwe1280_basic_vulnerable': '1a0881b14da3d037',
    'cwe1280_intermediate_correct': '965789b1bfcc5a10',
    'cwe1280_intermediate_vulnerable': '39a0c674fd9f4608',
    'cwe1280_advanced_correct': 'b13c25341d594644',
    'cwe1280_advanced_vulnerable': '382b87747f78b5da',
    'cwe1299_basic_correct': '0c9b173532a93655',
    'cwe1299_basic_vulnerable': 'cf43d60c094cfa87',
    'cwe1299_intermediate_correct': 'd97b82c67882862f',
    'cwe1299_intermediate_vulnerable': '36dc1961bd618509',
    'cwe1299_advanced_correct': '72acc6ddcd6133f7',
    'cwe1299_advanced_vulnerable': 'd33856e660133196',
    'cwe1276_basic_correct': 'c9c9f034f4a7ec1c',
    'cwe1276_basic_vulnerable': '339e521f505d7495',
    'cwe1276_intermediate_correct': 'f2b72da8d0adecfa',
    'cwe1276_intermediate_vulnerable': 'a5b9a3b5cf54570e',
    'cwe1276_advanced_correct': '03e023856bd08b23',
    'cwe1276_advanced_vulnerable': '283a0209425c086c',
    'cwe1302_basic_correct': '0d351c531fd563ad',
    'cwe1302_basic_vulnerable': '698a2586ff7fb3f6',
    'cwe1302_intermediate_correct': 'b72297b101452800',
    'cwe1302_intermediate_vulnerable': 'e5ef9ab4e547d038',
    'cwe1302_advanced_correct': '7d69a7567d9c28a6',
    'cwe1302_advanced_vulnerable': 'deeeb6f01a80f68c',
    'cwe1258_basic_correct': 'e4a5b1156dfcd465',
    'cwe1258_basic_vulnerable': '17b435faa65ee29f',
    'cwe1258_intermediate_correct': 'f473de3d35b70877',
    'cwe1258_intermediate_vulnerable': '4427870cc0f17aa9',
    'cwe1258_advanced_correct': '06cb05581127c963',
    'cwe1258_advanced_vulnerable': 'a242f7f67388da38',
    'prove8': 'b52e76ce116ef32e',
    'leak8': 'a252a7850dd39145',
    'prove10': 'af9ec392d93987c0',
    'leak10': '6aad5105b359e485',
    'prove12': 'd9583839b884155b',
    'leak12': '1bf38930fc54156e',
    'prove14': 'aee33c57cddf2859',
    'leak14': '443a1ee7f262a70a',
}


def _value(x) -> str:
    """A token, a diagnostic or an AST node, field by field."""
    if isinstance(x, Enum):
        return f"{type(x).__name__}.{x.name}"
    if dataclasses.is_dataclass(x):
        return (type(x).__name__ + "("
                + ",".join(f"{f.name}={_value(getattr(x, f.name))}"
                           for f in dataclasses.fields(x)) + ")")
    if isinstance(x, Node):
        return (type(x).__name__ + "("
                + ",".join(f"{f}={_value(getattr(x, f))}" for f in x._fields)
                + ")")
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a Token
        return (type(x).__name__ + "("
                + ",".join(f"{f}={_value(getattr(x, f))}" for f in x._fields)
                + ")")
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(_value, x)) + ")"
    return repr(x)


class _Ir:
    """Writes IR expressions into `lines`, one distinct `Op` a line."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.memo: dict[ex.Op, str] = {}
        self.ops = 0

    def __call__(self, e: ex.Expr) -> str:
        return ex.fold(e, self._leaf, self._node, self.memo)

    @staticmethod
    def _leaf(e: ex.Expr) -> str:
        if isinstance(e, ex.BV):
            return f"{e.width}'d{e.value}"
        return f"{e.name}:{e.width}"

    def _node(self, e: ex.Op, args: list[str]) -> str:
        name = f"#{self.ops}"
        self.ops += 1
        self.lines.append(f"{name} = {e.op}/{e.width}{list(e.params)}"
                          f"({', '.join(args)})")
        return name


def _system(out: list[str], ir: _Ir, title: str, ts) -> None:
    out.append(f"{title}: clock={ts.clock} inputs={ts.inputs} "
               f"outputs={ts.outputs}")
    out.append(f"states={[(s.name, s.width, s.reset) for s in ts.states]}")
    for n, e in ts.defines:
        out.append(f"define {n} = {ir(e)}")
    for n, e in ts.next.items():
        out.append(f"next {n} = {ir(e)}")


def front_half_text(source: str, top: str, prop_text: str) -> str:
    """Everything a check builds before its first clause, as text."""
    out: list[str] = []
    tokens, diags = tokenize(source)
    out += map(_value, tokens)
    out.append("lexer " + _value(diags))
    unit, diags = parse(tokens)
    out.append(_value(unit))
    out.append("parser " + _value(diags))
    ts, line_map, diags = elaborate(unit, top)
    out.append("elaborate " + _value(diags))
    ir = _Ir(out)
    _system(out, ir, "system", ts)
    for n, line in line_map.items():
        out.append(f"line {n} = {line if isinstance(line, int) else ir(line)}")
    prop, diags = parse_property(prop_text, ts)
    out.append("property " + _value(prop) + " " + _value(diags))
    obl = compile_obligation(prop, ts)
    _system(out, ir, "obligation", obl.augmented)
    tpl = Template(obl)
    out.append(f"template nodes={tpl.aig.nodes}")
    out.append(f"hash={list(tpl.aig.hash.items())}")
    out.append(f"state_bits={tpl.state_bits} next={tpl.next} "
               f"input_bits={tpl.input_bits}")
    out.append(f"buses={list(tpl.buses.items())}")
    return "\n".join(out)


def digest(name: str) -> str:
    text = front_half_text(*_check(name))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_table_covers_every_pinned_check():
    assert set(DIGESTS) == set(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_front_half_is_unchanged(name):
    assert digest(name) == DIGESTS[name]
