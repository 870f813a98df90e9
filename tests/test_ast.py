"""`Node` behaves as the `@dataclass(frozen=True)` it replaces.

Each AST class, and each other frozen record built on `Node`, is checked
against a frozen dataclass twin made from its fields and defaults, with
the fields it does not compare (an AST node's `line`) left out of
comparison, on seeded random field values.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from svsec.catalog.problems import Port, ProblemSpec
from svsec.frontend import ast
from svsec.frontend.diagnostics import Diagnostic
from svsec.ir.transition import StateVar
from svsec.props.parse import PropertyAst

CLASSES = [c for c in vars(ast).values()
           if isinstance(c, type) and issubclass(c, ast.Node)
           and c is not ast.Node]
RECORDS = [Diagnostic, StateVar, PropertyAst, Port, ProblemSpec]

# Small pools, so that two random nodes are sometimes equal.
VALUES = [0, 1, "a", "b", None, (), (0, "a"), ast.Ident("x"),
          ast.Number(1, 4, "'d")]


def twin(cls: type) -> type:
    def spec(f):
        kw = {"compare": f in cls._compared}
        if f in cls._defaults:
            kw["default"] = cls._defaults[f]
        return f, object, dataclasses.field(**kw)

    return dataclasses.make_dataclass(cls.__name__, map(spec, cls._fields),
                                      frozen=True)


def test_every_class_declares_its_fields_in_order():
    assert len(CLASSES) == 28
    assert ast.Number._fields == ("value", "width", "base")
    assert ast.Number._defaults == {"width": None, "base": None}
    assert ast.Instance._fields == ("module", "name", "conns",
                                    "param_overrides", "line")
    assert ast.Instance._compared == ("module", "name", "conns",
                                      "param_overrides")
    assert ast.Expr._fields == ast.Stmt._fields == ()
    assert not any(dataclasses.is_dataclass(c) for c in CLASSES + RECORDS)
    assert Diagnostic._compared == ("severity", "message", "line", "col")


def test_a_subclass_extends_its_bases_fields():
    class Sized(ast.Ident):
        width: int = 1
        line: int = 0

    assert Sized._fields == ("name", "width", "line")
    assert Sized("a", 2, 7) == Sized("a", 2, 8) != ast.Ident("a")
    assert repr(Sized("a")).endswith(".Sized(name='a', width=1, line=0)")


@pytest.mark.parametrize(
    "cls", CLASSES + RECORDS,
    ids=lambda c: (c.__name__ if c in CLASSES
                   else f"{c.__module__}.{c.__name__}"))
def test_node_matches_its_dataclass_twin(cls):
    rng = random.Random(cls.__name__)
    other = twin(cls)
    fields = cls._fields
    required = [f for f in fields if f not in cls._defaults]

    def draw() -> dict:
        return {f: rng.choice(VALUES) for f in fields}

    for _ in range(50):
        a = draw()
        b = dict(a)
        for f in rng.sample(fields, rng.randint(0, min(2, len(fields)))):
            b[f] = rng.choice(VALUES)
        na, nb = cls(**a), cls(*b.values())
        ta, tb = other(**a), other(**b)
        assert (na == nb, na != nb) == (ta == tb, ta != tb)
        assert hash(na) == hash(ta) and hash(nb) == hash(tb)
        assert repr(na) == repr(ta) and repr(nb) == repr(tb)
        assert na != ta and not na == ta

        changes = {f: rng.choice(VALUES)
                   for f in rng.sample(fields, rng.randint(0, len(fields)))}
        nr, tr = ast.replace(na, **changes), dataclasses.replace(ta, **changes)
        assert type(nr) is cls
        assert (repr(nr), hash(nr)) == (repr(tr), hash(tr))

    least = cls(**{f: 0 for f in required})
    assert repr(least) == repr(other(**{f: 0 for f in required}))
    for node in (least, other(**{f: 0 for f in required})):
        for f in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(node, f, 1)
            with pytest.raises(AttributeError):
                delattr(node, f)
    for make in (cls, other):
        for f in required:
            with pytest.raises(TypeError):
                make(**{g: 0 for g in required if g != f})
        with pytest.raises(TypeError):
            make(*[0] * (len(fields) + 1))
        with pytest.raises(TypeError):
            make(**{f: 0 for f in required}, extra=0)
        if required:
            with pytest.raises(TypeError):
                make(*[0] * len(required), **{required[0]: 0})
    for rep, node in ((ast.replace, least),
                      (dataclasses.replace, other(**{f: 0 for f in required}))):
        with pytest.raises(TypeError):
            rep(node, extra=0)
