"""Word-level finite-state transition system over a single implicit clock."""

from __future__ import annotations

from functools import cached_property

from svsec.ir import expr as ex
from svsec.node import Node


class StateVar(Node):
    name: str
    width: int
    reset: int | None  # None = free (nondeterministic) initial value


class TransitionSystem:
    """`defines` is topologically ordered; `widths` maps every input,
    state and define to its width."""

    def __init__(self, inputs: list[tuple[str, int]], states: list[StateVar],
                 next: dict[str, ex.Expr], defines: list[tuple[str, ex.Expr]],
                 outputs: list[str], clock: str | None = None):
        self.inputs = inputs
        self.states = states
        self.next = next
        self.defines = defines
        self.outputs = outputs
        self.clock = clock
        self.widths = {n: w for n, w in inputs}
        self.widths.update({s.name: s.width for s in states})
        self.widths.update({n: e.width for n, e in defines})

    @cached_property
    def tape(self) -> "Tape":
        """The system's `Tape`, built on first use."""
        return Tape(self)

    def state_bits(self) -> int:
        return sum(s.width for s in self.states)

    def input_bits(self) -> int:
        return sum(w for _, w in self.inputs)

    def with_extra(self, extra_states: list[StateVar],
                   extra_next: dict[str, ex.Expr],
                   extra_defines: list[tuple[str, ex.Expr]]) -> "TransitionSystem":
        """The system with `extra_states` and `extra_defines` added,
        whose names must be new to it."""
        assert not self.widths.keys() & (
            {s.name for s in extra_states} | {n for n, _ in extra_defines})
        return TransitionSystem(
            inputs=list(self.inputs),
            states=self.states + extra_states,
            next={**self.next, **extra_next},
            defines=self.defines + extra_defines,
            outputs=list(self.outputs),
            clock=self.clock,
        )


def simulate_step(ts: TransitionSystem, state_val: dict[str, int],
                  input_val: dict[str, int]) -> tuple[dict[str, int], dict[str, int]]:
    """One clock tick: defines are computed before the state update."""
    for n, w in ts.inputs:
        if n not in input_val:
            raise ValueError(f"missing input {n}")
        if input_val[n] >> w:
            raise ValueError(f"input {n} value exceeds width {w}")
    for s in ts.states:
        if s.name not in state_val:
            raise ValueError(f"missing state {s.name}")
        if state_val[s.name] >> s.width:
            raise ValueError(f"state {s.name} value exceeds width {s.width}")
    nxt, env = ts.tape.step([state_val[s.name] for s in ts.states],
                            [input_val[n] for n, _ in ts.inputs])
    return ({s.name: v for s, v in zip(ts.states, nxt)},
            {n: env[n] for n in ts.outputs})


class Tape:
    """A system's step as a straight list of operator nodes, run by
    `ex.eval_op`: the evaluator of traces and single steps.

    `compile_stepper` generates and compiles Python for the whole
    system, which a counterexample's few cycles never earn back.  The
    tape is built by one fold with a shared memo, so each distinct node
    is listed once: the defines' nodes first, in order, then the
    next-state functions'.
    """

    def __init__(self, ts: TransitionSystem):
        # Registers: states, then inputs (both set per step), then the
        # constants and one per node.  `slots` maps signals to them.
        slots = {s.name: i for i, s in enumerate(ts.states)}
        slots.update((n, len(slots)) for n, _ in ts.inputs)
        regs = [0] * len(slots)
        consts: dict[int, int] = {}
        ops: list[tuple] = []

        def leaf(e: ex.Expr) -> int:
            if isinstance(e, ex.Ref):
                return slots[e.name]
            if e.value not in consts:
                consts[e.value] = len(regs)
                regs.append(e.value)
            return consts[e.value]

        def node(e: ex.Op, args: list[int]) -> int:
            ops.append((len(regs), e.op, tuple(args),
                        tuple([a.width for a in e.args]), e.params))
            regs.append(0)
            return len(regs) - 1

        memo: dict[ex.Op, int] = {}
        for n, e in ts.defines:
            slots[n] = ex.fold(e, leaf, node, memo)
        self.next = tuple(ex.fold(ts.next[s.name], leaf, node, memo)
                          for s in ts.states)
        self.ops = ops
        self.rest = regs[len(ts.states) + len(ts.inputs):]
        self.env = tuple(slots.items())

    def step(self, state, inputs) -> tuple[tuple[int, ...], dict[str, int]]:
        """(next states, full env) from the states and inputs in
        `ts.states` and `ts.inputs` order, like `compile_stepper`'s
        step; the env maps every state, input and define to its value."""
        regs = [*state, *inputs, *self.rest]
        for dst, op, args, widths, params in self.ops:
            regs[dst] = ex.eval_op(op, [regs[a] for a in args], widths, params)
        return (tuple([regs[i] for i in self.next]),
                {n: regs[i] for n, i in self.env})


def compile_stepper(ts: TransitionSystem):
    """Generate a fast step function via Python codegen.

    Returns step(state_tuple, input_tuple) -> (next_state_tuple, full_env)
    where tuples follow ts.states / ts.inputs order.  Only the
    explicit-state oracle uses it: its millions of steps repay the
    compile, which a trace's few cycles do not (they run the `Tape`).
    Each operator node is bound to a local once, so the code grows
    with the IR's DAG, not with the tree it unfolds to.
    """
    signals = ([s.name for s in ts.states] + [n for n, _ in ts.inputs]
               + [n for n, _ in ts.defines])
    names = {n: f"v{i}" for i, n in enumerate(signals)}
    lines = ["def step(state, inputs):"]
    for i, s in enumerate(ts.states):
        lines.append(f"    {names[s.name]} = state[{i}]")
    for i, (n, _) in enumerate(ts.inputs):
        lines.append(f"    {names[n]} = inputs[{i}]")
    temps: dict[ex.Op, str] = {}

    def leaf(e: ex.Expr) -> str:
        return str(e.value) if isinstance(e, ex.BV) else names[e.name]

    def bind(e: ex.Op, args: list[str]) -> str:
        """Bind an operator node to a new local; returns its name."""
        name = f"t{len(temps)}"
        lines.append(f"    {name} = {_pyexpr(e, args)}")
        return name

    for n, e in ts.defines:
        lines.append(f"    {names[n]} = {ex.fold(e, leaf, bind, temps)}")
    nxt = ", ".join(ex.fold(ts.next[s.name], leaf, bind, temps)
                    for s in ts.states)
    env_items = ", ".join(f"{n!r}: {v}" for n, v in names.items())
    lines.append(f"    return ({nxt}{',' if len(ts.states) == 1 else ''}), {{{env_items}}}")
    ns: dict = {}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from our own IR only
    return ns["step"]


def _pyexpr(e: ex.Op, a: list[str]) -> str:
    """Python for one operator node over its operands' code `a`."""
    w = [x.width for x in e.args]
    op = e.op
    if op == "not":
        return f"(~{a[0]} & {ex.mask(w[0])})"
    if op == "neg":
        return f"(-{a[0]} & {ex.mask(w[0])})"
    if op == "and":
        return f"({a[0]} & {a[1]})"
    if op == "or":
        return f"({a[0]} | {a[1]})"
    if op == "xor":
        return f"({a[0]} ^ {a[1]})"
    if op == "add":
        return f"(({a[0]} + {a[1]}) & {ex.mask(e.width)})"
    if op == "sub":
        return f"(({a[0]} - {a[1]}) & {ex.mask(e.width)})"
    if op == "mul":
        return f"(({a[0]} * {a[1]}) & {ex.mask(e.width)})"
    if op == "shl":
        return f"((({a[0]} << {a[1]}) & {ex.mask(w[0])}) if {a[1]} < {w[0]} else 0)"
    if op == "shr":
        return f"({a[0]} >> {a[1]})"
    if op == "eq":
        return f"(1 if {a[0]} == {a[1]} else 0)"
    if op == "ult":
        return f"(1 if {a[0]} < {a[1]} else 0)"
    if op == "ule":
        return f"(1 if {a[0]} <= {a[1]} else 0)"
    if op == "redor":
        return f"(1 if {a[0]} else 0)"
    if op == "redand":
        return f"(1 if {a[0]} == {ex.mask(w[0])} else 0)"
    if op == "redxor":
        return f"(bin({a[0]}).count('1') & 1)"
    if op == "mux":
        return f"({a[1]} if {a[0]} else {a[2]})"
    if op == "slice":
        hi, lo = e.params
        return f"(({a[0]} >> {lo}) & {ex.mask(hi - lo + 1)})"
    if op == "concat":
        parts = []
        shift = 0
        for arg, txt in reversed(list(zip(e.args, a))):
            parts.append(f"({txt} << {shift})" if shift else txt)
            shift += arg.width
        return "(" + " | ".join(parts) + ")"
    raise ValueError(f"unknown op {op!r}")
