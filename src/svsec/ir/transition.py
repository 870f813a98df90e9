"""Word-level finite-state transition system over a single implicit clock."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from svsec.ir import expr as ex


@dataclass(frozen=True)
class StateVar:
    name: str
    width: int
    reset: int | None  # None = free (nondeterministic) initial value


@dataclass
class TransitionSystem:
    inputs: list[tuple[str, int]]
    states: list[StateVar]
    next: dict[str, ex.Expr]
    defines: list[tuple[str, ex.Expr]]  # topologically ordered
    outputs: list[str]
    clock: str | None = None
    widths: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.widths:
            self.widths = {n: w for n, w in self.inputs}
            self.widths.update({s.name: s.width for s in self.states})
            self.widths.update({n: e.width for n, e in self.defines})

    def state_bits(self) -> int:
        return sum(s.width for s in self.states)

    def input_bits(self) -> int:
        return sum(w for _, w in self.inputs)

    def with_extra(self, extra_states: list[StateVar],
                   extra_next: dict[str, ex.Expr],
                   extra_defines: list[tuple[str, ex.Expr]]) -> "TransitionSystem":
        ts = TransitionSystem(
            inputs=list(self.inputs),
            states=self.states + extra_states,
            next={**self.next, **extra_next},
            defines=self.defines + extra_defines,
            outputs=list(self.outputs),
            clock=self.clock,
            widths={},
        )
        return ts


def simulate_step(ts: TransitionSystem, state_val: dict[str, int],
                  input_val: dict[str, int]) -> tuple[dict[str, int], dict[str, int]]:
    """One clock tick: defines are computed before the state update."""
    env = dict(input_val)
    env.update(state_val)
    for name, (_, w) in zip([n for n, _ in ts.inputs], ts.inputs):
        if name not in env:
            raise ValueError(f"missing input {name}")
    for s in ts.states:
        if s.name not in state_val:
            raise ValueError(f"missing state {s.name}")
        if state_val[s.name] >> s.width:
            raise ValueError(f"state {s.name} value exceeds width {s.width}")
    for n, w in ts.inputs:
        if input_val[n] >> w:
            raise ValueError(f"input {n} value exceeds width {w}")
    for n, e in ts.defines:
        env[n] = ex.eval_expr(e, env)
    nxt = {s.name: ex.eval_expr(ts.next[s.name], env) for s in ts.states}
    outs = {n: env[n] for n in ts.outputs}
    return nxt, outs


def compile_stepper(ts: TransitionSystem):
    """Generate a fast step function via Python codegen.

    Returns step(state_tuple, input_tuple) -> (next_state_tuple, full_env)
    where tuples follow ts.states / ts.inputs order.  Used by the
    explicit-state oracle and randomized cross-checks, where the
    interpreter would dominate runtime.
    """
    names: dict[str, str] = {}

    def pyname(n: str) -> str:
        if n not in names:
            names[n] = f"v{len(names)}"
        return names[n]

    lines = ["def step(state, inputs):"]
    for i, s in enumerate(ts.states):
        lines.append(f"    {pyname(s.name)} = state[{i}]")
    for i, (n, _) in enumerate(ts.inputs):
        lines.append(f"    {pyname(n)} = inputs[{i}]")
    for n, e in ts.defines:
        lines.append(f"    {pyname(n)} = {_pyexpr(e, pyname)}")
    nxt = ", ".join(_pyexpr(ts.next[s.name], pyname) for s in ts.states)
    env_items = ", ".join(f"{n!r}: {v}" for n, v in names.items())
    lines.append(f"    return ({nxt}{',' if len(ts.states) == 1 else ''}), {{{env_items}}}")
    ns: dict = {}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from our own IR only
    return ns["step"]


def _pyexpr(e: ex.Expr, pyname) -> str:
    if isinstance(e, ex.BV):
        return str(e.value)
    if isinstance(e, ex.Ref):
        return pyname(e.name)
    assert isinstance(e, ex.Op)
    a = [_pyexpr(x, pyname) for x in e.args]
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
