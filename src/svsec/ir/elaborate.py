"""AST -> TransitionSystem translation.

Flattens the module hierarchy (instance signals become `inst.sig`),
turns clocked always blocks into state variables with next-state
expressions, and combinational logic into ordered defines.

Always blocks are executed symbolically.  `if` (a one-arm `case`) and
`case` run each arm in source order on its own copy of the block's
environment, and merge the arms back into one mux per slot.  Line
numbers come from the same run: a clocked slot carries a line tracker,
merged like its value, and a combinational define takes the largest
line that assigns its name.

Reset handling: a `negedge rst` (or `posedge rst`) companion in a
clocked sensitivity list is modelled as a synchronous-at-cycle-boundary
reset; reset values are recovered by partially evaluating each
next-state expression with the reset asserted.  States whose next
expression does not fold to a constant under reset start free.  Of two
posedges, the clock is the one the block does not read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from svsec.frontend import ast
from svsec.frontend.diagnostics import Diagnostic, Severity
from svsec.ir import expr as ex
from svsec.ir.transition import StateVar, TransitionSystem

ARRAY_BIT_CAP = 4096


class ElabError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


def _err(msg: str, line: int = 0, sev: Severity = Severity.ERROR) -> ElabError:
    return ElabError(Diagnostic(sev, msg, line, 0))


@dataclass
class ArrayInfo:
    lo: int
    hi: int
    width: int


@dataclass
class Scope:
    """Per-instance naming scope."""
    prefix: str  # "" for top, "inst." for children
    params: dict[str, int] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)  # local name -> width
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    inputs: set[str] = field(default_factory=set)  # input port names

    def qual(self, name: str) -> str:
        return self.prefix + name


@dataclass
class Collected:
    input_widths: dict[str, int] = field(default_factory=dict)
    defines: dict[str, ex.Expr] = field(default_factory=dict)
    # state name -> (next expr, reset value or None)
    states: dict[str, tuple[ex.Expr, int | None]] = field(default_factory=dict)
    # define -> its line; state -> a line tracker over the cycle's values
    lines: dict[str, int | ex.Expr] = field(default_factory=dict)
    clock_candidates: set[str] = field(default_factory=set)
    outputs: list[str] = field(default_factory=list)


def elaborate(unit: ast.SourceUnit, top: str):
    """Returns (TransitionSystem, line_map, []), or on failure
    (None, {}, diagnostics); raises nothing."""
    try:
        ts, line_map = _elaborate(unit, top)
        return ts, line_map, []
    except ElabError as e:
        return None, {}, [e.diag]


def _elaborate(unit: ast.SourceUnit, top: str):
    modules = {m.name: m for m in unit.modules}
    if top not in modules:
        raise _err(f"top module {top!r} not found")
    col = Collected()
    _elab_module(modules, modules[top], Scope(prefix=""), col, is_top=True,
                 port_exprs=None)

    clock = _resolve_clock(col)
    inputs = [(n, w) for n, w in col.input_widths.items() if n != clock]

    # Topologically order defines; detect combinational cycles.
    order = _toposort_defines(col)

    states = [StateVar(name=n, width=next_e.width, reset=reset)
              for n, (next_e, reset) in col.states.items()]
    nxt = {n: next_e for n, (next_e, _) in col.states.items()}

    ts = TransitionSystem(
        inputs=inputs,
        states=states,
        next=nxt,
        defines=[(n, col.defines[n]) for n in order],
        outputs=col.outputs,
        clock=clock,
    )
    _check_refs(ts, clock)
    return ts, col.lines


def _resolve_clock(col: Collected) -> str | None:
    if not col.clock_candidates:
        return None
    roots = set()
    for c in sorted(col.clock_candidates):
        seen = set()
        cur = c
        while cur in col.defines and isinstance(col.defines[cur], ex.Ref):
            if cur in seen:
                raise _err(f"clock alias cycle through {cur!r}")
            seen.add(cur)
            cur = col.defines[cur].name
        roots.add(cur)
    if len(roots) > 1:
        raise _err(f"multiple clocks are not supported: {sorted(roots)}",
                   sev=Severity.UNSUPPORTED)
    root = roots.pop()
    if root not in col.input_widths:
        raise _err(f"clock {root!r} must be a top-level input",
                   sev=Severity.UNSUPPORTED)
    # Drop pure-alias defines of the clock net (child clock port bindings).
    changed = True
    dropped = {root}
    while changed:
        changed = False
        for c in list(col.defines):
            e = col.defines[c]
            if isinstance(e, ex.Ref) and e.name in dropped:
                del col.defines[c]
                del col.lines[c]
                dropped.add(c)
                changed = True
    return root


def _check_refs(ts: TransitionSystem, clock: str | None) -> None:
    known = set(ts.widths)
    all_exprs = list(ts.next.items()) + list(ts.defines)
    for name, e in all_exprs:
        for r in sorted(ex.refs(e)):
            if r == clock:
                raise _err(f"clock {clock!r} used as data in {name!r}",
                           sev=Severity.UNSUPPORTED)
            if r not in known:
                raise _err(f"undriven signal {r!r} referenced by {name!r}")


def _toposort_defines(col: Collected) -> list[str]:
    # Depth-first post-order, deps in name order, on an explicit stack
    deps = {n: sorted(r for r in ex.refs(e) if r in col.defines)
            for n, e in col.defines.items()}
    order: list[str] = []
    mark: dict[str, int] = {}  # 1 while on the path, 2 once ordered
    for root in sorted(deps):
        if root in mark:
            continue
        # path[i] is being visited and todo[i] yields its unvisited deps
        mark[root] = 1
        path, todo = [root], [iter(deps[root])]
        while path:
            d = next(todo[-1], None)
            if d is None:
                mark[path[-1]] = 2
                order.append(path.pop())
                todo.pop()
            elif mark.get(d) == 1:
                cycle = " -> ".join(path[path.index(d):] + [d])
                raise _err(f"combinational loop: {cycle}", line=col.lines[d])
            elif d not in mark:
                mark[d] = 1
                path.append(d)
                todo.append(iter(deps[d]))
    return order


# --------------------------------------------------------------------------
# Per-module elaboration

def _elab_module(modules, mod: ast.ModuleDecl, scope: Scope, col: Collected,
                 is_top: bool, port_exprs: dict[str, ex.Expr] | None) -> None:
    for p in mod.params:
        # an instantiation site's override (already in scope) wins
        if p.name not in scope.params:
            scope.params[p.name] = _const_eval(p.value, scope)

    # Declare ports and nets.
    for port in mod.ports:
        if port.direction == "inout":
            raise _err(f"inout port {port.name!r} is not supported", port.line,
                       Severity.UNSUPPORTED)
        _check_not_param(port.name, "port", scope, port.line)
        w = _range_width(port.msb, port.lsb, scope, port.line)
        scope.widths[port.name] = w
        if port.direction == "input":
            scope.inputs.add(port.name)
    for d in mod.decls:
        _check_not_param(d.name, "net", scope, d.line)
        if any(p.name == d.name for p in mod.ports):
            # Redeclaration of a port with its net kind.
            continue
        if d.name in scope.widths or d.name in scope.arrays:
            raise _err(f"{d.name!r} is declared twice", d.line)
        w = _range_width(d.msb, d.lsb, scope, d.line)
        if d.unpacked is not None:
            lo = _const_eval(d.unpacked[0], scope)
            hi = _const_eval(d.unpacked[1], scope)
            if lo > hi:
                lo, hi = hi, lo
            total = (hi - lo + 1) * w
            if total > ARRAY_BIT_CAP:
                raise _err(f"unpacked array {d.name!r} exceeds {ARRAY_BIT_CAP} bits",
                           d.line, Severity.UNSUPPORTED)
            scope.arrays[d.name] = ArrayInfo(lo=lo, hi=hi, width=w)
            for i in range(lo, hi + 1):
                scope.widths[f"{d.name}[{i}]"] = w
        else:
            scope.widths[d.name] = w

    # Bind ports.
    for port in mod.ports:
        q = scope.qual(port.name)
        if is_top:
            if port.direction == "input":
                col.input_widths[q] = scope.widths[port.name]
            else:
                col.outputs.append(q)
        else:
            assert port_exprs is not None
            if port.direction == "input":
                if port.name in port_exprs:
                    bound = ex.resize(port_exprs[port.name], scope.widths[port.name])
                    _add_define(col, q, bound, mod.line)
                else:
                    _add_define(col, q, ex.BV(scope.widths[port.name], 0), mod.line)
            # Output ports are driven inside the child; the parent-side
            # connection define is created at the instantiation site.

    for a in mod.assigns:
        _elab_continuous(a, scope, col)

    for blk in mod.always_blocks:
        _elab_always(blk, scope, col)

    for inst in mod.instances:
        if inst.module not in modules:
            raise _err(f"unknown module {inst.module!r}", inst.line)
        child = modules[inst.module]
        child_scope = Scope(prefix=scope.prefix + inst.name + ".")
        overridable = {p.name for p in child.params if not p.local}
        for pname, pval in inst.param_overrides:
            if pname not in overridable:
                raise _err(f"module {inst.module!r} has no parameter "
                           f"{pname!r} to override", inst.line)
            child_scope.params[pname] = _const_eval(pval, scope)
        child_ports = {p.name: p for p in child.ports}
        in_exprs: dict[str, ex.Expr] = {}
        out_conns: list[tuple[str, str, int]] = []
        for conn in inst.conns:
            if conn.port not in child_ports:
                raise _err(f"module {inst.module!r} has no port {conn.port!r}",
                           inst.line)
            cp = child_ports[conn.port]
            if cp.direction == "input":
                if conn.expr is not None:
                    in_exprs[conn.port] = _elab_expr(conn.expr, scope, {})
            else:
                if conn.expr is None:
                    continue
                if not isinstance(conn.expr, ast.Ident):
                    raise _err("output port connections must be plain identifiers",
                               inst.line, Severity.UNSUPPORTED)
                out_conns.append((conn.expr.name, conn.port, inst.line))
        _elab_module(modules, child, child_scope, col, is_top=False,
                     port_exprs=in_exprs)
        for parent_net, child_port, line in out_conns:
            if parent_net not in scope.widths:
                raise _err(f"undeclared net {parent_net!r} in connection", line)
            _check_target(parent_net, scope, line)
            q_child = child_scope.qual(child_port)
            w = scope.widths[parent_net]
            _add_define(col, scope.qual(parent_net),
                        ex.resize(ex.Ref(child_scope.widths[child_port], q_child), w),
                        line)

    if is_top:
        for port in mod.ports:
            q = scope.qual(port.name)
            if port.direction == "output" and q not in col.defines \
                    and q not in col.states:
                raise _err(f"output port {port.name!r} is never driven", port.line)


def _check_not_param(name: str, kind: str, scope: Scope, line: int) -> None:
    if name in scope.params:
        raise _err(f"{kind} {name!r} has the same name as a parameter", line)


def _check_target(name: str, scope: Scope, line: int) -> None:
    if name not in scope.widths:
        raise _err(f"assignment to undeclared signal {name!r}", line)
    if name in scope.inputs:
        raise _err(f"cannot assign to input port {name!r}", line)


def _add_define(col: Collected, name: str, e: ex.Expr, line: int) -> None:
    if name in col.defines or name in col.states:
        raise _err(f"multiple drivers for {name!r}", line)
    col.defines[name] = e
    col.lines[name] = line


def _range_width(msb, lsb, scope: Scope, line: int) -> int:
    if msb is None:
        return 1
    m = _const_eval(msb, scope)
    l = _const_eval(lsb, scope)
    if m < l:
        raise _err(f"descending ranges [{m}:{l}] only (msb >= lsb)", line,
                   Severity.UNSUPPORTED)
    return m - l + 1


def _const_eval(e: ast.Expr, scope: Scope) -> int:
    if isinstance(e, ast.Number):
        return e.value
    if isinstance(e, ast.Ident):
        if e.name in scope.params:
            return scope.params[e.name]
        raise _err(f"{e.name!r} is not a compile-time constant")
    if isinstance(e, ast.Binary):
        a = _const_eval(e.left, scope)
        b = _const_eval(e.right, scope)
        ops = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
               "/": lambda: a // b if b else 0, "%": lambda: a % b if b else 0,
               "<<": lambda: a << b, ">>": lambda: a >> b}
        if e.op in ops:
            return ops[e.op]()
    if isinstance(e, ast.Unary) and e.op == "-":
        return -_const_eval(e.operand, scope)
    raise _err("expression is not a supported compile-time constant")


# --------------------------------------------------------------------------
# Expression elaboration
#
# `blocking` maps the names (and `name[i]` array elements) that an always
# block has assigned so far to their current values; reads check it first.
# Outside always blocks it is empty.

def _lookup(name: str, scope: Scope, blocking: dict[str, ex.Expr]) -> ex.Expr:
    if name in blocking:
        return blocking[name]
    if name in scope.params:
        return ex.BV(32, scope.params[name])
    if name in scope.widths:
        return ex.Ref(scope.widths[name], scope.qual(name))
    if name in scope.arrays:
        raise _err(f"array {name!r} used without an index")
    raise _err(f"unknown identifier {name!r}")


def _balance(a: ex.Expr, b: ex.Expr) -> tuple[ex.Expr, ex.Expr]:
    w = max(a.width, b.width)
    return ex.resize(a, w), ex.resize(b, w)


def _equals(idx: ex.Expr, i: int) -> ex.Expr:
    return ex.binop("eq", *_balance(idx, ex.BV(idx.width, i)))


def _const_or_none(e: ast.Expr, scope: Scope) -> int | None:
    try:
        return _const_eval(e, scope)
    except ElabError:
        return None


def _elab_expr(e: ast.Expr, scope: Scope,
               blocking: dict[str, ex.Expr]) -> ex.Expr:
    if isinstance(e, ast.Number):
        width = e.width if e.width is not None else 32
        return ex.BV(width, e.value)
    if isinstance(e, ast.Ident):
        return _lookup(e.name, scope, blocking)
    if isinstance(e, ast.Unary):
        a = _elab_expr(e.operand, scope, blocking)
        if e.op == "~":
            return ex.unop("not", a)
        if e.op == "-":
            return ex.unop("neg", a)
        if e.op == "!":
            return ex.lognot(a)
        if e.op == "&":
            return ex.unop("redand", a)
        if e.op == "|":
            return ex.unop("redor", a)
        if e.op == "^":
            return ex.unop("redxor", a)
        raise _err(f"unsupported unary operator {e.op!r}", sev=Severity.UNSUPPORTED)
    if isinstance(e, ast.Binary):
        return _elab_binary(e, scope, blocking)
    if isinstance(e, ast.Ternary):
        c = ex.boolify(_elab_expr(e.cond, scope, blocking))
        t, o = _balance(_elab_expr(e.then, scope, blocking),
                        _elab_expr(e.other, scope, blocking))
        return ex.mux(c, t, o)
    if isinstance(e, ast.Index):
        return _elab_index(e, scope, blocking)
    if isinstance(e, ast.RangeSelect):
        if not isinstance(e.base, ast.Ident):
            raise _err("part select base must be an identifier",
                       sev=Severity.UNSUPPORTED)
        base = _lookup(e.base.name, scope, blocking)
        hi = _const_eval(e.msb, scope)
        lo = _const_eval(e.lsb, scope)
        _check_part(e.base.name, base.width, hi, lo)
        return ex.slice_(base, hi, lo)
    if isinstance(e, ast.Concat):
        return ex.concat(tuple(_elab_expr(p, scope, blocking) for p in e.parts))
    if isinstance(e, ast.Replicate):
        n = _const_eval(e.count, scope)
        v = _elab_expr(e.value, scope, blocking)
        return ex.concat(tuple(v for _ in range(max(n, 0))))
    if isinstance(e, ast.SysCall):
        raise _err(f"system function {e.name} is not supported in module context",
                   sev=Severity.UNSUPPORTED)
    raise _err(f"unsupported expression {type(e).__name__}",
               sev=Severity.UNSUPPORTED)


def _elab_binary(e: ast.Binary, scope: Scope,
                 blocking: dict[str, ex.Expr]) -> ex.Expr:
    # A chain `a ^ b ^ c ...` parses left-associative, so it nests down
    # its left operands.  Walk that spine in a loop, not a frame per
    # operator, so that long chains do not reach the recursion limit.
    spine = [e]
    while isinstance(spine[-1].left, ast.Binary):
        spine.append(spine[-1].left)
    a = _elab_expr(spine[-1].left, scope, blocking)
    for node in reversed(spine):
        a = _binop(node.op, a, _elab_expr(node.right, scope, blocking))
    return a


def _binop(op: str, a: ex.Expr, b: ex.Expr) -> ex.Expr:
    if op in ("&&", "||"):
        a, b = ex.boolify(a), ex.boolify(b)
        return ex.binop("and" if op == "&&" else "or", a, b)
    if op in ("&", "|", "^"):
        a, b = _balance(a, b)
        return ex.binop({"&": "and", "|": "or", "^": "xor"}[op], a, b)
    if op in ("+", "-", "*"):
        a, b = _balance(a, b)
        return ex.binop({"+": "add", "-": "sub", "*": "mul"}[op], a, b)
    if op in ("==", "!="):
        a, b = _balance(a, b)
        eq = ex.binop("eq", a, b)
        return ex.unop("not", eq) if op == "!=" else eq
    if op in ("<", "<=", ">", ">="):
        a, b = _balance(a, b)
        if op == "<":
            return ex.binop("ult", a, b)
        if op == "<=":
            return ex.binop("ule", a, b)
        if op == ">":
            return ex.binop("ult", b, a)
        return ex.binop("ule", b, a)
    if op in ("<<", ">>", ">>>"):
        if op == ">>>":
            raise _err("arithmetic shift is not supported (unsigned semantics)",
                       sev=Severity.UNSUPPORTED)
        return ex.binop({"<<": "shl", ">>": "shr"}[op], a, b, width=a.width)
    if op in ("/", "%"):
        raise _err(f"operator {op!r} is not supported", sev=Severity.UNSUPPORTED)
    raise _err(f"unsupported operator {op!r}", sev=Severity.UNSUPPORTED)


def _elab_index(e: ast.Index, scope: Scope,
                blocking: dict[str, ex.Expr]) -> ex.Expr:
    if not isinstance(e.base, ast.Ident):
        raise _err("index base must be an identifier", sev=Severity.UNSUPPORTED)
    name = e.base.name
    idx = _const_or_none(e.index, scope)
    if name in scope.arrays:
        info = scope.arrays[name]
        if idx is not None:
            _check_element(name, info, idx)
            return _lookup(f"{name}[{idx}]", scope, blocking)
        idx_e = _elab_expr(e.index, scope, blocking)
        result = _lookup(f"{name}[{info.hi}]", scope, blocking)
        for i in range(info.hi - 1, info.lo - 1, -1):
            result = ex.mux(_equals(idx_e, i),
                            _lookup(f"{name}[{i}]", scope, blocking), result)
        return result
    base = _lookup(name, scope, blocking)
    if idx is not None:
        _check_bit(name, base.width, idx)
        return ex.slice_(base, idx, idx)
    idx_e = _elab_expr(e.index, scope, blocking)
    return ex.slice_(ex.binop("shr", base, idx_e, width=base.width), 0, 0)


# Constant selects out of range: reads and assignment targets share these.

def _check_element(name: str, info: ArrayInfo, idx: int, line: int = 0) -> None:
    if not (info.lo <= idx <= info.hi):
        raise _err(f"index {idx} out of range for array {name!r} "
                   f"[{info.lo}:{info.hi}]", line)


def _check_bit(name: str, width: int, idx: int, line: int = 0) -> None:
    if not (0 <= idx < width):
        raise _err(f"bit index {idx} out of range for {name!r} "
                   f"(width {width})", line)


def _check_part(name: str, width: int, hi: int, lo: int, line: int = 0) -> None:
    if not (0 <= lo <= hi < width):
        raise _err(f"part select [{hi}:{lo}] out of range for {name!r} "
                   f"(width {width})", line)


# --------------------------------------------------------------------------
# Statement elaboration (symbolic execution)

@dataclass
class _Env:
    """Symbolic environment for one always block.

    blocking: immediate updates visible to later reads in the block.
    deferred: nonblocking updates, applied at the end of the tick.
    lines: per slot, the line of the assignment that produced its value,
        muxed like the value, so a CEX report names the one that fired.
    last_line: per assigned name, its largest assignment line; every
        copy of the block's env shares this one dict.
    """
    scope: Scope
    last_line: dict[str, int] = field(default_factory=dict)
    blocking: dict[str, ex.Expr] = field(default_factory=dict)
    deferred: dict[str, ex.Expr] = field(default_factory=dict)
    lines: dict[str, ex.Expr] = field(default_factory=dict)

    def copy(self) -> "_Env":
        return _Env(self.scope, self.last_line, dict(self.blocking),
                    dict(self.deferred), dict(self.lines))


def _merge(cond: ex.Expr, a: _Env, b: _Env) -> _Env:
    """`cond ? a : b`, slot by slot.  A slot that one side never wrote
    holds its pre-tick value there, and a line tracker line 0."""
    out = _Env(a.scope, a.last_line)
    for attr in ("blocking", "deferred", "lines"):
        ma, mb, merged = getattr(a, attr), getattr(b, attr), getattr(out, attr)
        for k in dict.fromkeys([*ma, *mb]):
            default = (ex.BV(32, 0) if attr == "lines"
                       else ex.Ref(a.scope.widths[k], a.scope.qual(k)))
            merged[k] = ex.mux(cond, ma.get(k, default), mb.get(k, default))
    return out


def _branch(env: _Env, arms, clocked: bool) -> None:
    """Run each (cond, body) arm in source order on its own copy of
    `env`, calling `cond` when the arm is reached, and merge the arms
    back into `env`.  A None cond marks the default arm (else: `env`),
    and a None body an empty arm."""
    conds: list[tuple[ex.Expr, _Env]] = []
    merged = env
    for cond, body in arms:
        arm = env.copy()
        if cond is None:
            merged = arm
        else:
            conds.append((cond(), arm))
        if body is not None:
            _exec_stmt(body, arm, clocked)
    for cond, arm in reversed(conds):
        merged = _merge(cond, arm, merged)
    env.blocking = merged.blocking
    env.deferred = merged.deferred
    env.lines = merged.lines


def _exec_stmt(s: ast.Stmt, env: _Env, clocked: bool) -> None:
    scope = env.scope
    if isinstance(s, ast.Block):
        for sub in s.stmts:
            _exec_stmt(sub, env, clocked)
        return
    if isinstance(s, ast.If):
        _branch(env, [(lambda: ex.boolify(_elab_expr(s.cond, scope, env.blocking)),
                       s.then), (None, s.other)], clocked)
        return
    if isinstance(s, ast.Case):
        subject = _elab_expr(s.subject, scope, env.blocking)

        def matches(patterns: tuple[ast.Expr, ...]) -> ex.Expr:
            conds = [ex.binop("eq", *_balance(
                subject, _elab_expr(p, scope, env.blocking))) for p in patterns]
            return functools.reduce(functools.partial(ex.binop, "or"), conds)

        _branch(env, [(functools.partial(matches, item.patterns)
                       if item.patterns else None, item.body)
                      for item in s.items], clocked)
        return
    if isinstance(s, ast.Assign):
        _exec_assign(s, env, clocked)
        return
    raise _err(f"unsupported statement {type(s).__name__}", getattr(s, "line", 0),
               Severity.UNSUPPORTED)


def _exec_assign(s: ast.Assign, env: _Env, clocked: bool) -> None:
    scope = env.scope
    lv = s.target
    name = lv.name
    store = env.deferred if (s.nonblocking and clocked) else env.blocking
    env.last_line[name] = max(s.line, env.last_line.get(name, 0))

    def current(local: str) -> ex.Expr:
        # An unwritten slot holds the pre-tick value, which is also the
        # merge default of a deferred slot.
        if local in store:
            return store[local]
        return ex.Ref(scope.widths[local], scope.qual(local))

    def rhs(width: int) -> ex.Expr:
        return ex.resize(_elab_expr(s.value, scope, env.blocking), width)

    idx = None if lv.index is None else _const_or_none(lv.index, scope)
    if name in scope.arrays:
        info = scope.arrays[name]
        if lv.index is None:
            raise _err(f"whole-array assignment to {name!r} is not supported",
                       s.line, Severity.UNSUPPORTED)
        value = rhs(info.width)
        if idx is not None:
            _check_element(name, info, idx, s.line)
            key = f"{name}[{idx}]"
            store[key] = value
            env.lines[key] = ex.BV(32, s.line)
        else:
            idx_e = _elab_expr(lv.index, scope, env.blocking)
            for i in range(info.lo, info.hi + 1):
                cond = _equals(idx_e, i)
                key = f"{name}[{i}]"
                store[key] = ex.mux(cond, value, current(key))
                env.lines[key] = ex.mux(cond, ex.BV(32, s.line),
                                        env.lines.get(key, ex.BV(32, 0)))
        return

    _check_target(name, scope, s.line)
    w = scope.widths[name]
    if lv.index is not None:
        bit = rhs(1)
        cur = current(name)
        if idx is not None:
            _check_bit(name, w, idx, s.line)
            store[name] = _splice(cur, w, idx, idx, bit)
        else:
            idx_e = ex.resize(_elab_expr(lv.index, scope, env.blocking), w)
            one = ex.binop("shl", ex.BV(w, 1), idx_e, width=w)
            cleared = ex.binop("and", cur, ex.unop("not", one))
            setbit = ex.binop("shl", ex.resize(bit, w), idx_e, width=w)
            store[name] = ex.mux(ex.boolify(bit), ex.binop("or", cleared, setbit),
                                 cleared)
    elif lv.msb is not None:
        hi = _const_eval(lv.msb, scope)
        lo = _const_eval(lv.lsb, scope)
        _check_part(name, w, hi, lo, s.line)
        store[name] = _splice(current(name), w, hi, lo, rhs(hi - lo + 1))
    else:
        store[name] = rhs(w)
    env.lines[name] = ex.BV(32, s.line)


def _splice(cur: ex.Expr, w: int, hi: int, lo: int, part: ex.Expr) -> ex.Expr:
    """`cur` (width w) with bits [hi:lo] replaced by `part`."""
    parts = []
    if hi < w - 1:
        parts.append(ex.slice_(cur, w - 1, hi + 1))
    parts.append(part)
    if lo > 0:
        parts.append(ex.slice_(cur, lo - 1, 0))
    return ex.concat(tuple(parts))


def _elab_continuous(a: ast.ContinuousAssign, scope: Scope, col: Collected) -> None:
    lv = a.target
    if lv.index is not None or lv.msb is not None:
        raise _err("continuous assignment to a bit/part select is not supported",
                   a.line, Severity.UNSUPPORTED)
    _check_target(lv.name, scope, a.line)
    value = ex.resize(_elab_expr(a.value, scope, {}), scope.widths[lv.name])
    _add_define(col, scope.qual(lv.name), value, a.line)


def _elab_always(blk: ast.AlwaysBlock, scope: Scope, col: Collected) -> None:
    if blk.sensitivity is None or blk.kind == "always_comb":
        _elab_comb_block(blk, scope, col)
        return

    edges = blk.sensitivity
    posedges = [e for e in edges if e.edge == "posedge"]
    negedges = [e for e in edges if e.edge == "negedge"]
    if len(negedges) > 1 or len(posedges) > 2 or not posedges:
        raise _err("clocked sensitivity must be posedge clk with at most one "
                   "reset edge", blk.line, Severity.UNSUPPORTED)
    if len(posedges) == 2 and negedges:
        raise _err("too many edges in sensitivity list", blk.line,
                   Severity.UNSUPPORTED)

    env = _Env(scope)
    _exec_stmt(blk.body, env, clocked=True)

    assigned = dict(env.deferred)
    for k, v in env.blocking.items():
        if k not in assigned:
            assigned[k] = v

    if len(posedges) == 2:
        # Edge order has no meaning (IEEE 1800-2017 9.4.2): the clock is
        # the posedge the values do not read, the other an active-high
        # reset.  The sort is stable, so a tie keeps the source order.
        read = set().union(*map(ex.refs, assigned.values()))
        posedges.sort(key=lambda e: scope.qual(e.signal) in read)
    clock_ev, *resets = posedges + negedges
    col.clock_candidates.add(scope.qual(clock_ev.signal))
    reset_env = {scope.qual(e.signal): int(e.edge == "posedge")
                 for e in resets if e.signal in scope.widths}

    for local, next_e in assigned.items():
        q = scope.qual(local)
        if q in col.states or q in col.defines:
            raise _err(f"multiple drivers for {local!r}", blk.line)
        reset_val: int | None = None
        if reset_env:
            folded = ex.substitute(next_e, reset_env)
            if isinstance(folded, ex.BV):
                reset_val = folded.value
        col.states[q] = (next_e, reset_val)
        # Symbolic line tracker: evaluating this under a cycle's valuation
        # names the assignment that fired at that clock edge.
        col.lines[q] = env.lines[local]


def _elab_comb_block(blk: ast.AlwaysBlock, scope: Scope, col: Collected) -> None:
    env = _Env(scope)
    _exec_stmt(blk.body, env, clocked=False)
    if env.deferred:
        names = ", ".join(sorted(env.deferred))
        raise _err(f"nonblocking assignment in combinational block ({names})",
                   blk.line, Severity.UNSUPPORTED)
    for local, value in env.blocking.items():
        q = scope.qual(local)
        if q in ex.refs(value):
            raise _err(f"latch inferred for {local!r} (incomplete assignment)",
                       blk.line, Severity.UNSUPPORTED)
        _add_define(col, q, value, blk.line)
        # an array element's line is the array's last assignment line
        col.lines[q] = env.last_line.get(local.split("[")[0], blk.line)
