"""AST -> TransitionSystem translation.

Flattens the module hierarchy (instance signals become `inst.sig`),
turns clocked always blocks into state variables with next-state
expressions, and combinational logic into ordered defines.

Every name that a module declares (parameters, then ports, then nets,
arrays and instances in source order) goes through `Scope.declare`,
the one place that rejects a second declaration.  An instantiation's
parameter overrides reach the child as their own map.

Always blocks are executed symbolically.  `if` (a one-arm `case`) and
`case` run each arm in source order on its own copy of the block's
environment, and merge the arms back into one mux per slot.  Line
numbers come from the same run: a clocked slot carries a line tracker,
merged like its value, and a combinational define takes the largest
line that assigns its name.

Reset handling: a `negedge rst` (or `posedge rst`) companion in a
clocked sensitivity list is modelled as a synchronous-at-cycle-boundary
reset; reset values are recovered by partially evaluating each
next-state expression with the reset asserted (`ex.known_value`, one
memo per block).  States whose next expression does not fold to a
constant under reset start free.  Of two
posedges, the clock is the one the block does not read.
"""

from __future__ import annotations

import functools

from svsec.frontend import ast
from svsec.frontend.diagnostics import DiagnosticError, Severity, error
from svsec.ir import expr as ex
from svsec.ir.transition import StateVar, TransitionSystem

ARRAY_BIT_CAP = 4096

# Widths of the types that have no range (IEEE 1800-2017, Table 6-8)
_TYPE_WIDTHS = {"byte": 8, "int": 32, "integer": 32}


class ArrayInfo:
    def __init__(self, lo: int, hi: int, width: int):
        self.lo = lo
        self.hi = hi
        self.width = width


class Scope:
    """Per-instance naming scope."""

    def __init__(self, prefix: str, widths: dict[str, int] | None = None):
        self.prefix = prefix  # "" for top, "inst." for children
        self.params: dict[str, int] = {}
        self.widths = {} if widths is None else widths  # local name -> width
        self.arrays: dict[str, ArrayInfo] = {}
        self.inputs: set[str] = set()  # input port names
        self.kinds: dict[str, str] = {}  # declared name -> its kind

    def qual(self, name: str) -> str:
        return self.prefix + name

    def declare(self, name: str, kind: str, line: int) -> None:
        """Enter `name`, declared at `line` as a `kind` (parameter, port,
        net or instance).  A module's parameters, ports, nets, arrays and
        instances share one namespace (IEEE 1800-2017 3.13), and an ANSI
        port is not declared again in the body (23.2.2.2)."""
        first = self.kinds.get(name)
        if first is None:
            self.kinds[name] = kind
        elif first == "parameter" and kind != "parameter":
            raise error(f"{kind} {name!r} has the same name as a parameter", line)
        else:
            raise error(f"{name!r} is declared twice", line)


class Collected:
    def __init__(self):
        self.input_widths: dict[str, int] = {}
        self.defines: dict[str, ex.Expr] = {}
        # state name -> (next expr, reset value or None)
        self.states: dict[str, tuple[ex.Expr, int | None]] = {}
        # define -> its line; state -> a line tracker over the cycle's values
        self.lines: dict[str, int | ex.Expr] = {}
        # state or child input port -> the line of the item whose
        # expression it holds (its always block, or the instance), which
        # `lines` is not
        self.item_lines: dict[str, int] = {}
        self.clock_candidates: set[str] = set()
        self.outputs: list[str] = []


def elaborate(unit: ast.SourceUnit, top: str):
    """Returns (TransitionSystem, line_map, []), or on failure
    (None, {}, diagnostics); raises nothing."""
    try:
        ts, line_map = _elaborate(unit, top)
        return ts, line_map, []
    except DiagnosticError as e:
        return None, {}, [e.diag]


def _elaborate(unit: ast.SourceUnit, top: str):
    modules = {m.name: m for m in unit.modules}
    if top not in modules:
        raise error(f"top module {top!r} not found")
    col = Collected()
    _elab_module(modules, modules[top], Scope(prefix=""), col, parents=(),
                 port_exprs=None, overrides={})

    clock = _resolve_clock(col)
    inputs = [(n, w) for n, w in col.input_widths.items() if n != clock]

    # Topologically order defines; detect combinational cycles.
    order = _toposort_defines(col)

    states = [StateVar(n, next_e.width, reset)
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
    _check_refs(ts, clock, col)
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
                raise error(f"clock alias cycle through {cur!r}")
            seen.add(cur)
            cur = col.defines[cur].name
        roots.add(cur)
    if len(roots) > 1:
        raise error(f"multiple clocks are not supported: {sorted(roots)}",
                    severity=Severity.UNSUPPORTED)
    root = roots.pop()
    if root not in col.input_widths:
        raise error(f"clock {root!r} must be a top-level input",
                    severity=Severity.UNSUPPORTED)
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


def _check_refs(ts: TransitionSystem, clock: str | None,
                col: Collected) -> None:
    """Reject a read of the clock as data, or of a signal nothing
    drives; the latter at the line of the item that reads it."""
    known = set(ts.widths)
    all_exprs = list(ts.next.items()) + list(ts.defines)
    read = ex.refs(*(e for _, e in all_exprs))  # one walk of the shared DAG
    if clock not in read and read <= known:
        return
    for name, e in all_exprs:
        for r in sorted(ex.refs(e)):
            if r == clock:
                raise error(f"clock {clock!r} used as data in {name!r}",
                            severity=Severity.UNSUPPORTED)
            if r not in known:
                line = col.item_lines.get(name) or col.lines[name]
                raise error(f"undriven signal {r!r} referenced by {name!r}",
                            line)


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
                raise error(f"combinational loop: {cycle}", line=col.lines[d])
            elif d not in mark:
                mark[d] = 1
                path.append(d)
                todo.append(iter(deps[d]))
    return order


# --------------------------------------------------------------------------
# Per-module elaboration

def _elab_module(modules, mod: ast.ModuleDecl, scope: Scope, col: Collected,
                 parents: tuple[str, ...],
                 port_exprs: dict[str, ex.Expr] | None,
                 overrides: dict[str, int]) -> None:
    """Elaborate `mod` into `col`; `parents` names the modules whose
    instances lead to it, the top first, and `overrides` holds the
    parameter values that its instantiation sets."""
    is_top = not parents
    chain = parents + (mod.name,)
    for p in _params(mod):
        scope.declare(p.name, "parameter", p.line)
        scope.params[p.name] = (overrides[p.name] if p.name in overrides
                                else _at(p.line, _const_eval, p.value, scope))

    # Declare ports, then nets and instances in source order.
    for port in mod.ports:
        if port.direction == "inout":
            raise error(f"inout port {port.name!r} is not supported", port.line,
                        severity=Severity.UNSUPPORTED)
        scope.declare(port.name, "port", port.line)
        scope.widths[port.name] = _at(port.line, _decl_width, port, scope)
        if port.direction == "input":
            scope.inputs.add(port.name)
    for d in mod.items:
        if isinstance(d, ast.Instance):
            scope.declare(d.name, "instance", d.line)
        if not isinstance(d, ast.NetDecl):
            continue
        scope.declare(d.name, "net", d.line)
        w = _at(d.line, _decl_width, d, scope)
        if d.unpacked is not None:
            lo = _at(d.line, _const_eval, d.unpacked[0], scope)
            hi = _at(d.line, _const_eval, d.unpacked[1], scope)
            if lo > hi:
                lo, hi = hi, lo
            total = (hi - lo + 1) * w
            if total > ARRAY_BIT_CAP:
                raise error(f"unpacked array {d.name!r} exceeds {ARRAY_BIT_CAP} bits",
                            d.line, severity=Severity.UNSUPPORTED)
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

    for a in _items(mod, ast.ContinuousAssign):
        _at(a.line, _elab_continuous, a, scope, col)

    for blk in _items(mod, ast.AlwaysBlock):
        _at(blk.line, _elab_always, blk, scope, col)

    for inst in _items(mod, ast.Instance):
        if inst.module not in modules:
            raise error(f"unknown module {inst.module!r}", inst.line)
        if inst.module in chain:
            cycle = chain[chain.index(inst.module):] + (inst.module,)
            raise error("module instantiation cycle: " + " -> ".join(cycle),
                        inst.line)
        child = modules[inst.module]
        child_scope = Scope(prefix=scope.prefix + inst.name + ".")
        # a header parameter list makes the body's parameters local
        # (IEEE 1800-2017 6.20.1)
        overridable = {p.name for p in child.params or _params(child)
                       if not p.local}
        # a named list names each parameter, and each port, at most once
        # (IEEE 1800-2017 23.3.2.2)
        overrides = {}
        for pname, pval in inst.param_overrides:
            if pname not in overridable:
                raise error(f"module {inst.module!r} has no parameter "
                            f"{pname!r} to override", inst.line)
            if pname in overrides:
                raise error(f"parameter {pname!r} is overridden twice",
                            inst.line)
            overrides[pname] = _at(inst.line, _const_eval, pval, scope)
        child_ports = {p.name: p for p in child.ports}
        in_exprs: dict[str, ex.Expr] = {}
        out_conns: list[tuple[str, str, int]] = []
        connected: set[str] = set()
        for conn in inst.conns:
            if conn.port not in child_ports:
                raise error(f"module {inst.module!r} has no port {conn.port!r}",
                            inst.line)
            if conn.port in connected:
                raise error(f"port {conn.port!r} is connected twice", inst.line)
            connected.add(conn.port)
            cp = child_ports[conn.port]
            if cp.direction == "input":
                if conn.expr is not None:
                    in_exprs[conn.port] = _at(inst.line, _elab_expr, conn.expr,
                                              scope, {})
            else:
                if conn.expr is None:
                    continue
                if not isinstance(conn.expr, ast.Ident):
                    raise error("output port connections must be plain identifiers",
                                inst.line, severity=Severity.UNSUPPORTED)
                out_conns.append((conn.expr.name, conn.port, inst.line))
        _elab_module(modules, child, child_scope, col, parents=chain,
                     port_exprs=in_exprs, overrides=overrides)
        for port in in_exprs:
            col.item_lines[child_scope.qual(port)] = inst.line
        for parent_net, child_port, line in out_conns:
            if parent_net not in scope.widths:
                raise error(f"undeclared net {parent_net!r} in connection", line)
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
                raise error(f"output port {port.name!r} is never driven", port.line)


def _at(line: int, elab, *args):
    """`elab(*args)` for a module item at `line`.  An error raised
    without a location, as those inside expressions are, gets the
    item's line."""
    try:
        return elab(*args)
    except DiagnosticError as e:
        if e.diag.line:
            raise
        raise error(e.diag.message, line, severity=e.diag.severity) from None


def _items(mod: ast.ModuleDecl, kind: type) -> list:
    return [item for item in mod.items if isinstance(item, kind)]


def _params(mod: ast.ModuleDecl) -> list[ast.ParamDecl]:
    """The header's parameters, then the body's."""
    return [*mod.params, *_items(mod, ast.ParamDecl)]


def _check_target(name: str, scope: Scope, line: int) -> None:
    if name not in scope.widths:
        raise error(f"assignment to undeclared signal {name!r}", line)
    if name in scope.inputs:
        raise error(f"cannot assign to input port {name!r}", line)


def _add_define(col: Collected, name: str, e: ex.Expr, line: int) -> None:
    if name in col.defines or name in col.states:
        raise error(f"multiple drivers for {name!r}", line)
    col.defines[name] = e
    col.lines[name] = line


def _decl_width(d: ast.Port | ast.NetDecl, scope: Scope) -> int:
    if d.msb is None:
        return _TYPE_WIDTHS.get(d.net_kind, 1)
    m = _const_eval(d.msb, scope)
    l = _const_eval(d.lsb, scope)
    if m < l:
        raise error(f"descending ranges [{m}:{l}] only (msb >= lsb)", d.line,
                    severity=Severity.UNSUPPORTED)
    return m - l + 1


def _const_eval(e: ast.Expr, scope: Scope) -> int:
    # A chain of unary `-` nests down its operands, and a binary chain
    # down its left operands.  Walk both in a loop, as `_elab_expr`
    # does, not a frame per operator.
    negate = False
    while isinstance(e, ast.Unary) and e.op == "-":
        negate = not negate
        e = e.operand
    if isinstance(e, ast.Number):
        v = e.value
    elif isinstance(e, ast.Ident):
        if e.name not in scope.params:
            raise error(f"{e.name!r} is not a compile-time constant")
        v = scope.params[e.name]
    elif isinstance(e, ast.Binary):
        spine = [e]
        while isinstance(spine[-1].left, ast.Binary):
            spine.append(spine[-1].left)
        v = _const_eval(spine[-1].left, scope)
        for node in reversed(spine):
            v = _const_binop(node.op, v, _const_eval(node.right, scope))
    else:
        raise error("expression is not a supported compile-time constant")
    return -v if negate else v


def _const_binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a // b if b else 0
    if op == "%":
        return a % b if b else 0
    if op in ("<<", "<<<"):
        return a << b
    if op == ">>":
        return a >> b
    raise error("expression is not a supported compile-time constant")


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
        raise error(f"array {name!r} used without an index")
    raise error(f"unknown identifier {name!r}")


def _balance(a: ex.Expr, b: ex.Expr) -> tuple[ex.Expr, ex.Expr]:
    w = max(a.width, b.width)
    return ex.resize(a, w), ex.resize(b, w)


def _equals(idx: ex.Expr, i: int) -> ex.Expr:
    return ex.binop("eq", *_balance(idx, ex.BV(idx.width, i)))


def _const_or_none(e: ast.Expr, scope: Scope) -> int | None:
    try:
        return _const_eval(e, scope)
    except DiagnosticError:
        return None


def _elab_expr(e: ast.Expr, scope: Scope,
               blocking: dict[str, ex.Expr]) -> ex.Expr:
    if isinstance(e, ast.Number):
        width = e.width if e.width is not None else 32
        return ex.BV(width, e.value)
    if isinstance(e, ast.Ident):
        return _lookup(e.name, scope, blocking)
    if isinstance(e, ast.Unary):
        # A chain `~!-a` nests down its operands.  Walk it in a loop, not
        # a frame per operator, and apply the operators innermost first.
        ops = []
        while isinstance(e, ast.Unary):
            ops.append(e.op)
            e = e.operand
        a = _elab_expr(e, scope, blocking)
        for op in reversed(ops):
            a = _unop(op, a)
        return a
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
            raise error("part select base must be an identifier",
                        severity=Severity.UNSUPPORTED)
        base = _lookup(e.base.name, scope, blocking)
        hi = _const_eval(e.msb, scope)
        lo = _const_eval(e.lsb, scope)
        _check_part(e.base.name, base.width, hi, lo)
        return ex.slice_(base, hi, lo)
    if isinstance(e, (ast.Concat, ast.Replicate)):
        # IEEE 1800-2017 11.4.12.1: a replication of zero copies has no
        # width, and may only stand beside an operand that has one.
        cat = (_replicate(e, scope, blocking) if isinstance(e, ast.Replicate)
               else ex.concat(tuple(
                   _replicate(p, scope, blocking)
                   if isinstance(p, ast.Replicate)
                   else _elab_expr(p, scope, blocking) for p in e.parts)))
        if not cat.width:
            raise error("a replication count of 0 needs a concatenation "
                        "operand of positive width")
        return cat
    if isinstance(e, ast.SysCall):
        raise error(f"system function {e.name} is not supported in module context",
                    severity=Severity.UNSUPPORTED)
    raise error(f"unsupported expression {type(e).__name__}",
                severity=Severity.UNSUPPORTED)


def _replicate(e: ast.Replicate, scope: Scope,
               blocking: dict[str, ex.Expr]) -> ex.Expr:
    n = _const_eval(e.count, scope)
    if n < 0:
        raise error(f"replication count {n} is negative")
    v = _elab_expr(e.value, scope, blocking)
    return ex.concat(tuple(v for _ in range(n)))


_UNOPS = {"~": "not", "-": "neg", "&": "redand", "|": "redor", "^": "redxor"}


def _unop(op: str, a: ex.Expr) -> ex.Expr:
    if op == "!":
        return ex.lognot(a)
    if op in _UNOPS:
        return ex.unop(_UNOPS[op], a)
    raise error(f"unsupported unary operator {op!r}",
                severity=Severity.UNSUPPORTED)


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
    if op in ("<<", "<<<", ">>", ">>>"):
        if op == ">>>":
            raise error("arithmetic shift is not supported (unsigned semantics)",
                        severity=Severity.UNSUPPORTED)
        # `<<<` fills with zeros, as `<<` does (IEEE 1800-2017 11.4.10)
        return ex.binop("shr" if op == ">>" else "shl", a, b, width=a.width)
    if op in ("/", "%"):
        raise error(f"operator {op!r} is not supported", severity=Severity.UNSUPPORTED)
    raise error(f"unsupported operator {op!r}", severity=Severity.UNSUPPORTED)


def _elab_index(e: ast.Index, scope: Scope,
                blocking: dict[str, ex.Expr]) -> ex.Expr:
    if not isinstance(e.base, ast.Ident):
        raise error("index base must be an identifier", severity=Severity.UNSUPPORTED)
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
        raise error(f"index {idx} out of range for array {name!r} "
                    f"[{info.lo}:{info.hi}]", line)


def _check_bit(name: str, width: int, idx: int, line: int = 0) -> None:
    if not (0 <= idx < width):
        raise error(f"bit index {idx} out of range for {name!r} "
                    f"(width {width})", line)


def _check_part(name: str, width: int, hi: int, lo: int, line: int = 0) -> None:
    if not (0 <= lo <= hi < width):
        raise error(f"part select [{hi}:{lo}] out of range for {name!r} "
                    f"(width {width})", line)


# --------------------------------------------------------------------------
# Statement elaboration (symbolic execution)

class _Env:
    """Symbolic environment for one always block.

    blocking: immediate updates visible to later reads in the block.
    deferred: nonblocking updates, applied at the end of the tick.
    lines: per slot, the line of the assignment that produced its value,
        muxed like the value, so a CEX report names the one that fired.
    last_line: per assigned name, its largest assignment line; every
        copy of the block's env shares this one dict.
    """

    def __init__(self, scope: Scope, last_line: dict[str, int] | None = None,
                 blocking: dict[str, ex.Expr] | None = None,
                 deferred: dict[str, ex.Expr] | None = None,
                 lines: dict[str, ex.Expr] | None = None):
        self.scope = scope
        self.last_line = {} if last_line is None else last_line
        self.blocking = {} if blocking is None else blocking
        self.deferred = {} if deferred is None else deferred
        self.lines = {} if lines is None else lines

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
            x, y = ma.get(k), mb.get(k)
            if x is y:  # a slot neither arm wrote: mux(cond, x, x) is x
                merged[k] = x
                continue
            if x is None or y is None:
                default = (ex.BV(32, 0) if attr == "lines"
                           else ex.Ref(a.scope.widths[k], a.scope.qual(k)))
                x = default if x is None else x
                y = default if y is None else y
            merged[k] = ex.mux(cond, x, y)
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
    raise error(f"unsupported statement {type(s).__name__}", getattr(s, "line", 0),
                severity=Severity.UNSUPPORTED)


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
            raise error(f"whole-array assignment to {name!r} is not supported",
                        s.line, severity=Severity.UNSUPPORTED)
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
        raise error("continuous assignment to a bit/part select is not supported",
                    a.line, severity=Severity.UNSUPPORTED)
    _check_target(lv.name, scope, a.line)
    value = ex.resize(_elab_expr(a.value, scope, {}), scope.widths[lv.name])
    _add_define(col, scope.qual(lv.name), value, a.line)


def _elab_always(blk: ast.AlwaysBlock, scope: Scope, col: Collected) -> None:
    if blk.sensitivity is None or blk.kind == "always_comb":
        _elab_comb_block(blk, scope, col)
        return

    edges = blk.sensitivity
    for e in edges:
        _lookup(e.signal, scope, {})  # an undeclared edge signal is an error
    posedges = [e for e in edges if e.edge == "posedge"]
    negedges = [e for e in edges if e.edge == "negedge"]
    if len(negedges) > 1 or len(posedges) > 2 or not posedges:
        raise error("clocked sensitivity must be posedge clk with at most one "
                    "reset edge", blk.line, severity=Severity.UNSUPPORTED)
    if len(posedges) == 2 and negedges:
        raise error("too many edges in sensitivity list", blk.line,
                    severity=Severity.UNSUPPORTED)

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
        read = ex.refs(*assigned.values())
        posedges.sort(key=lambda e: scope.qual(e.signal) in read)
    clock_ev, *resets = posedges + negedges
    col.clock_candidates.add(scope.qual(clock_ev.signal))
    reset_env = {scope.qual(e.signal): int(e.edge == "posedge")
                 for e in resets}

    memo: dict[ex.Op, int | None] = {}  # one fold of the block under reset
    for local, next_e in assigned.items():
        q = scope.qual(local)
        if q in col.states or q in col.defines:
            raise error(f"multiple drivers for {local!r}", blk.line)
        reset_val = ex.known_value(next_e, reset_env, memo) if reset_env else None
        col.states[q] = (next_e, reset_val)
        col.item_lines[q] = blk.line
        # Symbolic line tracker: evaluating this under a cycle's valuation
        # names the assignment that fired at that clock edge.
        col.lines[q] = env.lines[local]


def _elab_comb_block(blk: ast.AlwaysBlock, scope: Scope, col: Collected) -> None:
    env = _Env(scope)
    _exec_stmt(blk.body, env, clocked=False)
    if env.deferred:
        names = ", ".join(sorted(env.deferred))
        raise error(f"nonblocking assignment in combinational block ({names})",
                    blk.line, severity=Severity.UNSUPPORTED)
    for local, value in env.blocking.items():
        q = scope.qual(local)
        if q in ex.refs(value):
            raise error(f"latch inferred for {local!r} (incomplete assignment)",
                        blk.line, severity=Severity.UNSUPPORTED)
        _add_define(col, q, value, blk.line)
        # an array element's line is the array's last assignment line
        col.lines[q] = env.last_line.get(local.split("[")[0], blk.line)
