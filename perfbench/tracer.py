"""Span tracer that times svsec's layers from outside the program.

`Tracer.install()` rebinds each traced public function, in every loaded
`svsec` module that holds it, to a wrapper that records a span.  A span's
self time is its duration minus the durations of the spans it directly
encloses, so the self times of all spans in a pass add up to the pass's
root span.  Spans are aggregated per name in memory (calls, self time)
together with work counters read at the same boundaries; nothing is
written until the benchmark ends.  `uninstall()` restores every binding.

Only the calling thread is traced: no traced function runs on the
generate worker threads today, and a span that did would break the
self-time sum the benchmark checks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, home module, function) for every traced layer boundary.
LAYERS = (
    ("frontend.tokenize", "svsec.frontend.lexer", "tokenize"),
    ("frontend.parse_source", "svsec.frontend.parser", "parse_source"),
    ("ir.elaborate", "svsec.ir.elaborate", "elaborate"),
    ("props.parse_property", "svsec.props.parse", "parse_property"),
    ("props.compile_obligation", "svsec.props.obligation",
     "compile_obligation"),
    ("engine.aig.blast_frame", "svsec.engine.aig", "blast_frame"),
    ("engine.cnf.to_cnf", "svsec.engine.cnf", "to_cnf"),
    ("engine.sat", "svsec.engine.sat", "solve"),
    ("engine.bmc", "svsec.engine.bmc", "bmc"),
    ("engine.induction", "svsec.engine.induction", "k_induction"),
    ("check.locate_culprit", "svsec.check", "locate_culprit"),
    ("check.check_design", "svsec.check", "check_design"),
    ("gen.generate_batch", "svsec.gen.batch", "generate_batch"),
    ("metrics.label_batch", "svsec.metrics.label", "label_batch"),
    ("metrics.keyword_frequency", "svsec.metrics.keywords",
     "keyword_frequency"),
    ("metrics.csv", "svsec.metrics.rows", "export_csv"),
    ("metrics.csv", "svsec.metrics.rows", "import_csv"),
    ("metrics.passatk", "svsec.metrics.passatk", "passatk_by_difficulty"),
    ("metrics.passatk", "svsec.metrics.passatk", "passatk_by_cwe"),
    ("metrics.heatmap", "svsec.metrics.heatmap", "write_heatmap_json"),
)


def _svsec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] == "svsec"]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # ---- spans ------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> float:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span seconds)."""
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self.leave()
        return result, dur

    # ---- rebinding ---------------------------------------------------

    def install(self) -> None:
        from svsec.engine import sat

        modules = _svsec_modules()
        for name, home, attr in LAYERS:
            orig = getattr(sys.modules[home], attr)
            if getattr(orig, "_perfbench_span", None):
                raise RuntimeError(f"{home}.{attr} is already traced")
            wrapper = self._wrap(name, orig, sat)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every binding; returns the bindings still traced."""
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()
        return [f"{mod.__name__}.{key}" for mod in _svsec_modules()
                for key, value in list(vars(mod).items())
                if getattr(value, "_perfbench_span", None)]

    def _wrap(self, name, orig, sat):
        tr = self
        count = _COUNTERS.get(name)

        if name == "engine.sat":
            def wrapper(*args, **kwargs):
                # A SAT call is a base-case query when BMC issued it.
                phase = "base" if tr.parent() == "engine.bmc" else "step"
                span = f"engine.sat.{phase}"
                before = sat.work_units()
                result, _ = tr.span(span, orig, *args, **kwargs)
                tr.counts[f"{span}.work_units"] += sat.work_units() - before
                if result[0] == sat.UNKNOWN:
                    tr.counts["engine.sat.unknown"] += 1
                return result
        elif name == "engine.aig.blast_frame":
            def wrapper(aig, *args, **kwargs):
                before = len(aig.nodes)
                result, _ = tr.span(name, orig, aig, *args, **kwargs)
                tr.counts["engine.aig.nodes"] += len(aig.nodes) - before
                return result
        elif name == "metrics.label_batch":
            def wrapper(*args, **kwargs):
                before = tr.calls["check.check_design"]
                rows, _ = tr.span(name, orig, *args, **kwargs)
                checked = tr.calls["check.check_design"] - before
                tr.counts["metrics.label.rows"] += len(rows)
                tr.counts["metrics.label.memo_hits"] += len(rows) - checked
                return rows
        else:
            def wrapper(*args, **kwargs):
                result, _ = tr.span(name, orig, *args, **kwargs)
                if count is not None:
                    count(tr.counts, result)
                return result

        wrapper._perfbench_span = name
        return wrapper


def _count_tokens(counts, result):
    counts["frontend.tokens"] += len(result[0])


def _count_state_bits(counts, result):
    ts = result[0]
    if ts is not None:
        counts["ir.state_bits"] += ts.state_bits()


def _count_cnf(counts, f):
    counts["engine.cnf.clauses"] += len(f.clauses)
    counts["engine.cnf.vars"] += f.num_vars


def _count_k(counts, verdict):
    if verdict.status == "proven":
        counts["engine.induction.k_used"] += verdict.k_used


def _count_generations(counts, gens):
    counts["gen.generations"] += len(gens)
    counts["gen.cache_hits"] += sum(1 for g in gens if g.from_cache)
    counts["gen.errors"] += sum(1 for g in gens if not g.ok)


_COUNTERS = {
    "frontend.tokenize": _count_tokens,
    "ir.elaborate": _count_state_bits,
    "engine.cnf.to_cnf": _count_cnf,
    "engine.induction": _count_k,
    "gen.generate_batch": _count_generations,
}
