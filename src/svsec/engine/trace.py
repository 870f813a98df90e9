"""Counterexample traces: construction, replay, VCD and JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from svsec.ir import expr as ex
from svsec.ir.transition import TransitionSystem, compile_stepper


@dataclass
class Trace:
    """A concrete execution: initial state plus one input valuation per cycle.

    `states[t]` and `values[t]` are derived by simulation; `values[t]`
    includes every define, so property signals can be inspected per cycle.
    Length conventions: len(inputs) == depth + 1 == len(states) == len(values).
    """
    initial: dict[str, int]
    inputs: list[dict[str, int]]
    states: list[dict[str, int]] = field(default_factory=list)
    values: list[dict[str, int]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.inputs) - 1

    def replay(self, ts: TransitionSystem) -> None:
        """Recompute states/values from initial+inputs against `ts`."""
        step = compile_stepper(ts)
        state = tuple(self.initial.get(s.name, s.reset or 0) for s in ts.states)
        names = [s.name for s in ts.states]
        self.states = []
        self.values = []
        for vals in self.inputs:
            ins = tuple(vals[n] for n, _ in ts.inputs)
            nxt, env = step(state, ins)
            self.states.append(dict(zip(names, state)))
            self.values.append(env)
            state = nxt

    def to_json(self) -> str:
        doc = {
            "depth": self.depth,
            "initial": self.initial,
            "cycles": [
                {"inputs": self.inputs[t], "state": self.states[t]}
                for t in range(len(self.inputs))
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_vcd(self, ts: TransitionSystem, module: str = "top") -> str:
        """Value-change dump with one timestep per clock cycle."""
        signals: list[tuple[str, int]] = []
        if ts.clock:
            signals.append((ts.clock, 1))
        signals.extend(ts.inputs)
        signals.extend((s.name, s.width) for s in ts.states)
        ids = {n: _vcd_id(i) for i, (n, _) in enumerate(signals)}

        out = ["$timescale 1ns $end", f"$scope module {module} $end"]
        for name, width in signals:
            out.append(f"$var wire {width} {ids[name]} {_vcd_name(name)} $end")
        out.append("$upscope $end")
        out.append("$enddefinitions $end")

        prev: dict[str, int | None] = {n: None for n, _ in signals}
        for t in range(len(self.inputs)):
            out.append(f"#{2 * t}")
            if ts.clock:
                out.append(f"1{ids[ts.clock]}")
            cycle = dict(self.inputs[t])
            cycle.update(self.states[t])
            for name, width in signals:
                if name == ts.clock:
                    continue
                v = cycle[name]
                if v != prev[name]:
                    prev[name] = v
                    if width == 1:
                        out.append(f"{v}{ids[name]}")
                    else:
                        out.append(f"b{v:b} {ids[name]}")
            if ts.clock:
                out.append(f"#{2 * t + 1}")
                out.append(f"0{ids[ts.clock]}")
        out.append(f"#{2 * len(self.inputs)}")
        return "\n".join(out) + "\n"


def _vcd_id(i: int) -> str:
    # printable identifier alphabet per the VCD format
    chars = "".join(chr(c) for c in range(33, 127))
    out = ""
    while True:
        out = chars[i % len(chars)] + out
        i //= len(chars)
        if i == 0:
            return out


def _vcd_name(name: str) -> str:
    return name.replace(".", "_").replace("[", "_").replace("]", "")
