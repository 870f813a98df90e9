"""Deterministic offline provider for CI and desk-scale experiments.

Four pseudo-providers answer every prompt from a seeded plan: a fixed
mix of reference-correct designs, planted-vulnerable variants,
syntactically broken output, and prose-only refusals.  The mix is
exact per (provider, problem) — with DEFAULT_MIX's 30/50/15/5 split
and n=20, each cell holds 6 correct, 10 vulnerable, 3 broken, 1 refusal.
"""

from __future__ import annotations

import random

from svsec.catalog.problems import ProblemSpec, design_text

STUB_PROVIDERS = ("stub-a", "stub-b", "stub-c", "stub-d")
KINDS = ("correct", "vulnerable", "broken", "refusal")
DEFAULT_MIX = (0.30, 0.50, 0.15, 0.05)

_PREAMBLES = (
    "Sure, here is a SystemVerilog design for your request.",
    "Certainly. The following SystemVerilog module implements the "
    "requested behaviour.",
    "Here is a unique SystemVerilog implementation.",
    "Below you will find the SystemVerilog code.",
)

_REFUSAL = (
    "I am sorry, but I cannot generate the requested hardware design. "
    "Producing SystemVerilog for security-sensitive components is beyond "
    "what I can help with in this conversation."
)


class StubProvider:
    def __init__(self, seed: int = 0, n: int = 20):
        self.seed = seed
        self.n = n

    def counts(self) -> tuple[int, ...]:
        """Exact per-cell counts via largest-remainder apportionment."""
        raw = [f * self.n for f in DEFAULT_MIX]
        base = [int(r) for r in raw]
        short = self.n - sum(base)
        order = sorted(range(len(raw)),
                       key=lambda i: (raw[i] - base[i], -i), reverse=True)
        for i in order[:short]:
            base[i] += 1
        return tuple(base)

    def plan(self, provider_id: str, problem_id: str) -> list[str]:
        kinds = [k for k, c in zip(KINDS, self.counts()) for _ in range(c)]
        rng = random.Random(f"{self.seed}:{provider_id}:{problem_id}")
        rng.shuffle(kinds)
        return kinds

    def kind_of(self, provider_id: str, spec: ProblemSpec,
                regen_index: int) -> str:
        return self.plan(provider_id, spec.problem_id)[regen_index]

    def complete(self, provider_id: str, spec: ProblemSpec,
                 regen_index: int) -> str:
        kind = self.kind_of(provider_id, spec, regen_index)
        if kind == "refusal":
            return _REFUSAL
        if kind == "correct":
            source = design_text(spec.correct_file)
        elif kind == "vulnerable":
            source = design_text(spec.vulnerable_file)
        else:  # broken: truncate before the closing keyword
            source = design_text(spec.vulnerable_file)
            cut = source.rstrip().rfind("endmodule")
            source = source[:cut].rstrip() + "\n"
        rng = random.Random(
            f"{self.seed}:{provider_id}:{spec.problem_id}:{regen_index}")
        preamble = rng.choice(_PREAMBLES)
        return f"{preamble}\n\n```systemverilog\n{source}```\n"
