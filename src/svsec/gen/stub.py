"""Deterministic offline provider for CI and desk-scale experiments.

Four pseudo-providers answer every prompt from a seeded plan: a fixed
mix of reference-correct designs, planted-vulnerable variants,
syntactically broken output, and prose-only refusals.  The mix is
exact per (provider, problem) — with DEFAULT_MIX's 30/50/15/5 split
and n=20, each cell holds 6 correct, 10 vulnerable, 3 broken, 1 refusal.

A cell's plan fixes both the kind and the preamble line of each of its
n regenerations: one generator, seeded by (seed, provider, problem),
shuffles the kinds and then draws the n preambles, so a completion
needs no generator of its own.  A provider computes each cell's plan
and reads each design once, and keeps them for its lifetime: a new
provider reads the designs afresh.
Threads may share a provider: two that race on a memo entry compute
the same value.

A completion is one of a few hundred texts (four preambles around each
design, and the refusal), and a provider builds each once: equal
completions are one string object.  A batch holds thousands of them,
so this saves a copy per repeat, and the batch's memos of the log
encoding and of the extracted code then find each by identity.
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
        # (provider, problem) -> (kinds, preambles), one per regeneration.
        self._plans: dict[tuple[str, str],
                          tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._sources: dict[tuple[str, bool], str] = {}
        # (preamble, source) -> completion, so equal completions are one
        # string object.
        self._completions: dict[tuple[str, str], str] = {}

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

    def plan(self, provider_id: str, problem_id: str) -> tuple[str, ...]:
        """The cell's kind of each regeneration."""
        return self._cell(provider_id, problem_id)[0]

    def _cell(self, provider_id: str, problem_id: str
              ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The cell's kinds and preambles.  The preambles are drawn after
        the shuffle, so they leave the kinds as the shuffle alone gave."""
        key = (provider_id, problem_id)
        if key not in self._plans:
            kinds = [k for k, c in zip(KINDS, self.counts())
                     for _ in range(c)]
            rng = random.Random(f"{self.seed}:{provider_id}:{problem_id}")
            rng.shuffle(kinds)
            preambles = tuple(rng.choice(_PREAMBLES) for _ in kinds)
            self._plans[key] = (tuple(kinds), preambles)
        return self._plans[key]

    def _source(self, filename: str, broken: bool = False) -> str:
        """The design's text; `broken` cuts it before `endmodule`."""
        key = (filename, broken)
        if key not in self._sources:
            if broken:
                source = self._source(filename)
                cut = source.rstrip().rfind("endmodule")
                self._sources[key] = source[:cut].rstrip() + "\n"
            else:
                self._sources[key] = design_text(filename)
        return self._sources[key]

    def kind_of(self, provider_id: str, spec: ProblemSpec,
                regen_index: int) -> str:
        return self.plan(provider_id, spec.problem_id)[regen_index]

    def complete(self, provider_id: str, spec: ProblemSpec,
                 regen_index: int) -> str:
        kinds, preambles = self._cell(provider_id, spec.problem_id)
        kind = kinds[regen_index]
        if kind == "refusal":
            return _REFUSAL
        if kind == "correct":
            source = self._source(spec.correct_file)
        else:
            source = self._source(spec.vulnerable_file,
                                  broken=kind == "broken")
        key = (preambles[regen_index], source)
        if key not in self._completions:
            self._completions[key] = (f"{key[0]}\n\n```systemverilog\n"
                                      f"{source}```\n")
        return self._completions[key]
