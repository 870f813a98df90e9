"""Verdict labeling: generation in, dataset row out.

The pipeline is extract -> parse -> elaborate -> property ->
k-induction; the first failing stage fixes the verdict.  Identical
(source, property) pairs are adjudicated once and memoized.  runtime_ms
records cumulative solver effort (propagations + decisions + conflicts),
not wall-clock milliseconds, so it is reproducible across runs and
machines.
"""

from __future__ import annotations

import svsec
from svsec.catalog.problems import ProblemSpec, instantiate_property_text
from svsec.check import DEFAULT_BUDGET, DEFAULT_MAX_K, check_design
from svsec.engine import sat
from svsec.gen.batch import Generation
from svsec.metrics.rows import DatasetRow, design_id


def _lines_of_code(source: str) -> int:
    return sum(1 for ln in source.splitlines() if ln.strip())


def label_design(gen: Generation, spec: ProblemSpec,
                 max_k: int = DEFAULT_MAX_K,
                 budget: int = DEFAULT_BUDGET,
                 seed: int = 0,
                 memo: dict | None = None) -> DatasetRow:
    if gen.problem_id != spec.problem_id:
        raise ValueError(f"generation {gen.problem_id} labeled against "
                         f"spec {spec.problem_id}")
    outcome, work, lines = _adjudicate(gen.source, spec, max_k, budget, memo)
    verdict, cex_depth, k_used = outcome
    # By position, in the order of CSV_HEADER.
    return DatasetRow(
        design_id(gen.provider_id, spec.problem_id, gen.regen_index),
        gen.provider_id, spec.cwe_id, spec.difficulty, gen.regen_index,
        verdict, cex_depth, k_used, lines, work, "",
        spec.property_template_id, svsec.__version__, seed)


def _adjudicate(source: str | None, spec: ProblemSpec, max_k: int,
                budget: int, memo: dict | None):
    """(outcome, work, lines of code) of a source against its problem;
    a memo keeps all three, so each distinct pair is checked and its
    lines counted once."""
    if source is None:
        return ("compile_error", None, None), 0, 0
    key = (source, spec.problem_id)  # a str caches its own hash
    if memo is not None and key in memo:
        return memo[key]
    start_work = sat.work_units()
    verdict = check_design(source, spec.module_name,
                           instantiate_property_text(spec),
                           max_k=max_k, budget=budget)
    work = sat.work_units() - start_work
    outcome = (verdict.status,
               verdict.depth if verdict.status == "falsified" else None,
               verdict.k_used if verdict.status == "proven" else None)
    result = (outcome, work, _lines_of_code(source))
    if memo is not None:
        memo[key] = result
    return result


def label_batch(gens, specs, **kwargs) -> list[DatasetRow]:
    """Label every generation against its problem, memoizing verdicts."""
    by_id = {s.problem_id: s for s in specs}
    memo: dict = {}
    return [label_design(g, by_id[g.problem_id], memo=memo, **kwargs)
            for g in gens]
