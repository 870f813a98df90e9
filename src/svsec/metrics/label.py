"""Verdict labeling: generation in, dataset row out.

The pipeline is extract -> parse -> elaborate -> property ->
k-induction; the first failing stage fixes the verdict.  Identical
(source, property) pairs are adjudicated once and memoized.  runtime_ms
records cumulative solver effort (propagations + decisions + conflicts),
not wall-clock milliseconds, so it is reproducible across runs and
machines.
"""

from __future__ import annotations

import hashlib

import svsec
from svsec.catalog.problems import ProblemSpec
from svsec.check import DEFAULT_BUDGET, DEFAULT_MAX_K, check_design
from svsec.engine import sat
from svsec.gen.batch import Generation
from svsec.metrics.rows import DatasetRow


def _lines_of_code(source: str | None) -> int:
    if not source:
        return 0
    return sum(1 for ln in source.splitlines() if ln.strip())


def label_design(gen: Generation, spec: ProblemSpec,
                 max_k: int = DEFAULT_MAX_K,
                 budget: int = DEFAULT_BUDGET,
                 seed: int = 0,
                 source_path: str = "",
                 memo: dict | None = None) -> DatasetRow:
    if gen.problem_id != spec.problem_id:
        raise ValueError(f"generation {gen.problem_id} labeled against "
                         f"spec {spec.problem_id}")
    outcome, work = _adjudicate(gen.source, spec, max_k, budget, memo)
    verdict, cex_depth, k_used = outcome
    return DatasetRow(
        design_id=f"{gen.provider_id}:{spec.problem_id}:{gen.regen_index}",
        provider=gen.provider_id,
        cwe_id=spec.cwe_id,
        difficulty=spec.difficulty,
        regen_index=gen.regen_index,
        verdict=verdict,
        cex_depth=cex_depth,
        k_used=k_used,
        lines_of_code=_lines_of_code(gen.source),
        runtime_ms=work,
        source_path=source_path,
        property_id=spec.property_template_id,
        toolkit_version=svsec.__version__,
        seed=seed,
    )


def _adjudicate(source: str | None, spec: ProblemSpec, max_k: int,
                budget: int, memo: dict | None):
    if source is None:
        return ("compile_error", None, None), 0
    key = (hashlib.sha256(source.encode()).hexdigest(), spec.problem_id)
    if memo is not None and key in memo:
        return memo[key]
    from svsec.catalog.problems import instantiate_property_text

    start_work = sat.work_units()
    verdict = check_design(source, spec.module_name,
                           instantiate_property_text(spec),
                           max_k=max_k, budget=budget)
    work = sat.work_units() - start_work
    outcome = (verdict.status,
               verdict.depth if verdict.status == "falsified" else None,
               verdict.k_used if verdict.status == "proven" else None)
    result = (outcome, work)
    if memo is not None:
        memo[key] = result
    return result


def label_batch(gens, specs, **kwargs) -> list[DatasetRow]:
    """Label every generation against its problem, memoizing verdicts."""
    by_id = {s.problem_id: s for s in specs}
    memo: dict = {}
    return [label_design(g, by_id[g.problem_id], memo=memo, **kwargs)
            for g in gens]
