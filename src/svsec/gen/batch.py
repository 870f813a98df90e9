"""Regeneration loop: n completions per (provider, problem), cached.

Every response lands in `cache/<provider>/<problem>/<regen>.json`
before use, so interrupted runs resume without repeating provider
calls.  Failures are recorded on the Generation and never abort the
batch; a resumed run asks the provider again for each recorded
failure.  The result always holds exactly |providers| x |specs| x n
entries.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from svsec.catalog.problems import ProblemSpec
from svsec.gen.extract import extract_code
from svsec.gen.prompts import render_prompt
from svsec.gen.provider import ProviderConfig, ProviderError, request_completion
from svsec.gen.stub import STUB_PROVIDERS, StubProvider

log = logging.getLogger(__name__)

DEFAULT_WORKERS = 4


@dataclass
class Generation:
    problem_id: str
    provider_id: str
    regen_index: int
    raw: str = ""
    source: str | None = None
    error: str = ""
    timestamp: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return not self.error


# The Generation fields a cache entry holds, in the order written.
_ENTRY_FIELDS = ("problem_id", "provider_id", "regen_index", "raw", "error",
                 "timestamp")


def cache_path(cache_dir: str | Path, provider_id: str, problem_id: str,
               regen_index: int) -> Path:
    return Path(cache_dir) / provider_id / problem_id / f"{regen_index}.json"


def load_cache(cache_dir: str | Path) -> list[Generation]:
    """Every readable entry under `cache_dir`, by (provider, problem,
    regen index)."""
    gens = [g for g in map(_load_cached,
                           sorted(Path(cache_dir).glob("*/*/*.json")))
            if g is not None]
    gens.sort(key=lambda g: (g.provider_id, g.problem_id, g.regen_index))
    return gens


def _load_cached(path: Path) -> Generation | None:
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    gen = Generation(**{k: doc[k] for k in _ENTRY_FIELDS if k in doc},
                     from_cache=True)
    gen.source = extract_code(gen.raw) if gen.ok else None
    return gen


def _write_entry(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, which
    `load_cache`'s glob does not match, so an interrupted write leaves
    no partial entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def generate_batch(specs: list[ProblemSpec],
                   providers: list[ProviderConfig] | None,
                   n: int,
                   cache_dir: str | Path,
                   stub: StubProvider | None = None,
                   workers: int = DEFAULT_WORKERS,
                   transport=None) -> list[Generation]:
    """Produce (or reload) every Generation for the given scope."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if stub is None and not providers:
        raise ValueError("either provider configs or a stub are required")
    provider_ids = ([p.provider_id for p in providers] if stub is None
                    else list(STUB_PROVIDERS))
    by_id = {p.provider_id: p for p in (providers or [])}
    write_lock = threading.Lock()

    def one(provider_id: str, spec: ProblemSpec, i: int) -> Generation:
        path = cache_path(cache_dir, provider_id, spec.problem_id, i)
        cached = _load_cached(path)
        if cached is not None and cached.ok:
            return cached
        gen = Generation(problem_id=spec.problem_id, provider_id=provider_id,
                         regen_index=i, timestamp=time.time())
        try:
            if stub is not None:
                gen.raw = stub.complete(provider_id, spec, i)
            else:
                gen.raw = request_completion(by_id[provider_id],
                                             render_prompt(spec),
                                             transport=transport)
        except ProviderError as exc:
            gen.error = str(exc)
            log.warning("generation failed: %s/%s/%d: %s", provider_id,
                        spec.problem_id, i, gen.error)
        gen.source = extract_code(gen.raw) if gen.ok else None
        doc = {k: getattr(gen, k) for k in _ENTRY_FIELDS}
        with write_lock:
            _write_entry(path, json.dumps(doc, indent=1))
        return gen

    jobs = [(pid, spec, i) for pid in provider_ids
            for spec in specs for i in range(n)]
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        results = list(pool.map(lambda j: one(*j), jobs))
    assert len(results) == len(provider_ids) * len(specs) * n
    return results
