"""Regeneration loop: n completions per (provider, problem), cached.

Every response is appended, as one JSON line, to the log
`generations.jsonl` in the cache directory before use, so interrupted
runs resume without repeating provider calls.  Failures are recorded on
the Generation and never abort the batch; a resumed run asks the
provider again for each recorded failure.  The result always holds
exactly |providers| x |specs| x n entries.

A log line is `json.dumps` of the entry's six fields, byte for byte,
but built from a fixed template: each string field is encoded once per
distinct value in a batch (a stub batch repeats a few hundred responses
thousands of times), and the numbers are written with `repr`, as
`json.dumps` writes them.  The reader keeps one copy of each distinct
response, problem id and provider id, which a log repeats many times,
so the generations it returns share them, and the extraction memo
finds a response by identity.

With `workers` at 1 the jobs run in the calling thread; more workers
run them on a thread pool, which only network providers gain from.
Stub generation is CPU-bound, so extra workers only contend for the
interpreter lock.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from svsec.catalog.problems import ProblemSpec
from svsec.gen.extract import extract_code
from svsec.gen.prompts import render_prompt
from svsec.gen.provider import ProviderConfig, ProviderError, request_completion
from svsec.gen.stub import STUB_PROVIDERS, StubProvider

log = logging.getLogger(__name__)

DEFAULT_WORKERS = 4


@dataclass(slots=True)
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


CACHE_FILE = "generations.jsonl"

# The Generation fields a cache entry holds, in the order `_entry_line`
# writes them, and their JSON types.  A JSON true or false decodes to a bool, which is an
# int to isinstance, so the reader turns bools away by hand.
_ENTRY_FIELDS = (("problem_id", str), ("provider_id", str),
                 ("regen_index", int), ("raw", str), ("error", str),
                 ("timestamp", (int, float)))


def load_cache(cache_dir: str | Path) -> list[Generation]:
    """The last complete entry of each (provider, problem, regen index),
    in that order; streams the log, skipping lines that are not entries."""
    path = Path(cache_dir) / CACHE_FILE
    if not path.exists():
        return []
    latest, texts = {}, {}
    with open(path, "rb") as fh:
        for g in map(_entry, fh):
            if g is not None:
                # One copy of each id and response, with its hash cached.
                g.problem_id = texts.setdefault(g.problem_id, g.problem_id)
                g.provider_id = texts.setdefault(g.provider_id,
                                                 g.provider_id)
                g.raw = texts.setdefault(g.raw, g.raw)
                latest[g.provider_id, g.problem_id, g.regen_index] = g
    gens = [latest[key] for key in sorted(latest)]
    # The log repeats each distinct response many times.
    extract = functools.cache(extract_code)
    for gen in gens:
        gen.source = extract(gen.raw) if gen.ok else None
    return gens


def _entry(line: bytes) -> Generation | None:
    try:
        doc = json.loads(line.decode())
    except ValueError:  # UnicodeDecodeError is one too
        return None
    if type(doc) is not dict:
        return None
    values = []
    for name, kind in _ENTRY_FIELDS:
        value = doc.get(name)
        if not isinstance(value, kind) or type(value) is bool:
            return None
        values.append(value)
    problem_id, provider_id, regen_index, raw, error, timestamp = values
    return Generation(problem_id, provider_id, regen_index, raw, None, error,
                      timestamp, True)


def _entry_line(gen: Generation, encode) -> bytes:
    """The log line of `gen`: `json.dumps` of its `_ENTRY_FIELDS`, given
    `encode`, `encode_basestring_ascii` or a memo of it.  The timestamp
    is finite, as `time.time()` is: `repr` of NaN is not JSON."""
    return (f'{{"problem_id": {encode(gen.problem_id)}, '
            f'"provider_id": {encode(gen.provider_id)}, '
            f'"regen_index": {gen.regen_index!r}, "raw": {encode(gen.raw)}, '
            f'"error": {encode(gen.error)}, '
            f'"timestamp": {gen.timestamp!r}}}\n').encode()


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
    cached = {(g.provider_id, g.problem_id, g.regen_index): g
              for g in load_cache(cache_dir) if g.ok}
    write_lock = threading.Lock()
    extract = functools.cache(extract_code)
    encode = functools.cache(encode_basestring_ascii)

    def one(provider_id: str, spec: ProblemSpec, i: int) -> Generation:
        if (provider_id, spec.problem_id, i) in cached:
            return cached[provider_id, spec.problem_id, i]
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
        gen.source = extract(gen.raw) if gen.ok else None
        data = _entry_line(gen, encode)
        with write_lock:
            if os.write(fd, data) != len(data):
                raise OSError(f"short write to {CACHE_FILE}")
        return gen

    jobs = [(pid, spec, i) for pid in provider_ids
            for spec in specs for i in range(n)]
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    fd = os.open(Path(cache_dir) / CACHE_FILE,
                 os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        # A torn last line must not swallow this run's first entry.
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.write(fd, b"\n")
        if workers <= 1:
            results = [one(*job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda j: one(*j), jobs))
    finally:
        os.close(fd)
    assert len(results) == len(provider_ids) * len(specs) * n
    return results
