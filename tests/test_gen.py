from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
import requests

from svsec.catalog import list_problems
from svsec.gen import StubProvider, generate_batch
from svsec.gen.batch import load_cache
from svsec.gen.extract import _FENCE, extract_code
from svsec.gen.prompts import FIXED_INSTRUCTIONS, render_prompt
from svsec.gen.provider import (ProviderConfig, ProviderError,
                                load_providers, request_completion)
from svsec.gen.stub import (_PREAMBLES, _REFUSAL, DEFAULT_MIX, KINDS,
                            STUB_PROVIDERS)
from svsec.metrics import export_csv, label_batch


def spec_for(cwe, difficulty):
    (spec,) = list_problems(cwe=cwe, difficulty=difficulty)
    return spec


# ------------------------------------------------------------- prompts

PROMPT_REGISTER_INTERFACE = (
    "Write a unique SystemVerilog code that creates a register interface "
    "from address space 0x0 to 0x01 for its configuration registers, with "
    "the last one treated as reserved register (i.e. 0x01). Instructions: "
    "a. Inputs: clk_in, rst_n_in, rw_in (0 read, 1 write), data_in (8 "
    "bits), addr_in (8 bits) and Outputs: data_out (8 bits). b. Read and "
    "write operations always happen one clock cycle after the rw_in input "
    "changes. c. Module name should be register_interface. d. Be creative! "
    "e. Do not say I am sorry. Always come up with some code. f. Make sure "
    "the program compiles and runs without any errors. g. Please do not "
    "add any comments in the code. h. Please do not give explanation for "
    "the code."
)

def test_single_module_prompt_renders_exactly():
    assert render_prompt(spec_for(1209, "basic")) == PROMPT_REGISTER_INTERFACE


def test_multi_module_prompt_structure():
    prompt = render_prompt(spec_for(1276, "advanced"))
    assert prompt.startswith("Write a unique SystemVerilog code that "
                             "creates two modules: soc and periph_fifo. "
                             "Instructions: a. For the module soc: "
                             "Inputs are clk_in, rst_n_in, rw_in "
                             "(0 for read, 1 for write), id_in (8 bits), "
                             "data_in (8 bits)")
    assert "b. For the module periph_fifo:" in prompt
    assert "c. The module periph_fifo is instantiated in soc" in prompt
    assert "Clock and reset of both modules are also connected." in prompt
    assert "FIFO of depth 8" in prompt
    assert "only for id_in equal to 0x3, 0x4 and 0x7" in prompt
    # the fixed tail picks up after the problem-specific letters a-e
    assert "f. Be creative! g. Do not say I am sorry." in prompt
    assert prompt.endswith("j. Please do not give explanation for the code.")
    # multi-module prompts carry no single-module-name instruction
    assert "Module name should be" not in prompt


def test_every_prompt_carries_the_fixed_instructions():
    for spec in list_problems():
        prompt = render_prompt(spec)
        for inst in FIXED_INSTRUCTIONS:
            assert inst in prompt, spec.problem_id
        if not spec.prompt_io:
            assert f"Module name should be {spec.module_name}." in prompt
        # lettered list stays within a..z
        assert len(prompt.split(" Instructions: ")[1]) > 0


# ---------------------------------------------------------------- stub

def test_stub_counts_follow_the_mix_exactly():
    stub = StubProvider(seed=0, n=20)
    assert stub.counts() == (6, 10, 3, 1)
    assert StubProvider(n=10).counts() == (3, 5, 2, 0)
    for n in (1, 7, 13, 20, 33):
        assert sum(StubProvider(n=n).counts()) == n


def test_stub_plans_are_deterministic_and_distinct():
    stub = StubProvider(seed=1, n=20)
    p1 = stub.plan("stub-a", "cwe1209_basic")
    assert p1 == StubProvider(seed=1, n=20).plan("stub-a", "cwe1209_basic")
    assert Counter(p1) == dict(zip(KINDS, (6, 10, 3, 1)))
    # different providers / problems / seeds shuffle differently
    assert p1 != stub.plan("stub-b", "cwe1209_basic") or \
        p1 != stub.plan("stub-a", "cwe1223_basic")
    assert StubProvider(seed=2, n=20).plan("stub-a", "cwe1209_basic") != p1


def test_stub_reads_each_design_once_and_keeps_fresh_plans(tmp_path,
                                                           monkeypatch):
    import svsec.gen.stub as stub_mod

    reads, design_text = Counter(), stub_mod.design_text

    def counted(filename):
        reads[filename] += 1
        return design_text(filename)

    monkeypatch.setattr(stub_mod, "design_text", counted)
    specs = list_problems()
    stub = StubProvider(seed=3, n=20)
    generate_batch(specs, None, 20, tmp_path, stub=stub, workers=1)
    assert reads and max(reads.values()) == 1
    assert set(reads) <= {f for s in specs
                          for f in (s.correct_file, s.vulnerable_file)}
    fresh = StubProvider(seed=3, n=20)
    for pid in STUB_PROVIDERS:
        for spec in specs:
            assert stub.plan(pid, spec.problem_id) == \
                fresh.plan(pid, spec.problem_id)
    plan = stub.plan("stub-a", specs[0].problem_id)
    assert isinstance(plan, tuple)
    with pytest.raises(TypeError):
        plan[0] = "refusal"


# sha256 of every cell's kind plan (n=20), one "provider:problem:kinds"
# line per cell, as the stub drew them before a cell's plan held its
# preambles too.
PLAN_DIGESTS = {
    0: "3cd3c9996bce02e66cf652d94767e327e9a62a3e67c7612a8a2337725bd80873",
    1: "5d773e79643e1028b54c356235d2250bb8df2f9b2a3aec55be6bc96d1757556d",
    2: "cf0657b5fd40cfcb13ba4414e723fc2ea7acb1e34b91fccb63cc284ec9a41dbf",
}


def test_stub_kind_plans_are_unchanged():
    specs = list_problems()
    for seed, digest in PLAN_DIGESTS.items():
        stub = StubProvider(seed=seed, n=20)
        h = hashlib.sha256()
        for pid in STUB_PROVIDERS:
            for spec in specs:
                kinds = ",".join(stub.plan(pid, spec.problem_id))
                h.update(f"{pid}:{spec.problem_id}:{kinds}\n".encode())
        assert h.hexdigest() == digest, seed


def test_stub_preambles_come_from_the_cell_plan():
    spec = spec_for(1209, "basic")
    stub = StubProvider(seed=1, n=20)
    first_lines = [stub.complete("stub-a", spec, i).split("\n", 1)[0]
                   for i in range(20)]
    # Regeneration 6 is the refusal, which has no preamble.
    assert first_lines[6] == _REFUSAL
    del first_lines[6]
    assert first_lines == [_PREAMBLES[i] for i in
                           (3, 2, 3, 1, 1, 0, 3, 2, 2, 2, 0, 0, 1, 2, 0, 1,
                            1, 1, 2)]


def test_stub_completions_do_not_depend_on_call_order():
    specs = list_problems(difficulty="basic")[:3]
    jobs = [(pid, spec, i) for pid in STUB_PROVIDERS for spec in specs
            for i in range(5)]
    batch = StubProvider(seed=4, n=5)
    expected = {(pid, spec.problem_id, i): batch.complete(pid, spec, i)
                for pid, spec, i in jobs}
    for pid, spec, i in jobs:
        alone = StubProvider(seed=4, n=5).complete(pid, spec, i)
        assert alone == expected[pid, spec.problem_id, i]
    shuffled = StubProvider(seed=4, n=5)
    random.Random(0).shuffle(jobs)
    for pid, spec, i in jobs:
        assert shuffled.complete(pid, spec, i) == \
            expected[pid, spec.problem_id, i]


def test_stub_outputs_by_kind():
    stub = StubProvider(seed=0, n=20)
    spec = spec_for(1234, "basic")
    plan = stub.plan("stub-a", spec.problem_id)
    for i, kind in enumerate(plan):
        raw = stub.complete("stub-a", spec, i)
        if kind == "refusal":
            assert "I am sorry" in raw and "module" not in raw
        elif kind == "broken":
            assert "endmodule" not in raw
        else:
            assert "```systemverilog" in raw and "endmodule" in raw


# ------------------------------------------------------------- extract

def test_extract_prefers_fenced_blocks():
    raw = ("Here you go:\n```systemverilog\nmodule m(); endmodule\n```\n"
           "And prose mentioning module soup endmodule after.")
    assert extract_code(raw) == "module m(); endmodule\n"


def test_extract_falls_back_to_module_spans():
    raw = "Sure. module a(); endmodule then module b(); endmodule done"
    out = extract_code(raw)
    assert out.count("module") == 4  # two module/endmodule pairs
    assert out.startswith("module a")


def test_extract_refusals_and_noise_yield_none():
    assert extract_code("I am sorry, I cannot help with that.") is None
    assert extract_code("") is None
    assert extract_code("```python\nprint('hi')\n```") is None


def test_fences_match_as_the_lazy_pattern_did():
    lazy = re.compile(r"```[ \t]*[\w+-]*[ \t]*\n(.*?)```", re.DOTALL)
    pieces = ["`", "``", "```", "\n", " ", "\t", "sv", "+", "-", "module",
              "m();", "endmodule", "x"]
    rng = random.Random(7)
    for _ in range(3000):
        raw = "".join(rng.choice(pieces) for _ in range(rng.randrange(40)))
        assert [(m.span(), m.group(1)) for m in _FENCE.finditer(raw)] == \
            [(m.span(), m.group(1)) for m in lazy.finditer(raw)], raw


def test_extract_is_idempotent_on_catalog_designs():
    from svsec.catalog.problems import design_text

    for spec in list_problems()[:6]:
        src = design_text(spec.correct_file)
        assert extract_code(src) == src


# ------------------------------------------------------------ provider

class FakeResponse:
    def __init__(self, status_code, content=None):
        self.status_code = status_code
        self._content = content

    def json(self):
        if self._content is None:
            raise ValueError("no body")
        return {"choices": [{"message": {"content": self._content}}]}


def make_cfg(**kw):
    kw.setdefault("provider_id", "test")
    kw.setdefault("endpoint", "https://example.invalid/v1/chat")
    kw.setdefault("model", "m")
    kw.setdefault("backoff_base_seconds", 0.01)
    return ProviderConfig(**kw)


def test_retry_then_success():
    calls = []

    def transport(url, json, headers, timeout):
        calls.append(json)
        if len(calls) < 3:
            return FakeResponse(503)
        return FakeResponse(200, "module m(); endmodule")

    naps = []
    out = request_completion(make_cfg(max_attempts=3), "prompt",
                             transport=transport, sleep=naps.append)
    assert out == "module m(); endmodule"
    assert len(calls) == 3
    assert naps == [0.01, 0.02]  # exponential backoff


def test_retries_exhausted():
    def transport(url, json, headers, timeout):
        raise requests.ConnectionError("nope")

    with pytest.raises(ProviderError, match="retries exhausted"):
        request_completion(make_cfg(max_attempts=2), "p",
                           transport=transport, sleep=lambda s: None)


def test_non_retryable_error_fails_fast():
    calls = []

    def transport(url, json, headers, timeout):
        calls.append(1)
        return FakeResponse(401)

    with pytest.raises(ProviderError, match="http 401"):
        request_completion(make_cfg(max_attempts=5), "p",
                           transport=transport, sleep=lambda s: None)
    assert len(calls) == 1


def test_auth_token_goes_to_header_only(monkeypatch):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "s3cr3t-token")
    seen = {}

    def transport(url, json, headers, timeout):
        seen["headers"] = headers
        seen["body"] = json
        return FakeResponse(200, "ok module m(); endmodule")

    cfg = make_cfg(auth_env="TEST_PROVIDER_KEY")
    request_completion(cfg, "prompt", transport=transport)
    assert seen["headers"]["Authorization"] == "Bearer s3cr3t-token"
    assert "s3cr3t-token" not in json.dumps(seen["body"])


def test_load_providers(tmp_path):
    cfg = tmp_path / "providers.yaml"
    cfg.write_text(
        "providers:\n"
        "  - id: alpha\n"
        "    endpoint: https://example.invalid/a\n"
        "    model: alpha-large\n"
        "    temperature: 0.7\n"
        "    auth_env: ALPHA_KEY\n"
        "  - id: beta\n"
        "    endpoint: https://example.invalid/b\n"
        "    model: beta-base\n")
    out = load_providers(str(cfg))
    assert [p.provider_id for p in out] == ["alpha", "beta"]
    assert out[0].temperature == 0.7 and out[0].auth_env == "ALPHA_KEY"
    assert out[1].temperature == 1.0


# --------------------------------------------------------------- batch

def test_generate_batch_counts_and_cache(tmp_path):
    specs = list_problems(difficulty="basic")[:2]
    stub = StubProvider(seed=0, n=3)
    gens = generate_batch(specs, None, 3, tmp_path, stub=stub, workers=2)
    assert len(gens) == len(STUB_PROVIDERS) * len(specs) * 3
    assert not any(g.from_cache for g in gens)
    # rerun resumes entirely from cache, byte-identical raws
    again = generate_batch(specs, None, 3, tmp_path, stub=stub, workers=2)
    assert all(g.from_cache for g in again)
    assert [(g.provider_id, g.problem_id, g.regen_index, g.raw)
            for g in sorted(gens, key=lambda g: (g.provider_id,
                                                 g.problem_id,
                                                 g.regen_index))] == \
           [(g.provider_id, g.problem_id, g.regen_index, g.raw)
            for g in sorted(again, key=lambda g: (g.provider_id,
                                                  g.problem_id,
                                                  g.regen_index))]


def test_generate_batch_records_failures_without_aborting(tmp_path):
    calls = []

    def transport(url, json, headers, timeout):
        calls.append(url)
        if len(calls) % 2:
            return FakeResponse(400)
        return FakeResponse(200, "module m(); endmodule")

    specs = list_problems(difficulty="basic")[:1]
    providers = [make_cfg(provider_id="only", max_attempts=1)]
    gens = generate_batch(specs, providers, 4, tmp_path, workers=1,
                          transport=transport)
    assert len(gens) == 4
    assert sum(1 for g in gens if not g.ok) == 2
    assert all(g.source is None for g in gens if not g.ok)
    # A resumed run asks the provider again for the two failures only.
    again = generate_batch(specs, providers, 4, tmp_path, workers=1,
                           transport=transport)
    assert len(calls) == 6
    assert [g.from_cache for g in again] == [g.ok for g in gens]
    assert [g.raw for g in again if g.from_cache] == \
        [g.raw for g in gens if g.ok]


def test_interrupted_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    import svsec.gen.batch as batch

    write, cuts = batch.os.write, []

    def cut_first_append(fd, data):
        if not cuts:
            cuts.append(data)
            data = data[:len(data) // 2]
        return write(fd, data)

    def transport(url, json, headers, timeout):
        return FakeResponse(200, "module m(); endmodule")

    specs = list_problems(difficulty="basic")[:1]
    providers = [make_cfg(provider_id="only")]
    monkeypatch.setattr(batch.os, "write", cut_first_append)
    with pytest.raises(OSError, match="short write"):
        generate_batch(specs, providers, 1, tmp_path, workers=1,
                       transport=transport)
    monkeypatch.undo()
    log_file = tmp_path / "generations.jsonl"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [log_file]
    torn = log_file.read_bytes()
    assert torn == cuts[0][:len(cuts[0]) // 2]
    assert load_cache(tmp_path) == []
    # The next run starts on a new line, reading only the log's last
    # byte to decide, so its first entry is kept.
    pread, reads = batch.os.pread, []

    def spy(fd, n, offset):
        reads.append((n, offset))
        return pread(fd, n, offset)

    monkeypatch.setattr(batch.os, "pread", spy)
    (gen,) = generate_batch(specs, providers, 1, tmp_path, workers=1,
                            transport=transport)
    monkeypatch.undo()
    assert reads == [(1, len(torn) - 1)]
    assert not gen.from_cache
    assert log_file.read_bytes().splitlines()[0] == torn
    (cached,) = load_cache(tmp_path)
    assert (cached.regen_index, cached.raw) == (0, gen.raw)


def write_log(cache_dir: Path, *lines: str) -> None:
    (cache_dir / "generations.jsonl").write_text(
        "".join(f"{ln}\n" for ln in lines), encoding="utf-8")


def entry(regen_index=0, raw="module m(); endmodule", error=""):
    return json.dumps({"problem_id": "cwe1209_basic", "provider_id": "only",
                       "regen_index": regen_index, "raw": raw,
                       "error": error, "timestamp": 1.5})


def test_later_complete_line_wins_over_an_earlier_error(tmp_path):
    write_log(tmp_path, entry(error="http 503"), entry(),
              entry(regen_index=1, raw=""),
              entry(regen_index=1, error="http 500"))
    gens = load_cache(tmp_path)
    assert [(g.regen_index, g.ok) for g in gens] == [(0, True), (1, False)]
    assert gens[0].source == "module m(); endmodule\n"
    assert gens[1].source is None


def log_strings():
    """Texts that JSON must escape, or may write as they are."""
    yield from ('say "hi"', "back\\slash", "\x7f", "caf\u00e9 \u65e5\u672c",
                "\U0001f600 \U00010348", "lone \ud800 and \udfff", "")
    yield "".join(map(chr, range(0x20)))
    yield from map(chr, range(0x20))


# The fields of a log entry, in the order that json.dumps writes them.
LOG_FIELDS = ("problem_id", "provider_id", "regen_index", "raw", "error",
              "timestamp")
log_key = operator.attrgetter("provider_id", "problem_id", "regen_index")


def log_line(gen) -> bytes:
    return json.dumps({f: getattr(gen, f) for f in LOG_FIELDS}).encode()


def test_log_lines_are_what_json_dumps_writes(tmp_path):
    from json.encoder import encode_basestring_ascii

    from svsec.gen.batch import Generation, _entry_line

    gens = [Generation(problem_id=f"p{t}{text}", provider_id=f"{text}q",
                       regen_index=regen_index, raw=f"```\n{text}\n```",
                       error=text, timestamp=timestamp)
            for text in log_strings() for regen_index in (0, 10**12)
            for t, timestamp in enumerate((0.0, 1e-7, time.time()))]
    memo = functools.cache(encode_basestring_ascii)
    for gen in gens:
        line = log_line(gen) + b"\n"
        assert _entry_line(gen, encode_basestring_ascii) == line
        assert _entry_line(gen, memo) == line
    (tmp_path / "generations.jsonl").write_bytes(
        b"".join(_entry_line(g, memo) for g in gens))
    read = load_cache(tmp_path)
    assert [[getattr(g, f) for f in LOG_FIELDS] for g in read] == \
        [[getattr(g, f) for f in LOG_FIELDS]
         for g in sorted(gens, key=log_key)]


def test_a_batch_log_reads_back_as_written(tmp_path):
    gens = generate_batch(list_problems(difficulty="basic")[:2], None, 3,
                          tmp_path, stub=StubProvider(seed=6, n=3),
                          workers=1)
    lines = (tmp_path / "generations.jsonl").read_bytes().splitlines()
    assert lines == [log_line(g) for g in gens]
    read = load_cache(tmp_path)
    assert [dataclasses.replace(g, from_cache=False) for g in read] == \
        sorted(gens, key=log_key)
    # One copy of each distinct response.
    assert len({id(g.raw) for g in read}) == len({g.raw for g in read})


def test_lines_that_are_not_entries_are_skipped(tmp_path):
    missing = json.loads(entry())
    del missing["timestamp"]
    # JSON booleans are not numbers: true would collide with index 1.
    unstamped = json.loads(entry(regen_index=4))
    unstamped["timestamp"] = False
    write_log(tmp_path, "{}", "[1,2]", "", "   ", "null", "not json",
              json.dumps(missing), entry(regen_index="0"), entry()[:-1],
              entry(regen_index=True), json.dumps(unstamped),
              entry(regen_index=3))
    # A line that is not UTF-8 is skipped; the line after it still loads.
    not_utf8 = entry(regen_index=6).encode().replace(b"m()", b"\xff()")
    with open(tmp_path / "generations.jsonl", "ab") as fh:
        fh.write(not_utf8 + b"\n" + entry(regen_index=5).encode() + b"\n")
    gens = load_cache(tmp_path)
    assert [g.regen_index for g in gens] == [3, 5]
    assert all(type(g.regen_index) is int for g in gens)


def test_concurrent_workers_write_one_line_per_generation(tmp_path):
    specs = list_problems(difficulty="basic")[:3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gens = generate_batch(specs, None, 4, tmp_path,
                              stub=StubProvider(seed=0, n=4), workers=4)
    finally:
        sys.setswitchinterval(interval)
    lines = (tmp_path / "generations.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == len(gens) == len(STUB_PROVIDERS) * 3 * 4
    keys = {(d["provider_id"], d["problem_id"], d["regen_index"])
            for d in map(json.loads, lines)}
    assert keys == {(g.provider_id, g.problem_id, g.regen_index)
                    for g in gens}


def test_inline_and_pooled_generate_agree(tmp_path):
    specs = list_problems()
    runs = {}
    interval = sys.getswitchinterval()
    # Frequent switches let the pooled workers race on the stub's memo.
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4):
            runs[workers] = generate_batch(specs, None, 4,
                                           tmp_path / f"w{workers}",
                                           stub=StubProvider(seed=5, n=4),
                                           workers=workers)
    finally:
        sys.setswitchinterval(interval)
    for workers, gens in runs.items():
        export_csv(label_batch(gens, specs, seed=5),
                   tmp_path / f"w{workers}" / "dataset.csv")
    assert [dataclasses.replace(g, timestamp=0.0) for g in runs[1]] == \
        [dataclasses.replace(g, timestamp=0.0) for g in runs[4]]
    assert (tmp_path / "w1" / "dataset.csv").read_bytes() == \
        (tmp_path / "w4" / "dataset.csv").read_bytes()
    log_file = tmp_path / "w1" / "generations.jsonl"
    before = log_file.read_bytes()
    again = generate_batch(specs, None, 4, tmp_path / "w1",
                           stub=StubProvider(seed=5, n=4), workers=1)
    assert all(g.from_cache for g in again)
    assert log_file.read_bytes() == before


def test_cache_resume_skips_provider_calls(tmp_path):
    counter = {"calls": 0}

    def transport(url, json, headers, timeout):
        counter["calls"] += 1
        return FakeResponse(200, "module m(); endmodule")

    specs = list_problems(difficulty="basic")[:1]
    providers = [make_cfg(provider_id="only")]
    generate_batch(specs, providers, 3, tmp_path, workers=1,
                   transport=transport)
    assert counter["calls"] == 3
    generate_batch(specs, providers, 3, tmp_path, workers=1,
                   transport=transport)
    assert counter["calls"] == 3  # untouched on resume


def test_no_secrets_in_cache_files(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "hunter2-secret")

    def transport(url, json, headers, timeout):
        return FakeResponse(200, "module m(); endmodule")

    specs = list_problems(difficulty="basic")[:1]
    providers = [make_cfg(provider_id="only", auth_env="TEST_PROVIDER_KEY")]
    generate_batch(specs, providers, 2, tmp_path, workers=1,
                   transport=transport)
    assert (tmp_path / "generations.jsonl").exists()
    for path in tmp_path.rglob("*"):
        if path.is_file():
            assert b"hunter2-secret" not in path.read_bytes(), path
