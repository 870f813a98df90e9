"""The benchmark's workloads: seeded inputs, one timed pass, output gate.

A workload object builds its inputs from the seed in its constructor
(outside any timing), runs one pass with `run_pass`, and checks that
pass's outputs with `gate`, which the caller runs after the clock has
stopped.  A pass times its units of work (one check, or one CLI stage)
and each check_design call, by key.  `gate` returns the pass's outcomes,
keyed by input, and a list of failure messages.  A check outcome is
(status, k_used, cex depth, culprit line), with None where the verdict
has no such field.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib

EXPECTED_FILE = Path(__file__).with_name("catalog_expected.json")


@dataclass
class PassResult:
    outcomes: dict = field(default_factory=dict)
    units: dict[str, float] = field(default_factory=dict)  # seconds
    check_ms: dict[str, float] = field(default_factory=dict)
    out_dir: str = ""
    # Speed scale (calib.scale) of each unit of work and of each check.
    scales: dict[str, float] = field(default_factory=dict)
    check_scales: dict[str, float] = field(default_factory=dict)
    gap: list[float] = field(default_factory=list)  # the latest probes


def timed_unit(res: PassResult, key: str, call, sample: bool = True):
    """Run `call()` as one unit of work; record its time and speed scale.

    The scale comes from one probe before the unit, one after it, and,
    with `sample`, a calib.Sampler's probes inside it, whose time is
    taken out of the unit's.  The host changes speed many times a
    second, so the probes next to a short unit catch the state it ran
    in, and the sampled ones follow a long unit through its states.
    """
    if not res.gap:
        res.gap = calib.probes(1)
    before = res.gap
    inside, spent = [], 0.0
    t = time.perf_counter()
    try:
        if sample:
            with calib.Sampler() as sampler:
                return call()
        return call()
    finally:
        took = time.perf_counter() - t
        if sample:
            inside, spent = sampler.samples, sampler.spent
        res.units[key] = took - spent
        res.gap = calib.probes(1)
        res.scales[key] = calib.scale(before + inside + res.gap)


def outcome(verdict) -> tuple:
    status = verdict.status
    return (status,
            verdict.k_used if status == "proven" else None,
            verdict.depth if status == "falsified" else None,
            verdict.culprit_line if status == "falsified" else None)


def catalog_expected() -> dict[str, tuple]:
    """Reference outcome of every shipped catalog design, by file name."""
    doc = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return {name: tuple(v) for name, v in doc.items()}


def _checked(source: str, top: str, prop: str) -> tuple:
    from svsec.check import check_design

    try:
        return outcome(check_design(source, top, prop))
    except Exception as exc:  # reported by the gate, never fatal
        return ("exception", repr(exc), None, None)


def _timed_checks(jobs, sample: bool) -> PassResult:
    """Run check_design on (key, source, top, property) jobs in order."""
    res = PassResult()
    for key, source, top, prop in jobs:
        res.outcomes[key] = timed_unit(
            res, key, functools.partial(_checked, source, top, prop), sample)
        res.check_ms[key] = res.units[key] * 1000.0
    res.check_scales = res.scales
    return res


def _compare(outcomes: dict, expected: dict) -> list[str]:
    failures = [f"{key}: got {outcomes.get(key)}, expected {want}"
                for key, want in expected.items()
                if outcomes.get(key) != want]
    failures += [f"{key}: unexpected input" for key in outcomes
                 if key not in expected]
    return failures


class Catalog:
    """All 60 shipped reference designs in a seed-shuffled order."""

    def __init__(self, seed: int, index: int, workdir: Path):
        from svsec.catalog import list_problems
        from svsec.catalog.problems import (design_text,
                                            instantiate_property_text)

        self.jobs = []
        for spec in list_problems():
            prop = instantiate_property_text(spec)
            for fname in (spec.correct_file, spec.vulnerable_file):
                self.jobs.append((fname, design_text(fname),
                                  spec.module_name, prop))
        self.size = len(self.jobs)
        self.expected = catalog_expected()
        self.rng = random.Random(f"catalog:{seed}:{index}")
        # The reference table is the same for every process of a run.
        self.setup_checks, self.setup_failures = \
            self._oracle_check() if index == 0 else (0, [])

    def _oracle_check(self) -> tuple[int, list[str]]:
        """Cross-check the reference falsification depths against
        explicit-state search on every vulnerable design small enough
        for the oracle; returns the number checked and the failures.
        (The correct designs would add 6 s of search to each process.)"""
        from svsec.engine.oracle import OracleRefused, explicit_state_oracle
        from svsec.frontend import parse_source
        from svsec.ir.elaborate import elaborate
        from svsec.props import compile_obligation, parse_property

        checked, failures = 0, []
        for fname, source, top, prop in self.jobs:
            want = self.expected[fname]
            if want[0] != "falsified":
                continue
            unit, _ = parse_source(source)
            ts, _, _ = elaborate(unit, top)
            obl = compile_obligation(parse_property(prop, ts)[0], ts)
            try:
                res = explicit_state_oracle(obl)
            except OracleRefused:
                continue
            checked += 1
            got = res.min_depth if res.violated else None
            if want[2] != got:
                failures.append(f"{fname}: oracle depth {got}, "
                                f"reference {want}")
        return checked, failures

    def run_pass(self, tracer=None) -> PassResult:
        order = list(self.jobs)
        self.rng.shuffle(order)
        return _timed_checks(order, sample=tracer is None)

    def gate(self, res: PassResult):
        failures = _compare(res.outcomes, self.expected)
        failures += [f"{k}: culprit line 0" for k, o in res.outcomes.items()
                     if o[0] == "falsified" and not o[3]]
        return res.outcomes, failures


# Register width of the scaling family.  The load grows with the width
# (d=12 took 1.05, 2.18 and 2.62 s at widths 4, 6 and 8), so it is fixed
# to keep seeds comparable; the seed picks the property bit and the bit
# the leaky twin masks instead, which leave the work unchanged.
DEEP_WIDTH = 4
DEEP_DEPTHS = (8, 10, 12, 14)


def pipeline_design(depth: int, width: int,
                    masked_bit: int) -> tuple[str, int]:
    """A depth-stage register pipeline whose input has one bit masked.

    Returns the source and the line of the q_out assignment.
    """
    regs = [f"s{i}_q" for i in range(depth - 1)] + ["q_out"]
    mask = ((1 << width) - 1) & ~(1 << masked_bit)
    lines = ["module pipe(",
             "  input logic clk_in,",
             "  input logic rst_n_in,",
             f"  input logic [{width - 1}:0] d_in,",
             f"  output logic [{width - 1}:0] q_out",
             ");"]
    lines += [f"  logic [{width - 1}:0] {r};" for r in regs[:-1]]
    lines += ["  always_ff @(posedge clk_in or negedge rst_n_in) begin",
              "    if (!rst_n_in) begin"]
    lines += [f"      {r} <= {width}'d0;" for r in regs]
    lines += ["    end else begin",
              f"      {regs[0]} <= d_in & {width}'d{mask};"]
    lines += [f"      {regs[i]} <= {regs[i - 1]};" for i in range(1, depth)]
    lines += ["    end", "  end", "endmodule"]
    return "\n".join(lines) + "\n", len(lines) - 3


class Deep:
    """d-stage pipelines: a proving form that needs k = d and a leaky
    twin falsified at exactly depth d."""

    def __init__(self, seed: int, index: int, workdir: Path):
        rng = random.Random(f"deep:{seed}")
        bit = rng.randrange(DEEP_WIDTH)
        leak_bit = (bit + 1 + rng.randrange(DEEP_WIDTH - 1)) % DEEP_WIDTH
        prop = f"!q_out[{bit}]"
        self.jobs, self.expected = [], {}
        for d in DEEP_DEPTHS:
            source, _ = pipeline_design(d, DEEP_WIDTH, bit)
            self.jobs.append((f"prove{d}", source, "pipe", prop))
            self.expected[f"prove{d}"] = ("proven", d, None, None)
            source, line = pipeline_design(d, DEEP_WIDTH, leak_bit)
            self.jobs.append((f"leak{d}", source, "pipe", prop))
            self.expected[f"leak{d}"] = ("falsified", None, d, line)
        self.size = len(self.jobs)
        self.setup_checks, self.setup_failures = 0, []

    def run_pass(self, tracer=None) -> PassResult:
        return _timed_checks(self.jobs, sample=tracer is None)

    def gate(self, res: PassResult):
        return res.outcomes, _compare(res.outcomes, self.expected)


class Pipeline:
    """Stub generate --n 20 -> label -> metrics through the svsec CLI.

    generate runs one worker thread: on 2 vCPUs the stub generate took
    4.1-4.3 s with two threads against 2.0-2.7 s with one (the threads
    only contend for the interpreter lock), and its time swung from 2.0
    to 6.5 s across runs.
    """

    N = 20
    VERDICT_OF_KIND = {"correct": "proven", "vulnerable": "falsified",
                       "broken": "compile_error", "refusal": "compile_error"}
    COUNTS = {"proven": 720, "falsified": 1200, "compile_error": 480}

    def __init__(self, seed: int, index: int, workdir: Path):
        from svsec.catalog import list_problems
        from svsec.gen import STUB_PROVIDERS, StubProvider

        self.seed = seed
        self.workdir = workdir
        specs = list_problems()
        stub = StubProvider(seed=seed, n=self.N)
        ref = catalog_expected()
        self.expected = {}
        for provider in STUB_PROVIDERS:
            for spec in specs:
                for i in range(self.N):
                    verdict = self.VERDICT_OF_KIND[
                        stub.kind_of(provider, spec, i)]
                    depth = k_used = None
                    if verdict == "proven":
                        k_used = ref[spec.correct_file][1]
                    elif verdict == "falsified":
                        depth = ref[spec.vulnerable_file][2]
                    key = f"{provider}:{spec.problem_id}:{i}"
                    self.expected[key] = (verdict, depth, k_used)
        self.size = len(self.expected)
        self.setup_checks, self.setup_failures = 0, []

    def run_pass(self, tracer=None) -> PassResult:
        from svsec.cli import main

        out = tempfile.mkdtemp(dir=self.workdir)
        seed = str(self.seed)
        stages = (
            ("generate", ["generate", "--stub", "--n", str(self.N),
                          "--seed", seed, "--workers", "1", "--out", out]),
            ("label", ["label", "--cache", f"{out}/cache", "--out", out,
                       "--seed", seed]),
            ("metrics", ["metrics", "--dataset", f"{out}/dataset.csv",
                         "--cache", f"{out}/cache", "--out", out,
                         "--seed", seed]),
        )
        res = PassResult(out_dir=out)
        for stage, argv in stages:
            key = f"{stage}_s"
            call = functools.partial(main, argv, standalone_mode=False)
            sample = tracer is None
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    timed_unit(res, key, functools.partial(
                        tracer.span, f"cli.{stage}", call), sample)
                elif stage == "label":
                    with _check_clock(res.check_ms):
                        timed_unit(res, key, call, sample)
                else:
                    timed_unit(res, key, call, sample)
        # Checks run inside the label stage and share its scale.
        res.check_scales = dict.fromkeys(res.check_ms, res.scales["label_s"])
        return res

    def gate(self, res: PassResult):
        out = Path(res.out_dir)
        failures, outcomes = [], {}
        try:
            with open(out / "dataset.csv", encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    outcomes[row["design_id"]] = (
                        row["verdict"],
                        int(row["cex_depth"]) if row["cex_depth"] else None,
                        int(row["k_used"]) if row["k_used"] else None)
            failures += _compare(outcomes, self.expected)
            counts = {}
            for verdict, _, _ in outcomes.values():
                counts[verdict] = counts.get(verdict, 0) + 1
            if counts != self.COUNTS:
                failures.append(f"verdict counts {counts}, "
                                f"expected {self.COUNTS}")
            failures += _metrics_failures(out)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"unreadable pipeline output: {exc!r}")
        return outcomes, failures


def _metrics_failures(out: Path) -> list[str]:
    """Shape checks on the files `svsec metrics` writes."""
    failures = []
    with open(out / "passatk.csv", encoding="utf-8", newline="") as fh:
        cells = list(csv.reader(fh))[1:]
    if len(cells) != 12:  # 4 stub providers x 3 difficulties
        failures.append(f"passatk.csv has {len(cells)} rows, expected 12")
    doc = json.loads((out / "heatmap.json").read_text(encoding="utf-8"))
    if len(doc["providers"]) != 4 or len(doc["cwes"]) != 10:
        failures.append("heatmap.json is not 4 providers x 10 CWEs")
    with open(out / "keywords.csv", encoding="utf-8", newline="") as fh:
        hist = list(csv.reader(fh))[1:]
    if len(hist) != 44 or not any(int(n) for _, n in hist):
        failures.append("keywords.csv does not count the 44 keywords")
    return failures


@contextlib.contextmanager
def _check_clock(samples: dict[str, float]):
    """Time each check_design call that labeling makes, in ms, keyed by
    a digest of its arguments."""
    import svsec.metrics.label as label

    orig = label.check_design

    def timed(*args, **kwargs):
        key = hashlib.sha1(repr(args).encode()).hexdigest()
        t = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            samples[key] = (time.perf_counter() - t) * 1000.0

    label.check_design = timed
    try:
        yield
    finally:
        label.check_design = orig


WORKLOADS = {"catalog": Catalog, "pipeline": Pipeline, "deep": Deep}
