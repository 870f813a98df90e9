#!/usr/bin/env python3
"""svsec benchmark: one workload, its end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,pipeline,deep} \
        --seed N --seconds S --trace {0,1}

Set-up time is measured in fresh interpreters; the workload itself runs
in worker processes started one after another, each with a hash seed
derived from the seed and the process's run index.  With --trace 0 the
result holds the end-to-end metrics; with --trace 1 each worker runs
untraced passes and then traced ones, and the result holds the per-layer
split and the tracing overhead.  Every time is scaled to a reference
machine speed measured alongside it (calib.py).  The last line of
standard output is the result as one JSON object; the lines before it
are a readable report.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Worker processes per run.  Catalog work depends on the hash seed (set
# iteration order in elaboration), so its runs pool 12 hash seeds, about
# one pass each.  Pipeline and deep passes are too long to split a run
# further; a pipeline process's first pass is its slowest, so it needs
# the 3 or 4 passes a 30-second run gives one process.
PROCESSES = {"catalog": 12, "pipeline": 1, "deep": 1}
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {here!r})
import calib
del sys.path[0]
before = calib.probes(10)
t0 = time.perf_counter()
import svsec.check, svsec.cli
from svsec.catalog import load_catalog
load_catalog()
took = time.perf_counter() - t0
print(took, calib.scale(before + calib.probes(10)))
"""

# Per-layer metrics reported in the result on every workload.  Layers
# that only the pipeline workload reaches are printed in the report.
LAYER_METRICS = (
    "frontend.tokenize.calls", "frontend.tokenize.self_s", "frontend.tokens",
    "frontend.parse_source.calls", "frontend.parse_source.self_s",
    "ir.elaborate.calls", "ir.elaborate.self_s", "ir.state_bits",
    "props.parse_property.self_s", "props.compile_obligation.self_s",
    "engine.aig.blast_frame.calls", "engine.aig.blast_frame.self_s",
    "engine.aig.nodes",
    "engine.cnf.to_cnf.calls", "engine.cnf.to_cnf.self_s",
    "engine.cnf.clauses", "engine.cnf.vars",
    "engine.sat.base.calls", "engine.sat.base.self_s",
    "engine.sat.base.work_units",
    "engine.sat.step.calls", "engine.sat.step.self_s",
    "engine.sat.step.work_units",
    "engine.sat.unknown", "engine.sat.work_units",
    "engine.induction.calls", "engine.induction.self_s",
    "engine.induction.k_used",
    "engine.bmc.self_s", "check.locate_culprit.self_s",
    "check.check_design.self_s",
    "trace_overhead_share",
)
PIPELINE_LAYER_METRICS = (
    "gen.generate_batch.self_s", "gen.generations", "gen.cache_hits",
    "gen.errors", "metrics.label_batch.self_s",
    "metrics.label.memo_hit_share", "metrics.keyword_frequency.self_s",
    "metrics.csv.self_s", "metrics.passatk.self_s", "metrics.heatmap.self_s",
    "cli.generate.self_s", "cli.label.self_s", "cli.metrics.self_s",
    "generate_s", "label_s", "metrics_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name == "ir.state_bits":
        return "bit"
    return "count"


def hash_seed(seed: int, run_index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env(src: Path, seed: int, run_index: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                PYTHONHASHSEED=str(hash_seed(seed, run_index)))


def run_child(argv: list[str], env: dict, cwd: Path) -> str:
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {argv[1]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(root: Path, seed: int, run_index: int) -> tuple[float, float]:
    """Seconds from a fresh interpreter to ready, and the speed scale
    probed around them in the same interpreter."""
    line = run_child([sys.executable, "-c", SETUP_CODE.format(here=str(HERE))],
                     child_env(root / "src", seed, run_index), root)
    took, scale = map(float, line.split())
    return took, scale


def median_of(passes: list[dict], scales: list[dict] | None = None
              ) -> dict[str, float]:
    """Each key's median time over the given passes, each time first
    multiplied by its speed scale when `scales` is given."""
    samples = {}
    for i, timed in enumerate(passes):
        for key, t in timed.items():
            factor = scales[i][key] if scales is not None else 1.0
            samples.setdefault(key, []).append(t * factor)
    return {key: statistics.median(ts) for key, ts in samples.items()}


def pooled(records: list[dict], times: str, scales: str) -> tuple[list, list]:
    """One list of every worker's per-pass times and one of their scales."""
    return ([t for r in records for t in r[times]],
            [s for r in records for s in r[scales]])


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-pass means of every traced layer metric, over all workers."""
    passes = sum(len(r["traced_walls"]) for r in records)
    calls, self_s, counts = {}, {}, {}
    for r in records:
        for src, dst in ((r["layers"]["calls"], calls),
                         (r["layers"]["self_s"], self_s),
                         (r["layers"]["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for name, v in counts.items():
        out[name] = v / passes
    out["engine.sat.work_units"] = (counts.get("engine.sat.base.work_units", 0)
                                    + counts.get("engine.sat.step.work_units",
                                                 0)) / passes
    rows = counts.get("metrics.label.rows", 0)
    out["metrics.label.memo_hit_share"] = \
        counts.get("metrics.label.memo_hits", 0) / rows if rows else 0.0
    untraced = median_of(*pooled(records, "units", "scales"))
    traced = median_of(*pooled(records, "traced_units", "traced_scales"))
    out["trace_overhead_share"] = \
        sum(traced.values()) / sum(untraced.values()) - 1.0
    for stage in ("generate_s", "label_s", "metrics_s"):
        out[stage] = untraced.get(stage, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "svsec" / "__init__.py").is_file():
        print("perfbench: run from the root of an svsec checkout "
              "(src/svsec not found)", file=sys.stderr)
        return 2
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: Path, workdir: Path) -> int:
    """Probe set-up, run the workers and print the report and result.

    The pipeline's pass directories are deleted only after the run: on
    the ext4 volume (mounted with online discard) the benchmark was
    defined on, deleting a pass's 2,400 cache files kept the next pass's
    `generate` at 0.9-2.2 s of system time, against 0.2-0.3 s when
    nothing was being deleted.
    """
    # Set-up is probed before and after the workers, so that the median
    # spans the run rather than one burst of load on a shared machine.
    # The unmeasured first probe writes the bytecode cache.
    n = PROCESSES[args.workload]
    probe_index = iter(range(n, n + 1 + SETUP_PROBES))
    setup_probe(root, args.seed, next(probe_index))
    setup = [setup_probe(root, args.seed, next(probe_index))
             for _ in range(SETUP_PROBES // 2)]
    # Each worker gets an equal share of the time left, so that process
    # start-up and a pass that overran its share come out of the run's
    # --seconds rather than adding to them.
    deadline = time.perf_counter() + args.seconds
    records = []
    for index in range(n):
        budget = max(0.0, deadline - time.perf_counter()) / (n - index)
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--index", str(index), "--budget", str(budget),
                "--trace", str(args.trace), "--workdir", str(workdir)]
        records.append(json.loads(
            run_child(argv, child_env(root / "src", args.seed, index), root)))
    setup += [setup_probe(root, args.seed, i) for i in probe_index]

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # Time metrics take each unit of work's (each check's, or each CLI
    # stage's) median over the run's passes at reference speed, so the
    # catalog's units each pool every hash seed of the run.
    units = median_of(*pooled(records, "units", "scales"))
    raw_units = median_of([u for r in records for u in r["units"]])
    # Check latency pools every check_design call of the run, each at
    # reference speed, so the catalog's tail mixes 12 hash seeds.
    checks = [t * scales[key] for r in records
              for timed, scales in zip(r["check_ms"], r["check_scales"])
              for key, t in timed.items()]
    p90 = statistics.quantiles(checks, n=10)[8]
    env = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "sat_compiled": [r["compiled"] for r in records],
           "hash_seeds": [r["hash_seed"] for r in records],
           "setup_hash_seeds": [hash_seed(args.seed, n + i)
                                for i in range(1 + SETUP_PROBES)]}
    print(f"# env {json.dumps(env)}")
    for r in records:
        print(f"# process hash_seed={r['hash_seed']}: "
              f"{len(r['walls'])} passes, "
              f"wall_s {[round(w, 4) for w in r['walls']]}, "
              f"engine.sat.work_units {r['work_units']}, "
              f"traced passes {len(r['traced_walls'])}, "
              f"peak_rss_mb {r['peak_rss_mb']:.1f}")
    print(f"# setup_s raw samples {[round(t, 4) for t, _ in setup]}, "
          f"speed scales {[round(f, 3) for _, f in setup]}")
    print(f"# raw wall_s {sum(raw_units.values()):.4f} s, "
          f"at reference speed {sum(units.values()):.4f} s")
    print(f"# median times of {len(units)} units over "
          f"{sum(len(r['walls']) for r in records)} passes; "
          f"{len(checks)} check samples, {sum(c > p90 for c in checks)} "
          f"beyond p90")
    print(f"# failed_share {failed}/{attempted} = {failed / attempted:.6f}")
    for msg in [m for r in records for m in r["failures"]][:20]:
        print(f"# FAILED {msg}")

    if args.trace:
        layers = layer_metrics(records)
        print(f"# layers {json.dumps(layers, sort_keys=True)}")
        shown = LAYER_METRICS
        if args.workload == "pipeline":
            shown += PIPELINE_LAYER_METRICS
        for name in shown:
            print(f"#   {name:34s} {layers.get(name, 0.0):14.6f} "
                  f"{unit_of(name)}")
        metrics = {name: {"value": layers.get(name, 0.0),
                          "unit": unit_of(name)} for name in LAYER_METRICS}
    else:
        for name in ("generate_s", "label_s", "metrics_s"):
            if name in units:
                print(f"# {name} {units[name]:.4f} s")
        metrics = {
            "setup_s": {"value": statistics.median(t * f for t, f in setup),
                        "unit": "s"},
            "wall_s": {"value": sum(units.values()), "unit": "s"},
            "check_ms_p50": {"value": statistics.median(checks),
                             "unit": "ms"},
            "check_ms_p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in records), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
