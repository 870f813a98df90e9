"""One workload process: timed passes, output gate and optional trace.

Run by run.py with the checkout's src/ on PYTHONPATH and a derived
PYTHONHASHSEED.  Untraced passes fill the time budget (its first half
when tracing); traced passes fill the second half.  Prints one JSON
record as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def run_passes(wl, budget: float, rec: dict, tracer=None):
    """Run passes until the next one would overrun `budget` (at least
    one) or one raises; yields each pass's (outcomes, wall seconds, unit
    seconds, unit speed scales)."""
    from svsec.engine import sat

    start = time.perf_counter()
    while True:
        work, wall = sat.work_units(), None
        try:
            if tracer is None:
                t = time.perf_counter()
                res = wl.run_pass()
                wall = time.perf_counter() - t
            else:
                res, wall = tracer.span("workload", wl.run_pass, tracer)
        except Exception as exc:  # reported as failures, never fatal
            rec["attempted"] += wl.size
            rec["failed"] += wl.size
            rec["failures"].append(f"pass raised {exc!r}")
            yield {}, None, {}, {}
            return
        else:
            work = sat.work_units() - work
            outcomes, failures = wl.gate(res)
            rec["attempted"] += wl.size
            rec["failed"] += len(failures)
            rec["failures"] += failures
            if tracer is None:
                rec["work_units"].append(work)
                rec["check_ms"].append(res.check_ms)
                rec["check_scales"].append(res.check_scales)
            yield outcomes, wall, res.units, res.scales
        if time.perf_counter() - start + (wall or 0.0) > budget:
            return


def self_test(rec: dict, reference: dict, traced: list[dict], tracer,
              leftover: list[str]) -> None:
    """Traced passes must reproduce the untraced outcomes, leave no
    wrapper behind, and have self times that add up to their wall time."""
    total_self = sum(tracer.self_s.values())
    total_wall = sum(rec["traced_walls"])
    checks = [
        (all(o == reference for o in traced),
         "traced outcomes differ from the untraced pass"),
        (not leftover, f"wrappers left installed: {leftover}"),
        (abs(total_self - total_wall) <= 1e-6 * total_wall,
         f"self times sum to {total_self} s, traced wall is {total_wall} s"),
    ]
    rec["attempted"] += len(checks)
    for ok, msg in checks:
        if not ok:
            rec["failed"] += 1
            rec["failures"].append(f"self-test: {msg}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import svsec.check  # noqa: F401
    import svsec.cli  # noqa: F401
    import svsec.gen  # noqa: F401
    import svsec.metrics  # noqa: F401
    from svsec.catalog import load_catalog
    from svsec.engine import sat

    from tracer import Tracer
    from workloads import WORKLOADS

    load_catalog()
    wl = WORKLOADS[args.workload](args.seed, args.index, Path(args.workdir))
    rec = {"hash_seed": os.environ.get("PYTHONHASHSEED"),
           "compiled": bool(sat.COMPILED),
           "attempted": wl.setup_checks,
           "failed": len(wl.setup_failures),
           "failures": list(wl.setup_failures),
           "walls": [], "traced_walls": [], "units": [], "traced_units": [],
           "work_units": [], "check_ms": [], "scales": [],
           "check_scales": [], "traced_scales": []}

    budget = args.budget / 2 if args.trace else args.budget
    reference = None
    for outcomes, wall, units, scale in run_passes(wl, budget, rec):
        reference = outcomes if reference is None else reference
        if wall is not None:
            rec["walls"].append(wall)
            rec["units"].append(units)
            rec["scales"].append(scale)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for outcomes, wall, units, scale in run_passes(wl, budget, rec,
                                                           tracer):
                traced.append(outcomes)
                if wall is not None:
                    rec["traced_walls"].append(wall)
                    rec["traced_units"].append(units)
                    rec["traced_scales"].append(scale)
        finally:
            leftover = tracer.uninstall()
        self_test(rec, reference, traced, tracer, leftover)
        rec["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                         "counts": tracer.counts}

    rec["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
