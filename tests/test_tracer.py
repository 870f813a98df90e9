"""perfbench's tracer splits SAT work into the base case and the step.

The tracer files a SAT call as a base-case query when it runs inside
the `bmc` span and as a step query otherwise, so the split holds only
while every base-case SAT call is made inside `svsec.engine.bmc.bmc`.
The benchmark's own traced passes check only that tracing changes no
outcome; these counts pin the split itself.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import svsec.check
import svsec.gen  # noqa: F401  (loaded before install, as the worker does)
import svsec.metrics  # noqa: F401

from test_search_golden import GOLDEN, _check

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# name -> (bmc spans, base SAT calls, step SAT calls), (base, step) work
SPLIT = {
    "cwe1209_basic_vulnerable": ((3, 2, 2), (466, 149)),
    "cwe1302_advanced_vulnerable": ((6, 2, 5), (509, 5_019)),
    "cwe1209_basic_correct": ((2, 1, 2), (38, 85)),
}


@pytest.mark.parametrize("name", list(SPLIT))
def test_sat_calls_split_into_base_case_and_step(name):
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        verdict = svsec.check.check_design(*_check(name))
    finally:
        leftover = tracer.uninstall()
    assert not leftover
    assert verdict.status == GOLDEN[name][0]
    calls = (tracer.calls["engine.bmc"], tracer.calls["engine.sat.base"],
             tracer.calls["engine.sat.step"])
    work = (tracer.counts["engine.sat.base.work_units"],
            tracer.counts["engine.sat.step.work_units"])
    assert (calls, work) == SPLIT[name]
    assert sum(work) == GOLDEN[name][4]
