"""Machine-speed calibration for a shared, drifting host.

On a shared virtual machine the same pure-Python code runs up to 2x
slower for minutes at a time, in CPU time as much as in wall time, so no
statistic taken within one run removes the drift.  The benchmark
therefore runs a fixed pure-Python probe between units of work and,
every 30 ms, inside them, and reports each time scaled to the speed at
which the probe takes `REFERENCE_S`:

    normalised = raw * REFERENCE_S / (mean probe time around the unit)

The probe is the kind of work the checker does (list indexing, dict
lookups and small-int arithmetic in an interpreted loop) and allocates
no objects the garbage collector tracks, so its time does not depend on
the program's heap.  It is benchmark code: a change to svsec cannot make
it faster or slower, so a program that gets faster reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time

ITERATIONS = 6_000
# Probe time on the machine the benchmark was defined on (a shared
# 2-vCPU Xeon virtual machine, Python 3.11.7) in its fast state, so that
# normalised times read as that machine's wall times when it is quiet.
REFERENCE_S = 0.00055

_TABLE = [(i * 37 + 11) % 64 for i in range(64)]
_MAP = {i: (i * 7 + 3) % 64 for i in range(64)}


def probe() -> float:
    """Seconds one fixed pass of interpreted work takes right now."""
    table, lookup = _TABLE, _MAP
    x = 1
    t = time.perf_counter()
    for i in range(ITERATIONS):
        x = lookup[table[(x + i) & 63]] ^ (i & 7)
    return time.perf_counter() - t


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


class Sampler:
    """Probes every PERIOD seconds while a unit of work runs.

    A SIGALRM handler runs the probe between two bytecodes of the unit,
    so a long unit's scale reflects the speed all through it rather than
    at its ends; `spent` is the time the probes took, which the caller
    subtracts from the unit's.  The handler runs in the main thread once
    it holds the interpreter lock, so while `generate` works on a pool
    thread the probe still times only itself, and that thread waits for
    it.
    """

    PERIOD = 0.03

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t


def scale(samples: list[float]) -> float:
    """Factor that turns a raw time measured alongside `samples` into a
    time at reference speed.

    The host switches between a fast and a slow state many times a
    second, so a pass's time follows the share of it spent in each; the
    mean probe time estimates that share, where a median would snap to
    one state.  The top and bottom tenth are trimmed, which drops probes
    cut by preemption.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])
