"""The reference clock: the benchmark's timings in `ref`, units of a fixed
piece of work timed by the same process around them.

On a shared 2-core x86-64 VM (Python 3.11) the speed of one process flips
between a fast and a slow state, 1.8x apart, that each last from half a
second to a few seconds, with the load of other tenants; medians of raw
seconds then read the host, not the program.  A probe is fixed work that
shares no code with polyauto, chosen to slow with the host as the
workload's operations do:

* alloc_probe, for operations in this process, builds and frees a map of
  exponent tuples to small lists, a few megabytes of objects, as the
  library's term maps do: 10-25 ms on that VM.  A compute-only probe
  slowed more than the library and over-corrected.
* start_probe, for operations that are child processes, starts a bare
  interpreter and waits for it: 30-100 ms on that VM.  An in-process probe
  hardly tracked the cost of starting processes.

One ref is the time of one probe at that moment.  A pass probes before its
first operation, after its last, and between operations whenever EVERY
seconds have passed since the last probe; each operation is divided by the
mean of the two probes around it.  A change to polyauto moves its time in
refs in full; only the host's speed cancels.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from time import perf_counter

EVERY = 0.5         # seconds of operations between two probes
UNIT_TERMS = 24000  # entries of the map alloc_probe builds


def build_and_free():
    terms = {}
    for i in range(UNIT_TERMS):
        terms[(i, i + 1, i % 7)] = [i] * 3
    return len(terms)


def alloc_probe():
    """Seconds a map of UNIT_TERMS exponent tuples to lists takes to build
    and free now.  The garbage collector is off meanwhile, so that the heap
    the library leaves behind does not slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        build_and_free()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_probe():
    """Seconds a bare interpreter takes to start and exit now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


class RefClock:
    """Takes probes of one kind on demand and remembers when it last did."""

    def __init__(self, probe):
        self._probe = probe
        self.last_at = 0.0

    def probe(self):
        seconds = self._probe()
        self.last_at = perf_counter()
        return seconds

    def due(self):
        return perf_counter() - self.last_at >= EVERY


class NoProbes(RefClock):
    """A clock that never probes, for a pass whose times are not reported:
    every operation reads one second per ref."""

    def __init__(self):
        super().__init__(None)

    def probe(self):
        return 1.0

    def due(self):
        return False
