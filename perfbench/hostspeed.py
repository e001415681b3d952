"""Correct measured times for a host whose speed changes under us.

On a shared host the same pure-Python code runs at two or more distinct
speeds, switching every few seconds to every few minutes as other tenants
load the machine; a fixed workload's wall time moves by 10-45 % with it.
`HostSpeed` runs a fixed probe from a SIGALRM handler every
INTERVAL_S seconds and records how long it took. `reference_clock(t)` then
counts each slice of time between two probes at the rate
PROBE_REF_S / (the probe time at the end of that slice), which turns wall
time into the time the same work would take at the reference speed; the
probes' own time does not count. `reference_seconds(t0, t1)` is the
difference of the two clock readings.

The probe must measure the host, not the program it interrupts: it
allocates no object the garbage collector tracks and runs with the
collector off, so neither the program's heap size nor its allocation rate
reaches the probe's time.

PROBE_REF_S is the probe's undisturbed time on the host the benchmark was
defined on (2-core Xeon VM, Python 3.11), so on such a host, uncontended,
reference seconds roughly equal wall seconds.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_REF_S = 0.00046
PROBE_STEPS = 5000
_TABLE = [[(a * b + a + 3 * b) % 16 for b in range(16)] for a in range(16)]
_LOOKUP = {k: (k * 7 + 3) % 16 for k in range(256)}


def _probe() -> float:
    """Time a fixed run of interpreter work on preallocated data: nested
    list indexing, small-int dict lookups and integer arithmetic."""
    clock, table, lookup = time.perf_counter, _TABLE, _LOOKUP
    collecting = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        a = b = 0
        for i in range(PROBE_STEPS):
            a = table[a][lookup[(b << 4) | (i & 15)]]
            b = (table[b][a] + a) & 15
        return clock() - t
    finally:
        if collecting:
            gc.enable()


def spot_factor(probes: int = 5) -> float:
    """Reference seconds per wall second on this CPU now, from the median of
    a few back-to-back probes: for work too short to span a SIGALRM probe."""
    return PROBE_REF_S / statistics.median(_probe() for _ in range(probes))


class HostSpeed:
    """Samples host speed while started; not reentrant, main thread only."""

    def __init__(self):
        self.times: list[float] = []      # probe start times
        self.durations: list[float] = []  # probe durations
        self._at_start: list[float] = []  # reference clock at each probe start
        self._previous = None

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self.durations.append(_probe())
        self.times.append(t)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        times, durations = self.times, self.durations
        self._at_start = [0.0]
        for k in range(1, len(times)):
            gap = times[k] - (times[k - 1] + durations[k - 1])
            self._at_start.append(self._at_start[-1] + gap * PROBE_REF_S / durations[k])

    def reference_clock(self, t: float) -> float:
        """Reference seconds from the first probe to `t` (after stop())."""
        times, durations = self.times, self.durations
        k = bisect.bisect_right(times, t) - 1
        if k < 0:
            return (t - times[0]) * PROBE_REF_S / durations[0]
        probe_end = times[k] + durations[k]
        if t <= probe_end:
            return self._at_start[k]
        # a slice is weighed by the probe that ends it; the tail after the
        # last probe by that last probe
        weight = PROBE_REF_S / durations[min(k + 1, len(durations) - 1)]
        return self._at_start[k] + (t - probe_end) * weight

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Work done in [t0, t1] (measured while started) in reference seconds."""
        return self.reference_clock(t1) - self.reference_clock(t0)
