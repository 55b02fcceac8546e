"""Host-normalised time, calibrated in step with the work it scales.

On a shared host the interpreter's speed drifts by up to ~1.7x within
seconds (a fixed kernel measured 38 ms and 67 ms in one minute), far
more than any bound a regression gate can use.  A single calibration
after all the work does not cancel that drift, so the clock here runs a
fixed pure-Python kernel *between* timed sections (every quarter second
of them) and scales each section by the kernel speed measured right
before and right after it::

    normalised = raw * REFERENCE_S / mean(kernel before, kernel after)

A normalised second is a second on a host that runs the kernel in
``REFERENCE_S``.  The kernel exercises what the simulator's loops live
on (dict stores and lookups, integer arithmetic, loop control) and uses
none of the simulator's code, so a faster simulator still shows.
"""

from __future__ import annotations

import time

#: kernel seconds on the reference host (the unit of normalised time)
REFERENCE_S = 0.030
_ITERATIONS = 150_000
#: raw seconds of timed sections between two kernel runs
SECTION_S = 0.25


def kernel_s() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    s = 0
    for i in range(_ITERATIONS):
        d[i & 255] = i
        s += d.get((i * 7) & 255, 0)
    return time.perf_counter() - t0


class HostClock:
    """Normalises timed sections by the kernel speed around them.

    ``add`` records a section's raw seconds; once ``SECTION_S`` of them
    are pending (or on ``flush``) the kernel runs and every pending
    section is scaled by the mean of this and the previous kernel time.
    The normalised sections collect, in order, in ``done``.
    """

    def __init__(self):
        self.last = kernel_s()
        self.samples = [self.last]
        self.pending: list[float] = []
        self.done: list[float] = []

    def add(self, raw_s: float) -> None:
        self.pending.append(raw_s)
        if sum(self.pending) >= SECTION_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = kernel_s()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.samples.append(now)
        self.done.extend(x * factor for x in self.pending)
        self.pending.clear()
