"""Tracing for the per-layer ledger, kept outside the simulator.

Two instruments, both observing and never steering:

* per-instance timing wrappers around public calls (the style of
  :func:`repro.obs.profile.wrap_stages`), which accumulate busy time and
  call counts in a :class:`Spans` sink held in memory;
* ``cProfile`` over whole passes, aggregated by ``src/repro`` package,
  for self-time shares and exact call counts.  Builtin calls are charged
  to the package of their caller, so a package's count and time include
  the C functions it invokes.
"""

from __future__ import annotations

import cProfile
import gc
import os
import statistics
import time
from collections import defaultdict

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: package -> ledger layer (scenario generators feed the workload layer)
LAYER_OF = {"scenarios": "workloads"}


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1-99), linear between closest ranks."""
    data = list(values)
    if len(data) == 1:
        return float(data[0])
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return float(statistics.median(values))


class Spans:
    """In-memory span sink: ``(name, start, end)`` records plus totals."""

    def __init__(self):
        self.records: list[tuple[str, float, float]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: work items counted at a boundary (e.g. uops warmed)
        self.items: dict[str, int] = defaultdict(int)

    def add(self, name: str, start: float, end: float, keep: bool = False):
        self.busy[name] += end - start
        self.calls[name] += 1
        if keep:
            self.records.append((name, start, end))

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in self.records if n == name]

    def mean_us(self, name: str) -> float:
        n = self.calls.get(name, 0)
        return self.busy[name] / n * 1e6 if n else 0.0


def wrap(obj, attr: str, sink: Spans, name: str | None = None,
         keep: bool = False, on_call=None):
    """Shadow ``obj.attr`` with a timing wrapper recording into ``sink``.

    ``on_call(args, result)`` may inspect each call (e.g. count items).
    """
    fn = getattr(obj, attr)
    name = name or attr
    clock = time.perf_counter

    def timed(*args, **kw):
        t0 = clock()
        out = fn(*args, **kw)
        sink.add(name, t0, clock(), keep)
        if on_call is not None:
            on_call(args, out)
        return out

    setattr(obj, attr, timed)
    return timed


def _package(filename: str) -> str | None:
    if not filename.startswith(REPRO_DIR):
        return None
    rel = filename[len(REPRO_DIR):]
    top = rel.split(os.sep, 1)[0]
    if top.endswith(".py"):
        top = top[:-3]
    return LAYER_OF.get(top, top)


class Profile:
    """One ``cProfile`` pass, aggregated by layer.

    ``calls``/``self_s`` are per layer; ``funcs`` keeps per-function
    ``(layer, name) -> (calls, inclusive seconds)`` for the per-call
    figures.  ``total_s`` is all self time seen by the profiler.
    """

    def __init__(self, fn):
        # cProfile counts a generator's close as a call, so garbage must
        # die at the same point every pass: none pending on entry, no
        # automatic collection inside, all of the pass's own on exit
        gc.collect()
        gc.disable()
        prof = cProfile.Profile()
        prof.enable()
        try:
            self.value = fn()
            gc.collect()
        finally:
            prof.disable()
            gc.enable()
        prof.create_stats()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.funcs: dict[tuple[str, str], list] = {}
        self.total_s = 0.0
        for (filename, _line, fname), (_cc, nc, tt, ct, callers) in prof.stats.items():
            self.total_s += tt
            layer = _package(filename)
            if layer is not None:
                self.calls[layer] += nc
                self.self_s[layer] += tt
                acc = self.funcs.setdefault((layer, fname), [0, 0.0])
                acc[0] += nc
                acc[1] += ct
                continue
            if filename != "~":
                continue
            # a builtin: charge each caller's share to the caller's layer
            for (cfile, _cl, _cn), (_ccc, cnc, ctt, _cct) in callers.items():
                clayer = _package(cfile)
                if clayer is not None:
                    self.calls[clayer] += cnc
                    self.self_s[clayer] += ctt

    def share(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0) / self.total_s if self.total_s else 0.0

    def per_call_us(self, layer: str, fname: str) -> float:
        calls, secs = self.funcs.get((layer, fname), (0, 0.0))
        return secs / calls * 1e6 if calls else 0.0

    def count(self, layer: str, fname: str) -> int:
        return self.funcs.get((layer, fname), (0, 0.0))[0]
