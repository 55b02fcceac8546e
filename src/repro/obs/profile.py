"""Per-stage time/occupancy profiling: the ``repro run --profile`` report.

Wraps the pipeline's stage methods (the classic setattr trick --
``Pipeline.step()`` dispatches stages through ``self._fetch`` et al., so
instance attributes shadow the class methods) to accumulate wall time
per stage, attaches a subsampled :class:`~repro.obs.cycletrace
.CycleTracer` for structure occupancies, and captures phase spans for
sampled runs (warm vs detailed windows).  This subsumes the old
``benchmarks/bench_core.py`` breakdown, which now delegates here.

Wrapping slows the run (every stage call crosses a Python closure), so
the numbers are *relative*: use them to answer "which stage dominates",
not "how fast is the simulator" -- that is perf-smoke's job, and
perf-smoke always runs unwrapped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import spans as _spans
from repro.obs.cycletrace import CycleTracer

#: the stage methods Pipeline.step() dispatches through, commit-first
#: (the simulator's evaluation order); bench_core imports this list.
STAGE_METHODS = [
    "_complete", "_commit", "_memory_issue", "_issue", "_dispatch", "_fetch",
]


@dataclass
class ProfileReport:
    """One profiled run: stage timings, occupancies, phase spans."""

    total_s: float
    instructions: int
    cycles: int
    stage_seconds: dict[str, float]
    stage_calls: dict[str, int]
    occupancy: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def stage_fractions(self) -> dict[str, float]:
        """Fraction of wall time per stage (+ ``other``), bench-compatible."""
        acc = dict(self.stage_seconds)
        acc["other"] = max(0.0, self.total_s - sum(acc.values()))
        if not self.total_s:
            return acc
        return {k: round(v / self.total_s, 4) for k, v in acc.items()}

    def to_dict(self) -> dict:
        return {
            "total_s": self.total_s,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
            "stage_calls": self.stage_calls,
            "stage_fractions": self.stage_fractions(),
            "occupancy": self.occupancy,
            "spans": self.spans,
        }

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"profile: {self.instructions} instructions, {self.cycles} cycles, "
            f"{self.total_s:.3f}s wall",
            # the profiler's cycle tracer forces the stepped loop
            "loop: stepped (profiled runs time every cycle; "
            "untraced runs skip quiescent cycles)",
            "",
            f"  {'stage':<14} {'time':>9} {'frac':>7} {'calls':>10}",
        ]
        fracs = self.stage_fractions()
        for name in [*STAGE_METHODS, "other"]:
            sec = self.stage_seconds.get(name, fracs.get(name, 0.0) * self.total_s)
            calls = self.stage_calls.get(name, 0)
            lines.append(
                f"  {name.lstrip('_'):<14} {sec:>8.3f}s {fracs.get(name, 0.0):>7.1%}"
                f" {calls if calls else '':>10}"
            )
        occ = self.occupancy
        if occ.get("rows"):
            lines += ["", f"  {'structure':<14} {'mean':>8} {'max':>6}"]
            for name, stats in occ.items():
                if not isinstance(stats, dict):
                    continue
                lines.append(
                    f"  {name:<14} {stats['mean']:>8.1f} {stats['max']:>6}")
        phases = [s for s in self.spans if s.get("name", "").startswith("sample.")]
        if phases:
            agg: dict[str, tuple[int, float]] = {}
            for s in phases:
                n, tot = agg.get(s["name"], (0, 0.0))
                agg[s["name"]] = (n + 1, tot + s.get("dur", 0.0))
            lines += ["", f"  {'phase':<22} {'count':>6} {'time':>9}"]
            for name in sorted(agg):
                n, tot = agg[name]
                lines.append(f"  {name:<22} {n:>6} {tot:>8.3f}s")
        return "\n".join(lines)


def wrap_stages(pipe, acc: dict[str, float], calls: dict[str, int] | None = None):
    """Shadow ``pipe``'s stage methods with timing wrappers (in place)."""
    def wrap(name, fn):
        def timed(*a, **kw):
            t0 = time.perf_counter()
            out = fn(*a, **kw)
            acc[name] += time.perf_counter() - t0
            if calls is not None:
                calls[name] += 1
            return out
        return timed

    for name in STAGE_METHODS:
        acc.setdefault(name, 0.0)
        if calls is not None:
            calls.setdefault(name, 0)
        setattr(pipe, name, wrap(name, getattr(pipe, name)))
    return pipe


def run_profiled(spec, occupancy_every: int = 64,
                 capacity: int = 65536, tracer: CycleTracer | None = None) -> tuple:
    """Simulate ``spec`` with full profiling; returns ``(result, report)``.

    The result is bit-identical to an unprofiled :func:`repro.experiments
    .runner.run_spec` of the same spec -- wrappers and tracer observe,
    never steer.  Pass ``tracer`` to keep the raw ring (e.g. for an
    NDJSON dump); by default a subsampled tracer feeds the occupancy
    summary and is discarded.
    """
    from repro.experiments import runner as _runner

    pipe, trace = _runner.build_spec_pipeline(spec)
    if tracer is None:
        tracer = CycleTracer(capacity=capacity, every=occupancy_every)
    pipe.set_cycle_tracer(tracer)
    acc: dict[str, float] = {}
    calls: dict[str, int] = {}
    wrap_stages(pipe, acc, calls)

    with _spans.capture() as captured:
        t0 = time.perf_counter()
        if spec.sample:
            from repro.trace.sampling import SamplePlan, run_sampled

            result = run_sampled(
                pipe, trace, SamplePlan(*spec.sample),
                max_measured=spec.instructions, warm_engine=spec.warm_engine,
            )
        else:
            pipe.attach_trace(trace)
            result = pipe.run(spec.instructions, warmup=spec.warmup)
        total = time.perf_counter() - t0
    report = ProfileReport(
        total_s=total,
        instructions=getattr(result, "instructions", 0),
        cycles=getattr(result, "cycles", 0),
        stage_seconds=acc,
        stage_calls=calls,
        occupancy=tracer.summary(),
        spans=captured.drain(),
    )
    return result, report
