"""Event-driven cycle skipping is bit-identical to stepped execution.

``Pipeline.event_skip`` (on by default) lets ``_run_until`` jump the
clock over provably quiescent stall regions.  The contract (like the
vectorized warm engine) is *bit identity*: every field of the
``SimResult`` -- cycles, energy, area integrals, occupancy histograms,
MSHR counters -- must match a stepped run (``event_skip = False``, the
oracle) exactly, which is why the flag is not part of any cache key.
This suite enforces the contract across the golden-grid machine
configurations, the benchmark's regimes, tight MSHR geometries (where
stall episodes dominate), a data-tracking run and a full sampled run,
and checks non-vacuity (cycles actually skipped).
"""

from __future__ import annotations

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.experiments.runner import MACHINE_SAMIE, SimSpec, build_lsq, lsq_spec
from repro.mem.hierarchy import MemConfig
from repro.obs.cycletrace import CycleTracer
from repro.obs.profile import run_profiled
from repro.trace.sampling import SamplePlan, run_sampled
from repro.workloads.registry import make_trace

#: (name, workload, lsq_spec, mem geometry) -- the bit-identity golden
#: grid's machine shapes plus stall-heavy tight-MSHR corners
CASES = [
    ("conv128-swim", "swim", lsq_spec("conventional", capacity=128), None),
    ("conv16-mcf", "mcf", lsq_spec("conventional", capacity=16), None),
    ("samie-swim", "swim", lsq_spec("samie"), None),
    ("samie-gcc", "gcc", lsq_spec("samie"), None),
    ("arb-8x16-swim", "swim",
     lsq_spec("arb", banks=8, addresses_per_bank=16, max_inflight=128), None),
    ("arb-2x4-gzip", "gzip",
     lsq_spec("arb", banks=2, addresses_per_bank=4, max_inflight=32), None),
    ("samie-e2t1-mcf", "mcf", lsq_spec("samie"),
     dict(mshr_entries=2, mshr_targets=1)),
    ("samie-e1t2-gcc", "gcc", lsq_spec("samie"),
     dict(mshr_entries=1, mshr_targets=2)),
    ("conv128-e1t2-mcf", "mcf", lsq_spec("conventional", capacity=128),
     dict(mshr_entries=1, mshr_targets=2)),
    ("samie-blocking-swim", "swim", lsq_spec("samie"),
     dict(mshr_entries=1, mshr_targets=1)),
    # the benchmark's regimes: SAMIE bank pressure, forwarding-heavy
    # high IPC, and an MSHR-stalling FP profile
    ("samie-bank_conflict", "scenario:bank_conflict", lsq_spec("samie"), None),
    ("conv128-aliasing_storm", "scenario:aliasing_storm",
     lsq_spec("conventional", capacity=128), None),
    ("samie-ammp", "ammp", lsq_spec("samie"), None),
]


def _run(spec, workload, geom, skip, track_data=False):
    cfg = ProcessorConfig(
        mem=MemConfig(**geom) if geom else MemConfig(), track_data=track_data,
    )
    pipe = build_processor(build_lsq(spec), cfg)
    pipe.event_skip = skip
    pipe.attach_trace(make_trace(workload, seed=1))
    result = pipe.run(3000, warmup=500)
    return result.to_dict(), pipe


class TestSkipBitIdentity:
    @pytest.mark.parametrize("name,workload,spec,geom", CASES,
                             ids=[c[0] for c in CASES])
    def test_skip_on_equals_skip_off(self, name, workload, spec, geom):
        off, _ = _run(spec, workload, geom, skip=False)
        on, pipe = _run(spec, workload, geom, skip=True)
        assert on == off
        # non-vacuity: the machine idles at memory on every seed
        # workload, so a skip that never fires means a dead guard
        assert pipe.skipped_cycles > 0

    @pytest.mark.parametrize("spec", [
        lsq_spec("conventional", capacity=128),
        lsq_spec("samie"),
        lsq_spec("arb", banks=8, addresses_per_bank=16, max_inflight=128),
    ], ids=["conv128", "samie", "arb-8x16"])
    def test_track_data_values_match(self, spec):
        """The data-value oracle sees the same loads and memory image."""
        off, stepped = _run(spec, "mcf", None, skip=False, track_data=True)
        on, skipping = _run(spec, "mcf", None, skip=True, track_data=True)
        assert on == off
        assert skipping.skipped_cycles > 0
        assert skipping.committed_load_values
        assert skipping.committed_load_values == stepped.committed_load_values
        assert skipping.committed_memory() == stepped.committed_memory()

    def test_default_is_on_on_bare_pipelines(self):
        pipe = build_processor(build_lsq(lsq_spec("samie")))
        assert pipe.event_skip is True
        assert pipe.skip_active
        assert pipe.skipped_cycles == 0

    def test_cycle_tracer_forces_the_stepped_loop(self):
        pipe = build_processor(build_lsq(lsq_spec("samie")))
        pipe.set_cycle_tracer(CycleTracer(every=64))
        assert pipe.event_skip is True and not pipe.skip_active
        pipe.attach_trace(make_trace("mcf", seed=1))
        pipe.run(500)
        assert pipe.skipped_cycles == 0

    def test_polled_stall_reference_forces_the_stepped_loop(self):
        cfg = ProcessorConfig(mem=MemConfig(mshr_entries=2, mshr_targets=1))
        pipe = build_processor(build_lsq(lsq_spec("samie")), cfg)
        pipe.mem.interval_stall_stats = False
        assert not pipe.skip_active
        pipe.attach_trace(make_trace("mcf", seed=1))
        pipe.run(500)
        assert pipe.skipped_cycles == 0


class TestSampledRunSkip:
    def test_sampled_run_is_bit_identical_and_skips(self):
        plan = SamplePlan(period=4000, warmup=200, measure=600)
        results = {}
        skipped = {}
        for flag in (False, True):
            pipe = build_processor(build_lsq(lsq_spec("samie")))
            pipe.event_skip = flag
            r = run_sampled(pipe, make_trace("mcf", seed=1), plan,
                            max_measured=2400)
            results[flag] = r.to_dict()
            skipped[flag] = pipe.skipped_cycles
        assert results[True] == results[False]
        assert skipped[True] > 0 and skipped[False] == 0


class TestProfileNamesItsLoop:
    """``repro run --profile`` attaches a cycle tracer, which turns cycle
    skipping off; the report says so instead of timing it silently."""

    def test_profiled_run_reports_the_stepped_loop(self):
        spec = SimSpec.make("mcf", MACHINE_SAMIE, instructions=400, warmup=100)
        result, report = run_profiled(spec)
        assert "loop: stepped" in report.render()
        assert result.cycles == report.cycles
