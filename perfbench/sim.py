"""In-process simulation: timed sweep rounds and the traced layer passes.

A *round* runs every item once through ``run_spec``, the public worker
body, from empty caches (plus each spec's warm-up period).  The timed
workloads repeat rounds; the traced run replays one round three more
ways -- under timing wrappers, and twice under ``cProfile`` -- and every
replay must give bit-identical results.
"""

from __future__ import annotations

import os
import signal
import time

from repro.experiments import runner
from repro.obs.profile import STAGE_METHODS, wrap_stages
from repro.trace.sampling import SamplePlan, run_sampled
from repro.trace.workload import record_trace, recommended_uops, spec_name
from repro.workloads.registry import make_trace

import checks
import ledger

#: a single simulation still running after this many seconds is stopped
#: and counted as failed
OP_TIMEOUT = 120.0
#: passes over the whole trace behind ``trace.decode_mb_per_s``
DECODE_PASSES = 5
#: uops generated per item for ``workloads.gen_uops_per_s``, at most
GEN_CAP = 50_000


class OpTimeout(BaseException):
    """One simulation ran past ``OP_TIMEOUT``.  A ``BaseException``, so
    no ``except Exception`` inside the simulator can swallow it."""


def attempt(item, tally: checks.Tally, fn):
    """``fn()``, stopped by ``SIGALRM`` after ``OP_TIMEOUT`` seconds; an
    exception or a timeout is tallied as one failed operation and gives
    ``None``."""
    def expire(_signum, _frame):
        raise OpTimeout(f"over {OP_TIMEOUT:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT)
    try:
        return fn()
    except (Exception, OpTimeout) as exc:
        tally.fail(f"{item.label}: {exc!r}")
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def work_uops(spec, result) -> int:
    """Uops the host processed: source uops consumed by a sampled run,
    committed (measured plus warm-up) instructions by a detailed one."""
    if spec.sample:
        return result.extra["sampling"]["source_uops_consumed"]
    return result.instructions + spec.warmup


def run_round(items, tally: checks.Tally, clock=None) -> tuple[float, int, list]:
    """One round: ``(seconds, uops, results)``; failures are tallied.

    With a :class:`calib.HostClock` the seconds are host-normalised.
    """
    runner.clear_cache()
    uops = 0
    secs = 0.0
    first = len(clock.done) if clock is not None else 0
    results = []
    for item in items:
        t0 = time.perf_counter()
        result = attempt(item, tally, lambda: runner.run_spec(item.spec))
        dt = time.perf_counter() - t0
        results.append(result)
        if result is None:
            continue
        secs += dt
        if clock is not None:
            clock.add(dt)
        if tally.check(item.label, result):
            uops += work_uops(item.spec, result)
    if clock is not None:
        clock.flush()
        secs = sum(clock.done[first:])
    return secs, uops, results


def timed_rounds(items, tally: checks.Tally, seconds: float, clock):
    """Whole rounds until ``seconds`` have passed (at least one);
    returns per-round normalised seconds and uops."""
    secs, uops = [], []
    start = time.perf_counter()
    while not secs or time.perf_counter() - start < seconds:
        dt, n, _ = run_round(items, tally, clock)
        secs.append(dt)
        uops.append(n)
    return secs, uops


def record(path: str, source: str, n_uops: int, seed: int) -> float:
    """Record a trace; returns the seconds it took."""
    t0 = time.perf_counter()
    record_trace(path, source, n_uops, seed=seed)
    return time.perf_counter() - t0


def decode_mb_per_s(path: str) -> float:
    """Columnar decode speed of a whole trace file (median of passes)."""
    size_mb = os.path.getsize(path) / 1e6
    rates = []
    for _ in range(DECODE_PASSES):
        stream = make_trace(spec_name(path))
        t0 = time.perf_counter()
        while len(stream.take_batch(65536)):
            pass
        rates.append(size_mb / (time.perf_counter() - t0))
        stream.close()
    return ledger.median(rates)


def gen_uops_per_s(items) -> float:
    """Synthetic stream generation speed, alone, for the items' sources."""
    n_total = 0
    secs = 0.0
    for item in items:
        n = min(GEN_CAP, recommended_uops(item.spec.instructions, item.spec.warmup))
        stream = make_trace(item.source, item.spec.seed)
        t0 = time.perf_counter()
        for uop in stream:
            if uop.seq >= n:
                break
        secs += time.perf_counter() - t0
        n_total += n
    return n_total / secs


def _run_wrapped(spec, spans: ledger.Spans, stage_s: dict) -> tuple:
    """``run_spec``'s body with timing wrappers: ``(result, cycles)``."""
    pipe, trace = runner.build_spec_pipeline(spec)
    wrap_stages(pipe, stage_s)
    ledger.wrap(pipe.mem, "daccess", spans)
    ledger.wrap(pipe, "run", spans, "pipe.run")
    if spec.sample:
        if hasattr(trace, "take_batch"):
            ledger.wrap(trace, "take_batch", spans, "decode")
        attach = pipe.attach_trace

        def attach_traced(stream):
            # the sampled stream holds the warm engine's batch entry point
            if getattr(stream, "_warm_batch", None) is not None:
                def count(args, _):
                    spans.items["warm"] += len(args[0])

                ledger.wrap(stream, "_warm_batch", spans, "warm", on_call=count)
            attach(stream)

        pipe.attach_trace = attach_traced
        result = run_sampled(pipe, trace, SamplePlan(*spec.sample),
                             max_measured=spec.instructions,
                             warm_engine=spec.warm_engine)
    else:
        pipe.attach_trace(trace)
        result = pipe.run(spec.instructions, warmup=spec.warmup)
    return result, pipe.cycle


def _sum_stat(results, key: str) -> int:
    return sum(r.lsq_stats.get(key, 0) for r in results)


def _mshr(results, key: str) -> int:
    return sum(r.telemetry().get("mshr", {}).get(key, 0) for r in results)


def traced_passes(items, tally: checks.Tally, clock) -> tuple[dict, list]:
    """Per-layer ledger of one round of ``items`` (core/lsq/mem/...).

    Returns ``(metrics, results)``; the metrics include ``untraced_s``
    and ``traced_s``, the round without and with timing wrappers, both
    host-normalised by ``clock`` (a :class:`calib.HostClock`).
    """
    untraced_s, _, results = run_round(items, tally, clock)
    uops = sum(work_uops(i.spec, r) for i, r in zip(items, results) if r is not None) or 1

    spans = ledger.Spans()
    stage_s: dict[str, float] = {}
    cycles = 0
    wrapped_s = 0.0
    first = len(clock.done)
    for item in items:
        t0 = time.perf_counter()
        out = attempt(item, tally, lambda: _run_wrapped(item.spec, spans, stage_s))
        dt = time.perf_counter() - t0
        if out is None:
            continue
        wrapped_s += dt
        clock.add(dt)
        tally.check(item.label, out[0])
        cycles += out[1]
    clock.flush()
    if not cycles:
        raise RuntimeError("no simulation of the traced round succeeded")
    traced_s = sum(clock.done[first:])

    def profiled_round():
        return [attempt(i, tally, lambda: runner.run_spec(i.spec)) for i in items]

    profiles = []
    for _ in range(2):
        runner.clear_cache()
        prof = ledger.Profile(profiled_round)
        for item, result in zip(items, prof.value):
            if result is not None:
                tally.check(item.label, result)
        profiles.append(prof)
    if dict(profiles[0].calls) != dict(profiles[1].calls):
        tally.fail("cProfile call counts differ between two identical passes")
    prof = profiles[0]

    good = [r for r in results if r is not None]
    instr = sum(r.instructions for r in good) or 1
    sim_cycles = sum(r.cycles for r in good) or 1
    forwarded = _sum_stat(good, "loads_forwarded")
    routed = forwarded + _sum_stat(good, "loads_from_cache")
    allocs = _mshr(good, "d_allocations")
    merges = _mshr(good, "d_merges")
    stalls = _mshr(good, "d_entry_stall_cycles") + _mshr(good, "d_target_stall_cycles")
    warm_s = spans.busy.get("warm", 0.0)
    decode_s = spans.busy.get("decode", 0.0)

    def weighted(attr: str) -> float:
        return sum(getattr(r, attr) * r.instructions for r in good) / instr

    m = {f"{layer}.self_share": prof.share(layer)
         for layer in ("core", "lsq", "mem", "branch", "energy", "workloads")}
    m.update({f"{layer}.calls_per_uop": prof.calls.get(layer, 0) / uops
              for layer in ("core", "lsq", "mem")})
    m.update({f"core.stage_share.{s.lstrip('_')}": stage_s[s] / wrapped_s
              for s in STAGE_METHODS})
    m.update({
        "core.ipc": instr / sim_cycles,
        "core.steps_per_cycle": prof.count("core", "step") / cycles,
        "lsq.route_load_us": prof.per_call_us("lsq", "route_load"),
        "lsq.dispatch_us": prof.per_call_us("lsq", "dispatch"),
        "lsq.area_breakdown_per_cycle": prof.count("lsq", "area_breakdown") / cycles,
        "lsq.forwarded_frac": forwarded / routed if routed else 0.0,
        "lsq.placement_failures_per_kuop":
            _sum_stat(good, "placement_failures") / instr * 1000,
        "mem.daccess_us": spans.mean_us("daccess"),
        "mem.l1d_miss_rate": weighted("l1d_miss_rate"),
        "mem.mshr_merge_frac": merges / (allocs + merges) if allocs + merges else 0.0,
        "mem.mshr_stall_cycles_per_kuop": stalls / instr * 1000,
        "branch.mispredict_rate": weighted("mispredict_rate"),
        "workloads.gen_uops_per_s": gen_uops_per_s(items),
        "trace.warm_share": warm_s / wrapped_s,
        "trace.warm_uops_per_s":
            spans.items["warm"] / warm_s if warm_s else 0.0,
        "trace.detailed_share":
            (spans.busy["pipe.run"] - warm_s - decode_s) / wrapped_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    })
    return m, good
