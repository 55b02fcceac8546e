"""The workloads' timed and traced runs, and the metrics they report.

Every workload has a timed run (end-to-end metrics, no tracing) and a
traced run (the per-layer ledger).  Both run the same inputs from
:mod:`workloads` and feed every answer through one :class:`checks.Tally`.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import time

from repro.experiments import runner
from repro.service.wire import spec_from_doc, spec_to_doc
from repro.trace.workload import record_trace, recommended_uops, spec_name

import calib
import checks
import ledger
import sim
import svc
import workloads

END_TO_END = {
    "sim_uops_per_s": "uops/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.self_share": "ratio",
    "core.calls_per_uop": "calls/uop",
    **{f"core.stage_share.{s}": "ratio" for s in (
        "fetch", "dispatch", "issue", "memory_issue", "complete", "commit")},
    "core.ipc": "instr/cycle",
    "core.steps_per_cycle": "steps/cycle",
    "lsq.self_share": "ratio",
    "lsq.calls_per_uop": "calls/uop",
    "lsq.route_load_us": "us",
    "lsq.dispatch_us": "us",
    "lsq.area_breakdown_per_cycle": "calls/cycle",
    "lsq.forwarded_frac": "ratio",
    "lsq.placement_failures_per_kuop": "count/kuop",
    "mem.self_share": "ratio",
    "mem.calls_per_uop": "calls/uop",
    "mem.daccess_us": "us",
    "mem.l1d_miss_rate": "ratio",
    "mem.mshr_merge_frac": "ratio",
    "mem.mshr_stall_cycles_per_kuop": "cycles/kuop",
    "branch.self_share": "ratio",
    "branch.mispredict_rate": "ratio",
    "energy.self_share": "ratio",
    "workloads.self_share": "ratio",
    "workloads.gen_uops_per_s": "uops/s",
    "trace.record_uops_per_s": "uops/s",
    "trace.decode_mb_per_s": "MB/s",
    "trace.warm_share": "ratio",
    "trace.warm_uops_per_s": "uops/s",
    "trace.detailed_share": "ratio",
    "service.submit_ms_p50": "ms",
    "service.hit_frac": "ratio",
    "service.store_get_ms_p50": "ms",
    "service.store_put_ms_p50": "ms",
    "service.result_bytes": "bytes",
    "service.wire_encode_us": "us",
    "service.wire_decode_us": "us",
    "service.http_overhead_ms_p50": "ms",
    "service.job_s_mean": "s",
    "cli.import_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: stand-ups per run; setup_s reports their median
SETUP_REPEATS = 3
#: fresh interpreters behind ``cli.import_s`` (median)
IMPORT_REPEATS = 3
#: passes over the specs behind ``service.wire_encode_us``/``_decode_us``
WIRE_PASSES = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_import_s() -> float:
    """Wall time of ``import repro.cli`` in a fresh interpreter (median)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return ledger.median(times)


def wire_us(specs) -> tuple[float, float]:
    """Mean microseconds to encode / decode one spec on the wire."""
    texts = [json.dumps(spec_to_doc(s)) for s in specs]
    t0 = time.perf_counter()
    for _ in range(WIRE_PASSES):
        for s in specs:
            json.dumps(spec_to_doc(s))
    t1 = time.perf_counter()
    for _ in range(WIRE_PASSES):
        for text in texts:
            spec_from_doc(json.loads(text))
    t2 = time.perf_counter()
    n = WIRE_PASSES * len(specs)
    return (t1 - t0) / n * 1e6, (t2 - t1) / n * 1e6


def service_layer(run: dict, spans: ledger.Spans, specs, results) -> dict:
    """The service rows of the ledger from one traced closed-loop run."""
    handler = [(s, e) for n, s, e in spans.records if n == "handler"]
    overhead = []
    for t0, dt in zip(run["starts"], run["raw"]):
        inside = sum(e - s for s, e in handler if t0 <= s <= t0 + dt)
        overhead.append(dt - inside)
    stacks = run["stacks"]
    encode_us, decode_us = wire_us(specs)
    return {
        "service.submit_ms_p50": ledger.median(spans.durations("submit")) * 1e3,
        "service.hit_frac": sum(s["hits"] for s in stacks)
        / sum(s["submitted"] for s in stacks),
        "service.store_get_ms_p50": ledger.median(spans.durations("store_get")) * 1e3,
        "service.store_put_ms_p50": ledger.median(spans.durations("store_put")) * 1e3,
        "service.result_bytes": ledger.median(len(checks.canonical(r)) for r in results),
        "service.wire_encode_us": encode_us,
        "service.wire_decode_us": decode_us,
        "service.http_overhead_ms_p50": ledger.median(overhead) * 1e3,
        "service.job_s_mean": sum(s["job_s"] for s in stacks)
        / sum(s["jobs"] for s in stacks),
    }


class Bench:
    """One benchmark run: arguments, output checks, scratch directory."""

    def __init__(self, args, tmp: str, import_s: float):
        self.args = args
        self.tmp = tmp
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = checks.load_reference()["digests"]
        self.tally = checks.Tally(args.scale, reference)
        self.sizes = workloads.SCALES[args.scale]
        self.trace_path: str | None = None
        #: stand-up times of this run, (raw, host-normalised) seconds
        self.setups: list[tuple[float, float]] = []
        self.clock = calib.HostClock()
        # imports ran before the first calibration: one-sided scale
        self.import_norm_s = import_s * calib.REFERENCE_S / self.clock.last

    def timed_setup(self, fn):
        """Run one stand-up, recording its time; returns ``fn()``."""
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.clock.add(dt)
        self.clock.flush()
        self.setups.append((dt, self.clock.done[-1]))
        return out

    def setup_s(self) -> float:
        """Imports plus the median stand-up, host-normalised."""
        return self.import_norm_s + ledger.median(n for _, n in self.setups)

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def run(self) -> dict:
        kind = "service" if self.args.workload == "service" else "sim"
        if not self.args.trace:
            return getattr(self, f"{kind}_timed")()
        metrics = getattr(self, f"{kind}_traced")()
        metrics["cli.import_s"] = cli_import_s()
        return metrics

    # -- shared probes ------------------------------------------------------

    def stack_factory(self, store: str, jobs: int, spans=None):
        def make(generation: int):
            return svc.Stack(self.path(store), jobs, self.args.seed, generation,
                             spans)
        return make

    def service_probe(self, item) -> tuple[dict, ledger.Spans]:
        """A short closed loop asking one spec four times (restart after
        two): the service rows for a workload not served over HTTP."""
        spans = ledger.Spans()
        run = svc.drive(self.stack_factory("probe-store", 1, spans),
                        itertools.repeat(item), self.tally, self.clock, count=4)
        return run, spans

    def trace_rows(self, item) -> dict:
        """Record/decode rows: the setup recordings for the sampled
        workload (the last one decoded), else a trace of the first
        item's stream recorded here."""
        if self.trace_path is not None:
            path = self.trace_path
            rate = self.sizes["trace_uops"] / ledger.median(r for r, _ in self.setups)
        else:
            path = self.path("probe.uoptrace")
            n = recommended_uops(item.spec.instructions, item.spec.warmup)
            rate = n / sim.record(path, item.source, n, self.args.seed)
        return {"trace.record_uops_per_s": rate,
                "trace.decode_mb_per_s": sim.decode_mb_per_s(path)}

    # -- simulation workloads (detailed-*, sampled) ---------------------------

    def sim_setup(self) -> list:
        """Inputs of the workload; stand-up times go to ``self.setups``."""
        a = self.args
        if a.workload == "sampled":
            items = []
            for i in range(workloads.SAMPLED_TRACES):
                seed = workloads.sampled_trace_seed(a.seed, i)
                path = self.path(f"{workloads.SAMPLED_SOURCE}-{seed}.uoptrace")
                self.timed_setup(lambda: record_trace(
                    path, workloads.SAMPLED_SOURCE, self.sizes["trace_uops"],
                    seed=seed))
                items.append(workloads.sampled_item(spec_name(path), seed, a.scale))
            self.trace_path = path
            return items
        items = workloads.detailed_cells(a.workload, a.seed, a.scale)
        def build_all():
            for item in items:
                runner.build_spec_pipeline(item.spec)

        for _ in range(SETUP_REPEATS):
            self.timed_setup(build_all)
        return items

    def sim_timed(self) -> dict:
        items = self.sim_setup()
        secs, uops = sim.timed_rounds(items, self.tally, self.args.seconds,
                                      self.clock)
        if not all(secs):
            raise RuntimeError("a round in which no simulation succeeded")
        print(f"# {len(secs)} rounds of {len(items)} simulation(s); "
              f"request percentiles over {len(secs)} rounds")
        return {
            "sim_uops_per_s": ledger.median(u / s for u, s in zip(uops, secs)),
            "request_ms_p50": ledger.median(secs) * 1e3,
            "request_ms_p90": ledger.percentile(secs, 90) * 1e3,
            "requests_per_s": len(secs) / sum(secs),
            "setup_s": self.setup_s(),
            "peak_rss_mb": peak_rss_mb(),
        }

    def sim_traced(self) -> dict:
        items = self.sim_setup()
        m, results = sim.traced_passes(items, self.tally, self.clock)
        m.update(self.trace_rows(items[0]))
        run, spans = self.service_probe(items[0])
        rows = service_layer(run, spans, [i.spec for i in items], results)
        m.update(rows)
        m["obs.trace_overhead_frac"] = m.pop("traced_s") / m.pop("untraced_s") - 1
        return m

    # -- service workload ---------------------------------------------------

    def requests(self):
        pool = workloads.service_pool(self.args.seed, self.args.scale)
        return pool, workloads.service_requests(pool, self.args.seed)

    def service_timed(self) -> dict:
        for i in range(SETUP_REPEATS):
            make = self.stack_factory(f"setup-store-{i}", 2)
            self.timed_setup(lambda: make(0)).close()
        run = svc.drive(self.stack_factory("store", 2), self.requests()[1],
                        self.tally, self.clock, seconds=self.args.seconds)
        lat = run["latencies"]
        if not lat:
            raise RuntimeError("the service answered no request")
        busy = sum(lat)
        print(f"# {len(lat)} requests answered; request percentiles over "
              f"{len(lat)} samples (p90, as runs have fewer than 1000)")
        workers = max(s["workers_mb"] for s in run["stacks"])
        return {
            "sim_uops_per_s": run["uops"] / busy,
            "request_ms_p50": ledger.median(lat) * 1e3,
            "request_ms_p90": ledger.percentile(lat, 90) * 1e3,
            "requests_per_s": len(lat) / busy,
            "setup_s": self.setup_s(),
            "peak_rss_mb": peak_rss_mb() + workers,
        }

    def service_traced(self) -> dict:
        count = self.sizes["traced_requests"]
        plain = svc.drive(self.stack_factory("plain-store", 2),
                          self.requests()[1], self.tally, self.clock, count=count)
        spans = ledger.Spans()
        pool, requests = self.requests()
        traced = svc.drive(self.stack_factory("traced-store", 2, spans),
                           requests, self.tally, self.clock, count=count)
        asked = [i.spec for i in itertools.islice(self.requests()[1], count)]
        profiled = pool[:self.sizes["profiled"]]
        m, results = sim.traced_passes(profiled, self.tally, self.clock)
        del m["traced_s"], m["untraced_s"]
        m.update(self.trace_rows(profiled[0]))
        m.update(service_layer(traced, spans, asked, results))
        # the wrappers sit on the request path, not in the workers: the
        # median request (a hit) shows their cost, a miss's simulation
        # time only hides it in noise
        m["obs.trace_overhead_frac"] = (ledger.median(traced["latencies"])
                                        / ledger.median(plain["latencies"]) - 1)
        return m
