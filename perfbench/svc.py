"""The service workload: one closed-loop client over HTTP.

A :class:`Stack` is one stand-up of the service as a user runs it: a
``SimService`` with standing process shards on a ``LocalDirStore``, a
``ServiceHTTPServer`` in a background thread and a ``ServiceClient``.
The client sends one single-spec request at a time and waits for its
result.  Partway through a run the stack is torn down and stood up again
on the same store, so repeats are served from the memo before the
restart and from the store after it.

Once a stand-up's worker shards have forked, every thread of the
benchmark process (the client, the HTTP server and its per-connection
handlers) is pinned to one CPU.  A hit is two HTTP round trips between
threads of this process; left free, those threads hop between CPUs and
a hit's time follows the host's other load more than the service's
code (on a 2-vCPU host it measured 4.3 ms when idle, 3.0 ms with one
busy neighbour and 11.9 ms with two, against 3.0, 3.1 and 2.6 ms
pinned).  Pinned, it moves with the CPU the calibration kernel also
runs on.  The workers keep every CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time

from repro.service import (
    LocalDirStore,
    ServiceClient,
    ServiceHTTPServer,
    SimService,
)

import checks
import ledger
import workloads

#: seconds a client waits for one answer before it counts as failed
REQUEST_TIMEOUT = 120.0

_JOB_SUM = re.compile(r"^repro_service_job_seconds_sum (\S+)$", re.M)
_JOB_COUNT = re.compile(r"^repro_service_job_seconds_count (\S+)$", re.M)


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, MiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _set_affinity(cpus) -> None:
    """Set the CPU affinity of every thread of this process (Linux)."""
    for tid in os.listdir(f"/proc/{os.getpid()}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread ended meanwhile


class Stack:
    """One stand-up: service + HTTP server + client, pool forked and warm.

    With ``spans`` the client's submit calls, the server's per-connection
    handler time and the store's get/put calls are timed into it.
    """

    def __init__(self, store_dir: str, jobs: int, seed: int, generation: int,
                 spans: ledger.Spans | None = None):
        #: this process's CPUs; None where the platform cannot pin threads
        self.cpus = (os.sched_getaffinity(0)
                     if hasattr(os, "sched_getaffinity") else None)
        self.service = SimService(store=LocalDirStore(store_dir), jobs=jobs,
                                  backend="process").standup()
        self.server = ServiceHTTPServer(self.service, port=0)
        self.thread = self.server.start_background()
        self.client = ServiceClient(self.server.url, timeout=REQUEST_TIMEOUT)
        self.client.run_many(workloads.warmup_specs(seed, generation))
        if self.cpus:
            _set_affinity({min(self.cpus)})
        self._stats0 = self.service.stats.snapshot()
        self._jobs0 = self._job_totals()
        if spans is not None:
            ledger.wrap(self.client, "submit", spans, "submit", keep=True)
            ledger.wrap(self.server, "finish_request", spans, "handler", keep=True)
            ledger.wrap(self.service.store, "get", spans, "store_get", keep=True)
            ledger.wrap(self.service.store, "put", spans, "store_put", keep=True)

    def _job_totals(self) -> tuple[float, float]:
        """(sum, count) of the service's own job-seconds histogram."""
        text = self.client.metrics()
        return (float(_JOB_SUM.search(text).group(1)),
                float(_JOB_COUNT.search(text).group(1)))

    def close(self) -> dict:
        """Tear down; returns what was measured since the warm-up."""
        stats = self.service.stats.snapshot()
        job_sum, job_count = self._job_totals()
        workers_mb = sum(_vm_hwm_mb(p.pid)
                         for p in multiprocessing.active_children())
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.teardown()
        if self.cpus:
            _set_affinity(self.cpus)  # the next stand-up's workers get all
        hits = sum(stats[k] - self._stats0[k] for k in ("memo_hits", "store_hits"))
        return {
            "submitted": stats["submitted"] - self._stats0["submitted"],
            "hits": hits,
            "job_s": job_sum - self._jobs0[0],
            "jobs": job_count - self._jobs0[1],
            "workers_mb": workers_mb,
        }


def drive(make_stack, requests, tally: checks.Tally, clock,
          seconds: float | None = None, count: int | None = None) -> dict:
    """Run the closed loop over ``requests`` (an iterator of Items).

    Stops after ``seconds`` of request time or ``count`` requests; the
    stack is restarted halfway.  ``make_stack(generation)`` stands one
    up.  Restart time is not request time.  Returns each answered
    request's latency raw (``raw``, with its start in ``starts``) and
    host-normalised by ``clock``, a :class:`calib.HostClock`
    (``latencies``).
    """
    def past(fraction: float) -> bool:
        if seconds is not None:
            return busy >= seconds * fraction
        return asked >= count * fraction

    stack = make_stack(1)
    clock.flush()
    first = len(clock.done)
    closed = []
    raw, starts = [], []
    uops = asked = 0
    busy = 0.0
    try:
        while not past(1.0):
            if not closed and past(0.5):
                clock.flush()  # restart time is not request time
                closed.append(stack.close())
                stack = make_stack(2)
            item = next(requests)
            asked += 1
            t0 = time.perf_counter()
            try:
                result = stack.client.run_many([item.spec])[0]
            except Exception as exc:  # a failed request is counted, not fatal
                busy += time.perf_counter() - t0
                tally.fail(f"{item.label}: {exc!r}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            raw.append(dt)
            starts.append(t0)
            clock.add(dt)
            if tally.check(item.label, result):
                uops += result.instructions + item.spec.warmup
        clock.flush()
    finally:
        closed.append(stack.close())
    return {"latencies": clock.done[first:], "raw": raw, "starts": starts,
            "uops": uops, "stacks": closed}
