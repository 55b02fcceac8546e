"""Span-based wall-clock timing with run/batch/shard identity.

A *span* is one timed phase: ``{"name", "ts", "dur", "run", "batch",
"shard", ...meta}``.  Spans land in a bounded, thread-safe
:class:`SpanLog`; the process-default log (:data:`SPANS`) collects
everything recorded with the module helpers.

Identity travels through :mod:`contextvars` -- :func:`set_context`
tags the current run/batch/shard, and every span records whatever tags
are current.  Process-pool workers do not inherit the parent's context,
so the service layer snapshots it (:func:`context_snapshot`) and ships
it with the work item; the worker re-enters it via
:func:`worker_spans`, which also captures the worker-side spans so they
can be returned *next to* the result -- never inside it.  Results stay
bit-identical whether or not anyone is watching.

Everything here is gated on :func:`repro.obs.enabled`: with
observability off, :func:`span` yields a no-op context manager and
records nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from collections import deque

import repro.obs as _obs

#: current identity tags; None means untagged
_run_id: contextvars.ContextVar = contextvars.ContextVar("repro_obs_run", default=None)
_batch_id: contextvars.ContextVar = contextvars.ContextVar("repro_obs_batch", default=None)
_shard: contextvars.ContextVar = contextvars.ContextVar("repro_obs_shard", default=None)
#: current span sink; None means the process-default log (SPANS)
_sink: contextvars.ContextVar = contextvars.ContextVar("repro_obs_sink", default=None)


class SpanLog:
    """Bounded, thread-safe span sink (newest spans win)."""

    def __init__(self, capacity: int = 8192) -> None:
        self._buf: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def add(self, span: dict) -> None:
        with self._lock:
            self._buf.append(span)

    def drain(self) -> list[dict]:
        """Remove and return everything recorded so far."""
        with self._lock:
            out = list(self._buf)
            self._buf.clear()
        return out

    def snapshot(self) -> list[dict]:
        with self._lock:
            return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


#: process-default span log
SPANS = SpanLog()


def set_context(run: str | None = None, batch: str | None = None,
                shard: int | str | None = None) -> None:
    """Tag the current context; ``None`` leaves a field untouched."""
    if run is not None:
        _run_id.set(run)
    if batch is not None:
        _batch_id.set(batch)
    if shard is not None:
        _shard.set(shard)


def clear_context() -> None:
    _run_id.set(None)
    _batch_id.set(None)
    _shard.set(None)


def current_context() -> dict:
    """The identity tags a span recorded right now would carry."""
    ctx = {}
    if _run_id.get() is not None:
        ctx["run"] = _run_id.get()
    if _batch_id.get() is not None:
        ctx["batch"] = _batch_id.get()
    if _shard.get() is not None:
        ctx["shard"] = _shard.get()
    return ctx


#: alias used by the service when shipping context into a pool worker
context_snapshot = current_context


@contextlib.contextmanager
def span(name: str, log: SpanLog | None = None, **meta):
    """Record one timed phase into ``log`` (default: :data:`SPANS`).

    No-op (and allocation-free beyond the generator) when observability
    is disabled and no explicit log is given.
    """
    if log is None:
        if not _obs.enabled():
            yield None
            return
        log = _current_log()
    record = {"name": name, "ts": time.time(), **current_context(), **meta}
    t0 = time.perf_counter()
    try:
        yield record
    finally:
        record["dur"] = time.perf_counter() - t0
        log.add(record)


def _current_log() -> SpanLog:
    sink = _sink.get()
    return SPANS if sink is None else sink  # not `or`: empty SpanLog is falsy


def record(finished: dict) -> None:
    """Add an already-timed span (one a worker returned) to the current sink."""
    _current_log().add(finished)


@contextlib.contextmanager
def capture():
    """Enable observability with a private sink for the duration.

    Yields a fresh :class:`SpanLog` that receives every span recorded
    inside the block (in this context), without touching the process
    default log or leaving observability enabled afterwards.  Used by
    the profiler and by tests that assert on span streams.
    """
    was_enabled = _obs.enabled()
    _obs.enable()
    local = SpanLog()
    token = _sink.set(local)
    try:
        yield local
    finally:
        _sink.reset(token)
        if not was_enabled:
            _obs.disable()


@contextlib.contextmanager
def worker_spans(ctx: dict | None):
    """Worker-side harness: enter shipped context, capture local spans.

    Used by the pool-worker body.  Yields a list that, on exit, holds
    every span recorded in this context (tagged with the shipped
    run/batch/shard IDs), ready to be returned beside the result.  With
    ``ctx=None`` (observability off in the parent) it yields ``None``
    and records nothing.
    """
    if ctx is None:
        yield None
        return
    was_enabled = _obs.enabled()
    _obs.enable()  # worker processes start fresh; the shipped ctx is the opt-in
    local = SpanLog()
    tokens = (
        _run_id.set(ctx.get("run")),
        _batch_id.set(ctx.get("batch")),
        _shard.set(ctx.get("shard")),
        _sink.set(local),
    )
    captured: list[dict] = []
    try:
        yield captured
    finally:
        for var, token in zip((_run_id, _batch_id, _shard, _sink), tokens):
            var.reset(token)
        if not was_enabled:
            _obs.disable()
        captured.extend(local.drain())
