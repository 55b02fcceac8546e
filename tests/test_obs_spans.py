"""Span timing: gating, capture, and propagation through pool workers."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.obs as obs
from repro.experiments import runner
from repro.experiments.runner import MACHINE_SAMIE, SimSpec
from repro.obs import spans
from repro.service.session import _worker


@pytest.fixture(autouse=True)
def _clean():
    obs.disable()
    spans.clear_context()
    spans.SPANS.drain()
    yield
    obs.disable()
    spans.clear_context()
    spans.SPANS.drain()


def _spec(workload="gzip", **kw):
    return SimSpec.make(workload, MACHINE_SAMIE,
                        instructions=400, warmup=100, **kw)


class TestSpanGating:
    def test_disabled_span_records_nothing(self):
        with spans.span("phase") as rec:
            assert rec is None
        assert len(spans.SPANS) == 0

    def test_enabled_span_lands_in_the_default_log(self):
        obs.enable()
        with spans.span("phase", detail=3) as rec:
            assert rec["name"] == "phase"
        (got,) = spans.SPANS.drain()
        assert got["name"] == "phase"
        assert got["detail"] == 3
        assert got["dur"] >= 0.0

    def test_explicit_log_works_even_when_disabled(self):
        local = spans.SpanLog()
        with spans.span("phase", log=local):
            pass
        assert len(local) == 1

    def test_spans_carry_the_current_context(self):
        obs.enable()
        spans.set_context(run="r1", batch="b1", shard=3)
        with spans.span("phase"):
            pass
        (got,) = spans.SPANS.drain()
        assert (got["run"], got["batch"], got["shard"]) == ("r1", "b1", 3)


class TestCapture:
    def test_capture_isolates_and_restores(self):
        assert not obs.enabled()
        with spans.capture() as log:
            assert obs.enabled()
            with spans.span("inside"):
                pass
        assert not obs.enabled()  # restored
        assert [s["name"] for s in log.snapshot()] == ["inside"]
        assert len(spans.SPANS) == 0  # the default log never saw it


class TestWorkerSpans:
    def test_none_context_means_disabled(self):
        with spans.worker_spans(None) as captured:
            assert captured is None

    def test_context_round_trip(self):
        ctx = {"run": "abc123", "batch": "b7", "shard": 2}
        with spans.worker_spans(ctx) as captured:
            with spans.span("job.simulate"):
                pass
        (got,) = captured
        assert got["run"] == "abc123"
        assert got["shard"] == 2
        assert not obs.enabled()  # worker harness restores the switch


class TestPoolPropagation:
    """Identity tags survive the trip through a real worker process."""

    def test_traced_worker_returns_result_and_tagged_spans(self):
        spec = _spec()
        ctx = {"run": spec.cache_id[:12], "batch": "b1", "shard": 0}
        with ProcessPoolExecutor(max_workers=1) as pool:
            result, worker_spans = pool.submit(_worker, spec, ctx).result()
        # the result is bit-identical to an untraced local run
        assert result.to_dict() == runner.run_spec(spec).to_dict()
        names = [s["name"] for s in worker_spans]
        assert "job.simulate" in names
        for s in worker_spans:
            assert s["run"] == spec.cache_id[:12]
            assert s["batch"] == "b1"
            assert s["shard"] == 0

    def test_untraced_worker_returns_bare_result(self):
        spec = _spec()
        result, captured = _worker(spec, None)
        assert captured == []
        assert result.to_dict() == runner.run_spec(spec).to_dict()


class TestServiceSpans:
    def test_service_lifecycle_emits_spans(self):
        from repro.service.session import SimService
        from repro.service.store import MemoryStore

        obs.enable()
        spans.SPANS.drain()
        service = SimService(store=MemoryStore(), backend="inline")
        service.standup()
        service.run_many([_spec(), _spec("swim")])
        service.analysis()
        service.teardown()
        names = {s["name"] for s in spans.SPANS.drain()}
        assert {"service.standup", "service.admission", "service.lookup",
                "job.simulate", "service.analysis",
                "service.teardown"} <= names
