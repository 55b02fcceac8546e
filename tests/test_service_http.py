"""Tests for the HTTP/JSON front end, its client, and the wire codec."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.core.config import ProcessorConfig
from repro.experiments import runner
from repro.experiments.runner import MACHINE_CONV128, MACHINE_SAMIE, SimSpec, mem_spec
from repro.mem.hierarchy import MemConfig
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.httpapi import ServiceHTTPServer
from repro.service.session import SimService
from repro.service.store import MemoryStore
from repro.service.wire import spec_from_doc, spec_to_doc, specs_from_docs

SMALL = dict(instructions=400, warmup=100)


def _spec(workload="gzip", machine=MACHINE_SAMIE, **kw):
    return SimSpec.make(workload, machine, **SMALL, **kw)


@pytest.fixture()
def served():
    """An in-process service + live HTTP server + client."""
    service = SimService(store=MemoryStore(), jobs=2, backend="thread")
    service.standup()
    server = ServiceHTTPServer(service, port=0)
    server.start_background()
    try:
        yield service, server, ServiceClient(server.url, timeout=30)
    finally:
        server.shutdown()
        server.server_close()
        service.teardown()


class TestWireCodec:
    @pytest.mark.parametrize("spec", [
        _spec(),
        _spec("swim", MACHINE_CONV128, seed=7),
        _spec(mem=mem_spec(mshr_entries=4, l1d_sets=128)),
        _spec(cfg=ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1))),
        SimSpec.make("gzip", MACHINE_SAMIE, **SMALL, sample=(10000, 3000, 1000)),
    ])
    def test_round_trip_preserves_the_key(self, spec):
        doc = json.loads(json.dumps(spec_to_doc(spec)))  # a real wire hop
        clone = spec_from_doc(doc)
        assert clone.key == spec.key
        assert clone.cache_id == spec.cache_id

    @pytest.mark.parametrize("mangle,match", [
        (lambda d: d.pop("workload"), "missing required field"),
        (lambda d: d.pop("lsq"), "missing required field"),
        (lambda d: d.update(lsq="samie"), "kind"),
        (lambda d: d.update(lsq={"params": {}}), "kind"),
        (lambda d: d.update(turbo=True), "unknown spec fields"),
        (lambda d: d.update(sample=[1, 2]), "triple"),
        (lambda d: d.update(mem={"l3_size": 1}), "unknown MemConfig field"),
        (lambda d: d.update(cfg={"flux_capacitor": 1}),
         "unknown ProcessorConfig fields"),
        (lambda d: d.update(cfg={"mem": {"l9_size": 1}}),
         "unknown MemConfig fields"),
    ])
    def test_malformed_docs_raise_value_error(self, mangle, match):
        doc = spec_to_doc(_spec())
        mangle(doc)
        with pytest.raises(ValueError, match=match):
            spec_from_doc(doc)

    def test_batch_decode_annotates_the_index(self):
        good = spec_to_doc(_spec())
        with pytest.raises(ValueError, match=r"specs\[1\]"):
            specs_from_docs([good, {"workload": "gzip"}])
        with pytest.raises(ValueError, match="non-empty"):
            specs_from_docs([])
        assert [s.key for s in specs_from_docs([good])] == [_spec().key]


class TestEndpoints:
    def test_health_and_stats(self, served):
        service, _, client = served
        assert client.health() == {"ok": True, "phase": "run"}
        doc = client.stats()
        assert doc["phase"] == "run"
        assert doc["store"]["backend"] == "memory"
        assert doc["stats"]["submitted"] == 0

    def test_duplicated_batch_dedups_and_matches_serial(self, served):
        service, _, client = served
        specs = [_spec(), _spec("swim"), _spec(), _spec("swim"), _spec()]
        results = client.run_many(specs)
        stats = client.stats()["stats"]
        assert stats["submitted"] == 5
        assert stats["simulated"] == 2  # two unique specs
        assert stats["deduplicated"] == 3
        # bit-identical to the serial in-process path
        serial = SimService(store=MemoryStore(), backend="inline").run_many(specs)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]
        assert results == serial  # and as SimResult dataclasses

    def test_result_by_content_address(self, served):
        service, _, client = served
        spec = _spec()
        [expected] = client.run_many([spec])
        assert client.result(spec.cache_id) == expected
        with pytest.raises(ServiceClientError) as e:
            client.result("0" * 40)
        assert e.value.status == 404

    def test_batch_status_document(self, served):
        service, _, client = served
        batch = client.submit([_spec(), _spec()])
        doc = client.batch_status(batch["batch"])
        assert doc["batch"] == batch["batch"]
        assert len(doc["jobs"]) == 2
        assert doc["jobs"][0]["id"] == doc["jobs"][1]["id"]  # shared job
        client.results(batch["batch"], timeout=30)

    def test_stream_emits_job_events_then_done(self, served):
        service, _, client = served
        batch = client.submit([_spec(), _spec("swim")])
        events = list(client.stream(batch["batch"], timeout=30))
        assert events[-1]["event"] == "done"
        assert events[-1]["stats"]["simulated"] == 2
        job_events = [e for e in events if e["event"] == "job"]
        assert {e["workload"] for e in job_events} == {"gzip", "swim"}
        assert all(e["state"] == "done" for e in job_events
                   if e is job_events[-1])

    def test_cache_clear_endpoint(self, served):
        service, _, client = served
        client.run_many([_spec()])
        assert client.clear_cache() == (1, 0)
        assert client.clear_cache() == (0, 0)

    def test_error_mapping(self, served):
        service, server, client = served
        # 400: malformed spec document
        with pytest.raises(ServiceClientError) as e:
            client.submit([{"workload": "gzip"}])
        assert e.value.status == 400
        # 400: unknown workload (the documented KeyError)
        with pytest.raises(ServiceClientError) as e:
            client.submit([_spec("quake3")])
        assert e.value.status == 400 and "quake3" in e.value.message
        # 400: body not JSON
        req = urllib.request.Request(server.url + "/v1/batch",
                                     data=b"{oops", method="POST")
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(req, timeout=10)
        assert raw.value.code == 400
        # 404: unknown batch / endpoint
        with pytest.raises(ServiceClientError) as e:
            client.batch_status("b999")
        assert e.value.status == 404
        with pytest.raises(ServiceClientError) as e:
            client._request("GET", "/v2/health")
        assert e.value.status == 404

    @pytest.mark.parametrize("body", [b'"x"', b"[1, 2]", b"7", b"null"])
    def test_non_object_body_maps_to_400(self, served, body):
        _, server, _ = served
        req = urllib.request.Request(server.url + "/v1/batch",
                                     data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(req, timeout=10)
        assert raw.value.code == 400
        assert "JSON object" in json.loads(raw.value.read())["error"]

    def test_oversized_body_maps_to_413_unread(self, served):
        import http.client

        from repro.service.httpapi import MAX_BODY_BYTES

        service, server, client = served
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # declare more than the limit but send almost nothing: the
            # server must answer from the header alone, not wait to read
            conn.putrequest("POST", "/v1/batch")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders(b"{")
            resp = conn.getresponse()
            assert resp.status == 413
            assert str(MAX_BODY_BYTES) in json.loads(resp.read())["error"]
        finally:
            conn.close()
        assert service.stats.submitted == 0
        assert client.health()["ok"]  # the server keeps serving

    def test_admission_maps_to_429(self, monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            entered.set()
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        service = SimService(store=MemoryStore(), jobs=1, backend="thread",
                             max_pending=1)
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            first = client.submit([_spec()])
            assert entered.wait(10)
            with pytest.raises(ServiceClientError) as e:
                client.submit([_spec("swim")])
            assert e.value.status == 429
            release.set()
            client.results(first["batch"], timeout=30)
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_phase_violation_maps_to_409(self, served):
        service, _, client = served
        service.analysis()
        service.phase = "teardown"  # simulate a torn-down service
        try:
            with pytest.raises(ServiceClientError) as e:
                client.submit([_spec()])
            assert e.value.status == 409
        finally:
            service.phase = "run"

    def test_results_timeout_maps_to_408(self, monkeypatch):
        release = threading.Event()
        real = runner.run_spec

        def gated(spec):
            assert release.wait(10)
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", gated)
        service = SimService(store=MemoryStore(), jobs=1, backend="thread")
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            batch = client.submit([_spec()])
            with pytest.raises(ServiceClientError) as e:
                client.results(batch["batch"], timeout=0.05)
            assert e.value.status == 408
            release.set()
            assert len(client.results(batch["batch"], timeout=30)) == 1
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_failed_batch_maps_to_500_with_job_detail(self, monkeypatch):
        monkeypatch.setattr(
            runner, "run_spec",
            lambda s: (_ for _ in ()).throw(RuntimeError("injected")),
        )
        service = SimService(store=MemoryStore(), jobs=1, backend="thread")
        service.standup()
        server = ServiceHTTPServer(service, port=0)
        server.start_background()
        client = ServiceClient(server.url, timeout=30)
        try:
            batch = client.submit([_spec()])
            with pytest.raises(ServiceClientError) as e:
                client.results(batch["batch"], timeout=30)
            assert e.value.status == 500
        finally:
            server.shutdown()
            server.server_close()
            service.teardown()

    def test_herd_of_http_clients_costs_one_simulation(self, served):
        service, _, client = served
        spec = _spec("ammp")
        herd_results: list = []

        def one_client():
            herd_results.append(client.run_many([spec, spec])[0])

        threads = [threading.Thread(target=one_client) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stats = client.stats()["stats"]
        assert stats["simulated"] == 1
        assert stats["submitted"] == 10
        ref = herd_results[0].to_dict()
        assert all(r.to_dict() == ref for r in herd_results)
