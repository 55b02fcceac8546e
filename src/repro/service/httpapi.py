"""HTTP/JSON front end for :class:`~repro.service.session.SimService`.

Pure stdlib (``http.server``); no new dependencies.  Endpoints (all
under ``/v1``)::

    GET  /v1/health                  liveness + lifecycle phase
    GET  /v1/stats                   admission/dedup counters + store info
    GET  /v1/metrics                 Prometheus text exposition of the
                                     service's metrics registry
    POST /v1/batch                   submit {"specs": [<spec doc>, ...]}
                                     -> 202 {"batch": id, "jobs": [...]}
    GET  /v1/batch/<id>              batch status document
    GET  /v1/batch/<id>/results      block (optional ?timeout=s) then
                                     return results in submission order
    GET  /v1/batch/<id>/stream       newline-delimited JSON progress
                                     events until the batch completes;
                                     periodic {"event": "heartbeat"}
                                     frames carry queue depth, in-flight
                                     count, store hit-rate and sims/sec
    GET  /v1/result/<cache_id>       one result by content address
                                     (finished jobs, then the store)
    POST /v1/cache/clear             clear the store; CacheClearance body

Spec documents are the :mod:`repro.service.wire` format; results are
``SimResult.to_dict()`` documents, bit-identical to what the in-process
API returns.  Error mapping: malformed input (including a body that is
not a JSON object) -> 400, unknown workload -> 400, unknown
batch/result -> 404, a body over :data:`MAX_BODY_BYTES` -> 413 (unread;
the connection is closed), admission refusal -> 429, lifecycle
violation -> 409.

The handler threads only touch the service through its public, locked
API, so a ``ThreadingHTTPServer`` front end and in-process submitters
can share one session safely.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.session import AdmissionError, PhaseError, SimService
from repro.service.wire import specs_from_docs

#: progress-stream poll interval (seconds); events are emitted on change
_STREAM_POLL = 0.05
#: seconds between heartbeat frames on /v1/batch/<id>/stream
_HEARTBEAT_EVERY = 0.5
#: largest request body read (bytes); a larger Content-Length gets 413
MAX_BODY_BYTES = 16 << 20


class _BodyTooLarge(Exception):
    """The request declared a body over :data:`MAX_BODY_BYTES`."""


def heartbeat_rate(prev: tuple[float, float] | None, now: float,
                   simulated: float) -> float | None:
    """sims/sec between two heartbeat anchors, or ``None``.

    ``None`` covers every degenerate case: no previous anchor (first
    frame), a non-advancing or backwards clock (``elapsed <= 0`` must
    never divide, let alone yield ``inf``), and a ``simulated`` counter
    that moved backwards (stats were reset under the stream).
    """
    if prev is None:
        return None
    elapsed = now - prev[0]
    if elapsed <= 0:
        return None
    delta = simulated - prev[1]
    if delta < 0:
        return None
    return delta / elapsed


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SimService`.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server_address``.  Use :meth:`start_background` for an in-process
    server (tests, the demo) or ``serve_forever`` for the CLI.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: SimService, host: str = "127.0.0.1",
                 port: int = 0, quiet: bool = True) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class _Handler(BaseHTTPRequestHandler):
    server_version = "samie-repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    @property
    def service(self) -> SimService:
        return self.server.service

    def _send_json(self, status: int, doc) -> None:
        body = (json.dumps(doc) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte limit")
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError:
            raise ValueError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib name)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if parts == ["v1", "health"]:
                self._send_json(200, {"ok": True, "phase": self.service.phase})
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.service.describe())
            elif parts == ["v1", "metrics"]:
                self._send_metrics()
            elif len(parts) == 3 and parts[:2] == ["v1", "batch"]:
                self._get_batch(parts[2])
            elif len(parts) == 4 and parts[:2] == ["v1", "batch"] and parts[3] == "results":
                self._get_results(parts[2], query)
            elif len(parts) == 4 and parts[:2] == ["v1", "batch"] and parts[3] == "stream":
                self._stream_batch(parts[2], query)
            elif len(parts) == 3 and parts[:2] == ["v1", "result"]:
                self._get_result(parts[2])
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except BrokenPipeError:
            pass  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 (stdlib name)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "batch"]:
                self._post_batch()
            elif parts == ["v1", "cache", "clear"]:
                clearance = self.service.store.clear()
                self._send_json(200, {"removed": clearance.removed,
                                      "stale": clearance.stale})
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except BrokenPipeError:
            pass

    # -- endpoints -----------------------------------------------------------

    def _send_metrics(self) -> None:
        body = self.service.registry.render_text().encode()
        self.send_response(200)
        # the Prometheus text exposition content type, version 0.0.4
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _post_batch(self) -> None:
        try:
            body = self._read_body()
            specs = specs_from_docs(body.get("specs"))
        except _BodyTooLarge as e:
            # the body stays unread, so the connection cannot be reused
            self.close_connection = True
            return self._error(413, str(e))
        except ValueError as e:
            return self._error(400, str(e))
        try:
            batch = self.service.submit(specs)
        except KeyError as e:
            return self._error(400, str(e.args[0]))
        except ValueError as e:
            return self._error(400, str(e))
        except AdmissionError as e:
            return self._error(429, str(e))
        except PhaseError as e:
            return self._error(409, str(e))
        self._send_json(202, batch.describe())

    def _find_batch(self, batch_id: str):
        batch = self.service.batch(batch_id)
        if batch is None:
            self._error(404, f"no such batch: {batch_id}")
        return batch

    def _get_batch(self, batch_id: str) -> None:
        batch = self._find_batch(batch_id)
        if batch is not None:
            self._send_json(200, batch.describe())

    def _get_results(self, batch_id: str, query: dict) -> None:
        batch = self._find_batch(batch_id)
        if batch is None:
            return
        timeout = float(query["timeout"][0]) if "timeout" in query else None
        if not batch.wait(timeout):
            return self._error(408, f"batch {batch_id} still running")
        descs = [j.describe() for j in batch.jobs]
        if any(d["state"] == "failed" for d in descs):
            return self._send_json(
                500, {"error": "batch had failed jobs", "jobs": descs}
            )
        self._send_json(200, {
            "batch": batch_id,
            "results": [
                dict(desc, result=job.result.to_dict())
                for desc, job in zip(descs, batch.jobs)
            ],
        })

    def _stream_batch(self, batch_id: str, query: dict) -> None:
        batch = self._find_batch(batch_id)
        if batch is None:
            return
        timeout = float(query.get("timeout", ["300"])[0])
        # no Content-Length and Connection: close -- the client reads
        # JSON lines until EOF (works under plain urllib)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()

        def emit(doc) -> None:
            self.wfile.write((json.dumps(doc) + "\n").encode())
            self.wfile.flush()

        last: dict[str, str] = {}
        deadline = time.monotonic() + timeout
        # the first heartbeat goes out unconditionally (before any job
        # event), so even a batch that completes within one poll gets one
        hb_state = self._emit_heartbeat(emit, batch, None)
        next_hb = time.monotonic() + _HEARTBEAT_EVERY
        while True:
            for job in batch.jobs:
                state = job.describe()
                if last.get(state["id"]) != state["state"]:
                    last[state["id"]] = state["state"]
                    emit({"event": "job", **state})
            if batch.done():
                emit({"event": "done", "batch": batch_id,
                      "stats": self.service.stats.snapshot()})
                self.close_connection = True
                return
            now = time.monotonic()
            if now >= next_hb:
                hb_state = self._emit_heartbeat(emit, batch, hb_state)
                next_hb = now + _HEARTBEAT_EVERY
            if now > deadline:
                emit({"event": "timeout", "batch": batch_id})
                self.close_connection = True
                return
            time.sleep(_STREAM_POLL)

    def _emit_heartbeat(self, emit, batch, prev: tuple | None) -> tuple:
        """Emit one heartbeat frame; returns the (t, simulated) anchor
        the next frame derives its sims/sec from (None on the first)."""
        stats = self.service.stats.snapshot()
        now = time.monotonic()
        rate = heartbeat_rate(prev, now, stats["simulated"])
        hits = stats["memo_hits"] + stats["store_hits"]
        resolved = hits + stats["simulated"] + stats["failed"]
        emit({
            "event": "heartbeat",
            "batch": batch.batch_id,
            "queue_depth": self.service.pending(),
            "inflight": sum(1 for j in batch.jobs if j.state == "running"),
            "store_hit_rate": (hits / resolved) if resolved else None,
            "simulated": stats["simulated"],
            "sims_per_sec": rate,
        })
        return (now, stats["simulated"])

    def _get_result(self, cache_id: str) -> None:
        result = self.service.result_by_address(cache_id)
        if result is None:
            return self._error(404, f"no result for {cache_id}")
        self._send_json(200, {"id": cache_id, "result": result.to_dict()})


def serve(service: SimService, host: str = "127.0.0.1", port: int = 8421,
          quiet: bool = True) -> ServiceHTTPServer:
    """Bind a server (without starting it); CLI and tests share this."""
    return ServiceHTTPServer(service, host, port, quiet=quiet)
