"""Stdlib HTTP+JSON front end for :class:`SimulationService`.

Endpoints (all JSON):

- ``POST /submit`` — admit a request (see :mod:`repro.serve.api` for
  body shapes).  ``200`` with terminal/coalesced status, ``202``
  enqueued, ``400`` malformed, ``429`` queue full (with
  ``Retry-After``), ``503`` draining (with ``Retry-After``).
- ``GET /status/<id>`` — job lifecycle state.
- ``GET /result/<id>`` — terminal state plus the result payload
  (``202`` while still in flight).
- ``GET /health`` — service health: ok/draining status, queue depth,
  counters.
- ``GET /metrics`` — the BENCH-style service summary (latency
  percentiles per request kind).

Built on ``http.server.ThreadingHTTPServer``: one thread per
connection, all of them funnelling into the service's admission lock.
The handler is deliberately dumb — every decision lives in
:mod:`repro.serve.service` where it is unit-testable without sockets.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.service import SimulationService

_MAX_BODY_BYTES = 1 << 20  # a config is small; anything bigger is abuse


class ServeHandler(BaseHTTPRequestHandler):
    """Thin JSON adapter over the service (set as ``server.service``)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, body: dict,
               headers: dict[str, str] | None = None) -> None:
        payload = json.dumps(body, sort_keys=True, default=repr).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    # -- verbs ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path.rstrip("/") != "/submit":
            self._reply(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._reply(400, {"error": "bad Content-Length"})
            return
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._reply(400, {"error": "missing or oversized request body"})
            return
        raw = self.rfile.read(length)
        try:
            request = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._reply(400, {"error": f"request body is not JSON: {exc}"})
            return
        status, body, headers = self.service.submit(request)
        self._reply(status, body, headers)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.rstrip("/")
        if path == "/health":
            status, body = self.service.health()
            self._reply(status, body)
            return
        if path == "/metrics":
            self._reply(200, self.service.service_summary())
            return
        # Direct dispatch (not a prefix→callable table) so the races
        # pass can follow status/result from this handler thread root.
        if path.startswith("/status/"):
            status, body = self.service.status(path[len("/status/"):])
            self._reply(status, body)
            return
        if path.startswith("/result/"):
            status, body = self.service.result(path[len("/result/"):])
            self._reply(status, body)
            return
        self._reply(404, {"error": f"unknown endpoint {self.path!r}"})


class _ServeServer(ThreadingHTTPServer):
    # socketserver's default listen backlog (5) resets connections under
    # a client storm; the whole point of the admission path is to refuse
    # with 429/503 at the application layer, not with kernel RSTs.
    request_queue_size = 128


def make_server(service: SimulationService, host: str = "127.0.0.1",
                port: int = 0, *, verbose: bool = False) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` server bound to ``host:port``
    (port 0 picks a free one; read ``server.server_address``)."""
    server = _ServeServer((host, port), ServeHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server
