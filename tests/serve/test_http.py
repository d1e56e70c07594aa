"""HTTP front end + concurrent loadtest against a live in-process daemon.

These are the acceptance-criteria tests: 32 concurrent clients at a
90/10 hit/miss mix with zero dropped requests and low-millisecond hit
latency, and injected pool failures that quarantine their own jobs
while the daemon keeps admitting healthy work — over real sockets and
straight against the service.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan
from repro.runner import ResultCache, RunJournal
from repro.runner.core import Task
from repro.serve import ServeRequestError, ServiceConfig, SimulationService
from repro.serve.http import make_server
from repro.serve.loadtest import LoadtestClient, run_loadtest


def _toy_fn(n=1, fail=False):
    if fail:
        raise RuntimeError(f"injected failure for n={n}")
    return {"n": n, "double": 2 * n}


def _toy_resolve(request):
    if not isinstance(request, dict) or "n" not in request:
        raise ServeRequestError("request must carry 'n'")
    kwargs = {"n": int(request["n"])}
    if "fail" in request:
        kwargs["fail"] = request["fail"]
    return Task("toy", f"n={kwargs['n']}", _toy_fn, kwargs)


#: The one config the daemon fixture's fault plan crashes.
CRASH_N = 91


@pytest.fixture
def daemon(tmp_path):
    """A live in-process daemon; yields ``(url, service)``."""
    cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    config = ServiceConfig(workers=2, isolate=False, queue_depth=256,
                           max_retries=0)
    service = SimulationService(
        _toy_resolve, cache, config=config,
        journal=RunJournal(cache.root, cache.fingerprint),
        faults=FaultPlan.parse([f"toy/n={CRASH_N}=crash"]),
    )
    service.start()
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.drain(1.0)


class TestEndpoints:
    def test_submit_status_result_roundtrip(self, daemon):
        url, _ = daemon
        client = LoadtestClient(url)
        status, reply, _ = client.call("POST", "/submit", {"n": 3})
        assert status in (200, 202)
        job_id = reply["id"]
        deadline = time.monotonic() + 10.0  # repro: allow(wall-clock) — test deadline
        while True:
            status, reply, _ = client.call("GET", f"/result/{job_id}")
            if status == 200 and reply["status"] == "done":
                break
            assert time.monotonic() < deadline  # repro: allow(wall-clock) — test deadline
            time.sleep(0.02)
        assert reply["result"] == {"n": 3, "double": 6}
        status, reply, _ = client.call("GET", f"/status/{job_id}")
        assert status == 200 and reply["status"] == "done"

    def test_health_and_metrics(self, daemon):
        url, _ = daemon
        client = LoadtestClient(url)
        status, health, _ = client.call("GET", "/health")
        assert status == 200 and health["status"] == "ok"
        status, metrics, _ = client.call("GET", "/metrics")
        assert status == 200
        assert metrics["kind"] == "bench" and metrics["subsystem"] == "serve"

    def test_unknown_endpoint_and_job(self, daemon):
        url, _ = daemon
        client = LoadtestClient(url)
        assert client.call("GET", "/nope")[0] == 404
        assert client.call("POST", "/nope", {})[0] == 404
        assert client.call("GET", "/result/zzz")[0] == 404

    def test_malformed_body_is_400(self, daemon):
        url, _ = daemon
        request = urllib.request.Request(
            url + "/submit", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10) as rsp:
                status = rsp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400
        client = LoadtestClient(url)
        assert client.call("POST", "/submit", {"wrong": 1})[0] == 400


class TestLoadtest:
    def test_32_clients_90_10_zero_dropped(self, daemon, tmp_path):
        # The acceptance criterion: a 32-client storm at a 90/10
        # hit/miss mix, every submit driven to a terminal verdict,
        # cache-hit p99 in the low milliseconds.
        url, service = daemon
        summary = run_loadtest(
            url, clients=32, requests_per_client=4, miss_every=10,
            hit_request={"n": 1},
            miss_requests=[{"n": 100 + i} for i in range(4)],
            deadline_s=60.0, poll_interval_s=0.01,
        )
        assert summary["dropped"] == 0
        assert summary["requests"] == 128
        assert summary["outcomes"] == {"done": 128}
        # Slots 0, 10, ..., 120 are the 13 scheduled misses; the other
        # 115 hammer the warmed hit key.
        hits = summary["stages"]["serve/hit"]
        assert hits["count"] == 115
        assert summary["stages"]["serve/miss"]["count"] == 13
        # The <50ms hit criterion is measured at the service's admission
        # path (the client-side numbers carry the load generator's own
        # 32-thread scheduling overhead and are published, not asserted).
        assert summary["server"]["stages"]["serve/hit"]["p99_ms"] < 50.0
        # Server-side: every hit was absorbed without pool admission.
        counters = service.counters()
        assert counters["hits"] >= hits["count"]
        assert counters.get("rejected_queue_full", 0) == 0
        # The summary is a JSON-ready BENCH stage artifact.
        assert summary["kind"] == "bench"
        json.dumps(summary)


class TestPoolFailures:
    @pytest.mark.parametrize("transport", ["service", "http"])
    def test_quarantines_never_close_admission(self, daemon, transport):
        # Consecutive pool failures (a raising task and an injected
        # worker crash), with a malformed budget submitted between
        # them, quarantine only their own jobs: the next healthy miss
        # is admitted and finishes, and the daemon reports itself ok.
        url, service = daemon
        call = (_direct(service) if transport == "service"
                else LoadtestClient(url).call)
        for request, kind in (({"n": 90, "fail": True}, "exception"),
                              ({"n": CRASH_N}, "crash"),
                              ({"n": 92, "fail": True}, "exception")):
            status, reply, _ = call("POST", "/submit", request)
            assert status == 202
            final = _await_terminal(call, reply["id"])
            assert final["status"] == "quarantined"
            assert final["failure"]["kind"] == kind
            status, _, _ = call("POST", "/submit",
                                {"n": 93, "timeout_s": "soon"})
            assert status == 400

        status, reply, _ = call("POST", "/submit", {"n": 94})
        assert status == 202
        assert _await_terminal(call, reply["id"])["status"] == "done"
        status, health, _ = call("GET", "/health")
        assert status == 200 and health["status"] == "ok"
        assert health["counters"]["quarantined"] == 3
        assert health["counters"]["rejected_bad_request"] == 3


def _direct(service):
    """``LoadtestClient.call`` for the endpoints used here, served by
    the service itself instead of over a socket."""

    def call(method, path, body=None):
        if path == "/submit":
            return service.submit(body)
        if path == "/health":
            return (*service.health(), {})
        return (*service.result(path[len("/result/"):]), {})

    return call


def _await_terminal(call, job_id, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s  # repro: allow(wall-clock) — test deadline
    while time.monotonic() < deadline:  # repro: allow(wall-clock) — test deadline
        status, reply, _ = call("GET", f"/result/{job_id}")
        if status == 200 and reply["status"] in (
                "done", "quarantined", "expired"):
            return reply
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")
