"""Concurrent load generator for the simulation service.

Drives N client threads against a running daemon at a fixed hit/miss
mix and measures what the paper's serving story actually claims: cache
hits absorb traffic (microsecond-class service, so p99 must stay in
the low milliseconds even under concurrency) while the bounded pool
grinds through the misses without dropping anything on the floor.

The schedule is deterministic — request slot ``i`` is a miss exactly
when ``i % miss_every == 0`` and miss configs cycle through a fixed
pool — so two loadtest runs against equal daemons issue identical
request streams (no RNG anywhere).  Every submit is driven to a
*terminal* verdict: enqueued jobs are polled to completion, 429/503
refusals honour ``Retry-After`` and retry, and only a request that
still has no verdict when the global deadline expires counts as
``dropped`` — the number the acceptance criterion pins at zero.

The result is a BENCH-style stage summary (``serve/hit`` /
``serve/miss`` with p50/p99 latencies) published next to the simulator
benchmarks, so the throughput claim is measured, not asserted.
``scripts/loadtest.py`` is the CLI wrapper.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any

#: Default design point the hit traffic hammers: the CI micro-sweep's
#: base configuration, so a warmed CI daemon serves it from cache.
DEFAULT_HIT_REQUEST: dict[str, Any] = {
    "base": "figure7",
    "config": {
        "line_bytes": 256, "num_banks": 4, "benchmark": "126.gcc",
        "trace_len": 4000, "instructions": 800,
    },
}


def default_miss_requests(count: int = 4) -> list[dict[str, Any]]:
    """A deterministic pool of distinct cache-missing design points
    (unique ``trace_len`` values keep them off every warmed key)."""
    requests = []
    for index in range(count):
        config = dict(DEFAULT_HIT_REQUEST["config"])
        config["trace_len"] = 4100 + 20 * index
        requests.append({"base": "figure7", "config": config})
    return requests


@dataclass
class _Tally:
    """One client thread's observations (merged after the join)."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    outcomes: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    dropped: int = 0

    def lat(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def outcome(self, status: str) -> None:
        self.outcomes[status] = self.outcomes.get(status, 0) + 1


class LoadtestClient:
    """Blocking JSON-over-HTTP client for one daemon."""

    def __init__(self, url: str, timeout_s: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    #: Synthetic status for a transport-level failure (connection reset,
    #: refused, timed out): retryable, like a 429/503, never a verdict.
    TRANSPORT_ERROR = 599

    def call(self, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict, dict]:
        """``(status, body, headers)``; HTTP errors are data, not
        exceptions (4xx/5xx replies carry JSON we need), and transport
        failures come back as the retryable :data:`TRANSPORT_ERROR`."""
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as rsp:
                return rsp.status, json.loads(rsp.read() or b"{}"), dict(rsp.headers)
        except urllib.error.HTTPError as exc:
            payload = exc.read() or b"{}"
            try:
                parsed = json.loads(payload)
            except json.JSONDecodeError:
                parsed = {"error": payload.decode(errors="replace")}
            return exc.code, parsed, dict(exc.headers or {})
        except OSError as exc:  # URLError, resets, refusals, timeouts
            return self.TRANSPORT_ERROR, {
                "error": f"transport: {exc}", "retry_after_s": 0.05,
            }, {}

    def submit_and_settle(self, body: dict, deadline: float,
                          tally: _Tally, kind: str,
                          poll_interval_s: float) -> None:
        """Drive one request to a terminal verdict (or count it dropped)."""
        t0 = time.perf_counter()  # repro: allow(wall-clock) — client-side latency measurement
        job_id = None
        while time.perf_counter() < deadline:  # repro: allow(wall-clock) — loadtest deadline
            status, reply, headers = self.call("POST", "/submit", body)
            if status in (200, 202):
                job_id = reply["id"]
                if reply.get("status") in ("done", "quarantined", "expired"):
                    tally.lat(kind, time.perf_counter() - t0)  # repro: allow(wall-clock) — client-side latency measurement
                    tally.outcome(reply["status"])
                    return
                break  # enqueued or coalesced: poll below
            if status in (429, 503, self.TRANSPORT_ERROR):
                tally.retries += 1
                retry_after = float(reply.get("retry_after_s")
                                    or headers.get("Retry-After") or 0.2)
                time.sleep(min(max(retry_after, 0.05), 2.0))
                continue
            # 400 and friends are terminal verdicts too.
            tally.outcome(f"http_{status}")
            return
        if job_id is None:
            tally.dropped += 1
            return
        while time.perf_counter() < deadline:  # repro: allow(wall-clock) — loadtest deadline
            status, reply, _ = self.call("GET", f"/result/{job_id}")
            if status == 200 and reply.get("status") in (
                    "done", "quarantined", "expired"):
                tally.lat(kind, time.perf_counter() - t0)  # repro: allow(wall-clock) — client-side latency measurement
                tally.outcome(reply["status"])
                return
            time.sleep(poll_interval_s)
        tally.dropped += 1


def run_loadtest(
    url: str,
    *,
    clients: int = 32,
    requests_per_client: int = 8,
    miss_every: int = 10,  # slot i misses when i % miss_every == 0 (90/10)
    hit_request: dict | None = None,
    miss_requests: list[dict] | None = None,
    deadline_s: float = 120.0,
    poll_interval_s: float = 0.05,
    warm: bool = True,
) -> dict:
    """Run the storm and return the BENCH-style summary dict."""
    hit_request = hit_request or DEFAULT_HIT_REQUEST
    miss_requests = miss_requests or default_miss_requests()
    deadline = time.perf_counter() + deadline_s  # repro: allow(wall-clock) — loadtest deadline

    if warm:
        warmer = LoadtestClient(url)
        warm_tally = _Tally()
        warmer.submit_and_settle(hit_request, deadline, warm_tally,
                                 "warm", poll_interval_s)
        if warm_tally.dropped:
            raise RuntimeError(f"warmup never settled against {url}")

    tallies = [_Tally() for _ in range(clients)]

    def client_loop(index: int) -> None:
        # A fresh client per thread, not a shared closure variable: the
        # races pass follows calls on locals it saw constructed.
        client = LoadtestClient(url)
        tally = tallies[index]
        for local in range(requests_per_client):
            slot = index * requests_per_client + local
            if slot % miss_every == 0:
                body = miss_requests[(slot // miss_every) % len(miss_requests)]
                kind = "miss"
            else:
                body = hit_request
                kind = "hit"
            client.submit_and_settle(body, deadline, tally, kind,
                                     poll_interval_s)

    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(clients)
    ]
    started = time.perf_counter()  # repro: allow(wall-clock) — loadtest wall time
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=deadline_s + 5.0)
    wall_s = time.perf_counter() - started  # repro: allow(wall-clock) — loadtest wall time

    merged_lat: dict[str, list[float]] = {}
    outcomes: dict[str, int] = {}
    retries = 0
    dropped = 0
    for tally in tallies:
        for kind, values in tally.latencies.items():
            merged_lat.setdefault(kind, []).extend(values)
        for status, count in tally.outcomes.items():
            outcomes[status] = outcomes.get(status, 0) + count
        retries += tally.retries
        dropped += tally.dropped

    stages = {}
    for kind, values in sorted(merged_lat.items()):
        ordered = sorted(values)
        stages[f"serve/{kind}"] = {
            "count": len(ordered),
            "wall_s": sum(ordered),
            "p50_ms": _percentile_ms(ordered, 0.50),
            "p99_ms": _percentile_ms(ordered, 0.99),
            "max_ms": round(ordered[-1] * 1000.0, 3) if ordered else 0.0,
        }
    # The daemon's own stage rollup: hit-path latency measured at the
    # admission path, free of this load generator's thread-scheduling
    # overhead (32 client threads share one interpreter, which adds a
    # flat tens-of-ms offset to every client-side sample).
    status, server_summary, _ = LoadtestClient(url).call(
        "GET", "/metrics")
    total = clients * requests_per_client
    return {
        "schema": 1,
        "kind": "bench",
        "subsystem": "loadtest",
        "url": url,
        "clients": clients,
        "requests": total,
        "miss_every": miss_every,
        "wall_s": round(wall_s, 3),
        "requests_per_sec": round(total / wall_s, 3) if wall_s > 0 else 0.0,
        "dropped": dropped,
        "retries": retries,
        "outcomes": dict(sorted(outcomes.items())),
        "stages": stages,
        "server": server_summary if status == 200 else {},
    }


def _percentile_ms(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return round(ordered[index] * 1000.0, 3)
