"""SimulationService admission path, end to end without sockets.

Everything runs inline (``isolate=False``) with real worker threads
over a toy resolver, so the tests exercise the real queue, journal,
cache, and supervision wiring at thread speed.
"""

import time

import pytest

from repro.runner import ResultCache, RunJournal
from repro.runner.core import Task
from repro.serve import ServeRequestError, ServiceConfig, SimulationService
from repro.serve.service import JOB_DONE, JOB_EXPIRED

SETTLE_S = 10.0  # generous per-event wait; tests finish in milliseconds


def _toy_fn(n=1, delay_s=0.0, fail=False):
    if fail:
        raise RuntimeError(f"injected failure for n={n}")
    if delay_s:
        time.sleep(delay_s)
    return {"n": n, "double": 2 * n}


def _toy_resolve(request):
    if not isinstance(request, dict) or "n" not in request:
        raise ServeRequestError("request must carry 'n'")
    kwargs = {"n": int(request["n"])}
    for key in ("delay_s", "fail"):
        if key in request:
            kwargs[key] = request[key]
    return Task("toy", f"n={kwargs['n']}", _toy_fn, kwargs)


def _service(tmp_path, *, journal=True, **over):
    cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    over.setdefault("workers", 1)
    over.setdefault("isolate", False)
    config = ServiceConfig(**over)
    service = SimulationService(
        _toy_resolve, cache, config=config,
        journal=RunJournal(cache.root, cache.fingerprint) if journal
        else None,
    )
    service.start()
    return service


def _settle(service, body):
    """The settled Job for the submit reply ``body``."""
    job = service.job(body["id"])
    assert job is not None
    assert job.settled.wait(SETTLE_S), f"job {body['id']} never settled"
    return job


class TestSubmitBasics:
    def test_miss_then_result(self, tmp_path):
        service = _service(tmp_path)
        try:
            status, body, _ = service.submit({"n": 3})
            assert status == 202 and body["id"]
            job = _settle(service, body)
            assert job.status == JOB_DONE
            status, reply = service.result(body["id"])
            assert status == 200
            assert reply["result"] == {"n": 3, "double": 6}
        finally:
            service.drain(0.5)

    def test_second_submit_is_a_cache_hit(self, tmp_path):
        service = _service(tmp_path)
        try:
            _, body, _ = service.submit({"n": 4})
            _settle(service, body)
            status, reply, _ = service.submit({"n": 4})
            assert status == 200
            assert reply["status"] == "done" and reply["source"] == "cache"
            assert service.counters()["hits"] == 1
        finally:
            service.drain(0.5)

    def test_cache_hits_cross_service_instances(self, tmp_path):
        # Anything a previous run computed — CLI, sweep, or another
        # daemon over the same cache — answers without the pool.
        first = _service(tmp_path)
        try:
            _, body, _ = first.submit({"n": 5})
            _settle(first, body)
        finally:
            first.drain(0.5)
        second = _service(tmp_path)
        try:
            status, reply, _ = second.submit({"n": 5})
            assert status == 200 and reply["source"] == "cache"
            assert second.counters() == {"hits": 1}
        finally:
            second.drain(0.5)

    def test_bad_request_is_400(self, tmp_path):
        service = _service(tmp_path)
        try:
            status, body, _ = service.submit({"nope": 1})
            assert status == 400 and "error" in body
            status, body, _ = service.submit({"n": 1, "timeout_s": "soon"})
            assert status == 400
            status, body, _ = service.submit({"n": 1, "timeout_s": 0})
            assert status == 400
        finally:
            service.drain(0.5)

    @pytest.mark.parametrize("timeout_s", ["soon", 0, -1])
    @pytest.mark.parametrize("path", ["hit", "coalesced", "miss"])
    def test_bad_timeout_is_400_on_every_path(self, tmp_path, path,
                                              timeout_s):
        # The budget is validated before collapse and the cache lookup,
        # so a hit or a coalesced submit cannot smuggle a bad one past.
        service = _service(tmp_path)
        try:
            request = {"n": 4, "delay_s": 0.3}
            if path == "hit":
                _settle(service, service.submit(request)[1])
            elif path == "coalesced":
                assert service.submit(request)[0] == 202
            before = service.counters()
            status, body, _ = service.submit({**request,
                                              "timeout_s": timeout_s})
            assert status == 400 and "timeout_s" in body["error"]
            after = service.counters()
            assert after.pop("rejected_bad_request") == 1
            assert after == before
        finally:
            service.drain(1.0)

    def test_unknown_job_is_404(self, tmp_path):
        service = _service(tmp_path)
        try:
            assert service.status("missing")[0] == 404
            assert service.result("missing")[0] == 404
        finally:
            service.drain(0.5)


class TestCoalescing:
    def test_identical_inflight_submits_collapse(self, tmp_path):
        service = _service(tmp_path)
        try:
            _, body, _ = service.submit({"n": 7, "delay_s": 0.3})
            status, dup, _ = service.submit({"n": 7, "delay_s": 0.3})
            assert status == 200
            assert dup["id"] == body["id"]
            assert dup["coalesced"] == 1
            assert service.counters()["coalesced"] == 1
            job = _settle(service, body)
            assert job.status == JOB_DONE  # one execution served both
            assert service.counters()["completed"] == 1
        finally:
            service.drain(1.0)


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        service = _service(tmp_path, queue_depth=1, workers=1)
        try:
            _, blocker, _ = service.submit({"n": 1, "delay_s": 0.4})
            # Wait until the worker picked the blocker up, so the next
            # submit deterministically occupies the queue's single slot.
            deadline = time.monotonic() + SETTLE_S  # repro: allow(wall-clock) — test deadline
            while service.job(blocker["id"]).status == "queued":
                assert time.monotonic() < deadline  # repro: allow(wall-clock) — test deadline
                time.sleep(0.005)
            status, queued, _ = service.submit({"n": 2})
            assert status == 202
            status, body, headers = service.submit({"n": 3})
            assert status == 429
            assert body["queue_depth"] == 1
            assert float(headers["Retry-After"]) >= 1
            # The refused work was never admitted anywhere.
            assert service.counters()["rejected_queue_full"] == 1
            _settle(service, blocker)
            _settle(service, queued)
        finally:
            service.drain(1.0)


class TestDeadlines:
    def test_budget_expires_while_queued(self, tmp_path):
        service = _service(tmp_path, workers=1)
        try:
            _, blocker, _ = service.submit({"n": 1, "delay_s": 0.4})
            status, body, _ = service.submit({"n": 2, "timeout_s": 0.01})
            assert status == 202
            job = _settle(service, body)
            assert job.status == JOB_EXPIRED
            assert job.failure["error_type"] == "DeadlineExceeded"
            assert service.counters()["expired"] == 1
            _settle(service, blocker)
        finally:
            service.drain(1.0)


class TestDrainAndResume:
    def test_drain_journals_unfinished_work_for_resume(self, tmp_path):
        service = _service(tmp_path, workers=1)
        _, running, _ = service.submit({"n": 1, "delay_s": 0.3})
        _, queued, _ = service.submit({"n": 2, "delay_s": 0.3})
        drained = service.drain(0.0)  # no grace: abandon everything live
        assert drained["abandoned"] >= 1

        # Draining admits nothing new.
        status, _, _ = service.submit({"n": 3})
        assert status == 503

        # A fresh daemon over the same cache resumes exactly the
        # abandoned requests.
        revived = _service(tmp_path, workers=1)
        try:
            resumed = revived.resume_pending()
            assert resumed == drained["abandoned"]
            deadline = time.monotonic() + SETTLE_S  # repro: allow(wall-clock) — test deadline
            while len(revived.journal.pending()) > 0:
                assert time.monotonic() < deadline  # repro: allow(wall-clock) — test deadline
                time.sleep(0.01)
            assert revived.counters()["resumed"] == resumed
            # Both requests are now terminally done and cached.
            for n in (1, 2):
                status, reply, _ = revived.submit({"n": n, "delay_s": 0.3})
                assert status == 200 and reply["source"] == "cache"
        finally:
            revived.drain(1.0)

    def test_resume_with_clean_journal_is_a_noop(self, tmp_path):
        service = _service(tmp_path)
        try:
            _, body, _ = service.submit({"n": 9})
            _settle(service, body)
            assert service.journal.pending() == []
            assert service.resume_pending() == 0
        finally:
            service.drain(1.0)


class TestObservability:
    def test_summary_is_bench_shaped(self, tmp_path):
        service = _service(tmp_path)
        try:
            _, body, _ = service.submit({"n": 11})
            _settle(service, body)
            service.submit({"n": 11})  # hit
            summary = service.service_summary()
            assert summary["schema"] == 1 and summary["kind"] == "bench"
            assert summary["subsystem"] == "serve"
            for stage in ("serve/hit", "serve/miss"):
                assert summary["stages"][stage]["count"] == 1
                assert summary["stages"][stage]["p99_ms"] >= 0
            assert summary["counters"]["completed"] == 1
        finally:
            service.drain(1.0)

    def test_health_shape(self, tmp_path):
        service = _service(tmp_path)
        try:
            status, body = service.health()
            assert status == 200 and body["status"] == "ok"
            assert body["queue"] == {"depth": 0, "capacity": 64}
            assert body["fingerprint"] == "f" * 64
        finally:
            service.drain(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)

    def test_config_rejects_what_the_batch_clis_reject(self):
        # Otherwise the bad policy surfaces per job: every miss is
        # quarantined as an exception.
        with pytest.raises(ValueError, match="task_timeout"):
            ServiceConfig(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ServiceConfig(max_retries=-1)
