"""Deterministic multithread stress for the service's shared job state.

This is the *dynamic* witness for the invariants the static races
pass (``check --only races``) verifies structurally: every reader
thread is released through a :class:`threading.Barrier` so the
contention is maximal and repeatable, and every observation must be
internally consistent — a single torn read of a settling job fails it.
"""

import threading

from repro.runner import ResultCache, RunJournal
from repro.runner.core import Task
from repro.serve import ServeRequestError, ServiceConfig, SimulationService
from repro.serve.service import JOB_DONE, JOB_QUARANTINED

SETTLE_S = 10.0

THREADS = 8


def _hammer(n_threads, work):
    """Run ``work(i)`` on ``n_threads`` barrier-released threads."""
    barrier = threading.Barrier(n_threads)

    def _runner(i):
        barrier.wait()
        work(i)

    threads = [threading.Thread(target=_runner, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(SETTLE_S)
        assert not thread.is_alive(), "stress thread wedged"


def _toy_fn(n=1, fail=False):
    if fail:
        raise RuntimeError(f"injected failure for n={n}")
    return {"n": n}


def _toy_resolve(request):
    if not isinstance(request, dict) or "n" not in request:
        raise ServeRequestError("request must carry 'n'")
    kwargs = {"n": int(request["n"])}
    if "fail" in request:
        kwargs["fail"] = request["fail"]
    return Task("toy", f"n={kwargs['n']}", _toy_fn, kwargs)


class TestSettleSnapshotConsistency:
    def test_status_never_shows_a_half_settled_job(self, tmp_path):
        # Regression for the _settle fix: status/failure/attempts/
        # finished_at now change together under the service lock, so a
        # concurrent status() reader may see the job pending or settled
        # but never a torn mixture (e.g. quarantined without its
        # failure record).  Reader threads hammer status() while jobs
        # settle; every observation must be internally consistent.
        cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
        service = SimulationService(
            _toy_resolve, cache,
            config=ServiceConfig(workers=2, isolate=False),
            journal=RunJournal(cache.root, cache.fingerprint),
        )
        service.start()
        try:
            jobs = []
            for n in range(12):
                code, body, _ = service.submit({"n": n, "fail": n % 2 == 0})
                assert code == 202
                jobs.append(service.job(body["id"]))

            torn = []

            def observe(i):
                job = jobs[i % len(jobs)]
                while True:
                    settled = job.settled.is_set()
                    _, view = service.status(job.id)
                    if view["status"] == JOB_DONE and "failure" in view:
                        torn.append(("done-with-failure", view))
                    if view["status"] == JOB_QUARANTINED and (
                            "failure" not in view
                            or view["attempts"] < 1):
                        torn.append(("quarantine-without-failure", view))
                    if settled:  # one full read after settling, then stop
                        return

            _hammer(THREADS, observe)
            for job in jobs:
                assert job.settled.wait(SETTLE_S)
            assert torn == []
            statuses = {job.id: job.status for job in jobs}
            assert set(statuses.values()) == {JOB_DONE, JOB_QUARANTINED}
        finally:
            service.drain(1.0)
