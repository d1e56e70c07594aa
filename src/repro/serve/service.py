"""The resilient simulation service behind ``python -m repro serve``.

:class:`SimulationService` turns the one-shot supervised runner into a
long-running daemon with a **layered admission path** — each layer
exists to keep the layer behind it healthy:

1. **collapse** — a submitted config is keyed exactly like a runner
   task (call id + canonical kwargs + slice fingerprint, see
   :mod:`repro.runner.cache`), so identical configs collapse onto one
   in-flight job, and onto a content-addressed cache hit when any
   previous run — CLI, sweep, or service — already computed it.  Hits
   answer immediately without touching the pool: this is the path that
   absorbs high-traffic request storms.
2. **backpressure** — cache misses enter a bounded queue.  A full
   queue refuses with HTTP 429 + ``Retry-After`` (estimated drain
   time), so no more than ``queue_depth`` jobs ever wait on the pool.
3. **deadlines + drain** — a request's ``timeout_s`` budget flows into
   the attempt watchdog (``SupervisionPolicy.task_timeout``), queue
   wait included, so a request cannot outlive its caller's interest.
   On SIGTERM the service drains: admissions stop, in-flight work gets
   a bounded grace period, and everything still unfinished remains
   journaled ``submitted`` so a restarted daemon ``--resume``\\ s it.

A failing pool needs no layer of its own: the supervised runner
retries each crashed, hung or corrupt attempt and quarantines the task
once its retries run out, so every admitted job settles (DESIGN.md §8).

Every admitted job is journaled (:mod:`repro.runner.journal`) the
moment it is accepted and again when it settles, using the same
fingerprint-keyed journal the CLI's ``--resume`` reads.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.faults import FaultPlan
from repro.runner.cache import ResultCache, canonical_kwargs
from repro.runner.core import Task, _execute
from repro.runner.journal import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    STATUS_SUBMITTED,
    RunJournal,
)
from repro.runner.resilience import SupervisionPolicy, supervised_map

# Job lifecycle states (terminal: done, quarantined, expired).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_QUARANTINED = "quarantined"
JOB_EXPIRED = "expired"

TERMINAL_STATES = frozenset({JOB_DONE, JOB_QUARANTINED, JOB_EXPIRED})

#: Latency samples kept per request kind for the service percentiles.
_MAX_SAMPLES = 65536


class ServeRequestError(ValueError):
    """A submitted request body that cannot be resolved to a task."""


@dataclass
class Job:
    """One admitted unit of work (or one served cache hit)."""

    id: str
    key: str
    task: Task
    request: dict[str, Any]
    status: str = JOB_QUEUED
    source: str = "pool"  # "cache" | "pool"
    result: Any = None
    failure: dict[str, Any] | None = None
    submitted_at: float = 0.0  # service clock (monotonic)
    finished_at: float = 0.0
    deadline: float | None = None  # service-clock instant, None = no budget
    attempts: int = 0
    coalesced: int = 0  # extra submits collapsed onto this job
    settled: threading.Event = field(default_factory=threading.Event)

    def public(self, queue_depth: int | None = None) -> dict[str, Any]:
        """JSON-ready status view (no result payload)."""
        view: dict[str, Any] = {
            "id": self.id,
            "label": self.task.label,
            "status": self.status,
            "source": self.source,
            "coalesced": self.coalesced,
            "attempts": self.attempts,
        }
        if self.failure is not None:
            view["failure"] = self.failure
        if queue_depth is not None:
            view["queue_depth"] = queue_depth
        return view


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policy knobs (see ``python -m repro serve --help``)."""

    queue_depth: int = 64
    workers: int = 2
    task_timeout: float | None = None  # default per-attempt watchdog
    max_retries: int = 1
    isolate: bool = True  # process-per-attempt (False: inline, for tests)
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # The batch CLIs' bounds, checked here rather than per job: a
        # bad value would otherwise quarantine every miss.
        SupervisionPolicy(task_timeout=self.task_timeout,
                          max_retries=self.max_retries)


class SimulationService:
    """Admission control + supervised execution behind the HTTP layer.

    ``resolve`` maps a request body (a dict) to a
    :class:`~repro.runner.core.Task`; the default resolver
    (:func:`repro.serve.api.resolve_request`) understands registry
    experiments and sweep base points.  Tests inject toy resolvers.
    """

    def __init__(
        self,
        resolve: Callable[[dict], Task],
        cache: ResultCache,
        *,
        config: ServiceConfig | None = None,
        journal: RunJournal | None = None,
        faults: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,  # repro: allow(wall-clock) — service pacing, injectable for tests
    ) -> None:
        self.resolve = resolve
        self.cache = cache
        self.config = config or ServiceConfig()
        self.journal = journal
        self.faults = faults
        self._clock = clock
        # Reentrant: counter/sample helpers are called both inside and
        # outside admission's critical section.
        self._lock = threading.RLock()
        self._queue: deque[Job] = deque()
        self._have_work = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}  # job id -> job (terminal kept)
        self._inflight: dict[str, Job] = {}  # cache key -> queued/running job
        self._workers: list[threading.Thread] = []
        self._draining = False
        self._stopped = False
        self._started_at = clock()
        self._counters: dict[str, int] = {}
        self._samples: dict[str, deque] = {}  # kind -> recent latencies (s)
        if self.journal is not None:
            self.journal.begin(resume=True)  # never truncate live history

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def drain(self, grace_s: float | None = None) -> dict[str, int]:
        """Stop admissions, give in-flight work a bounded grace period,
        then stop the workers.

        Returns ``{"settled": n, "abandoned": m}``.  Abandoned jobs
        (still queued or running when the grace expires) keep their
        journaled ``submitted`` records, so a restarted daemon with
        ``--resume`` re-enqueues exactly those.
        """
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        with self._lock:
            self._draining = True
            self._have_work.notify_all()
        deadline = self._clock() + grace
        while self._clock() < deadline:
            with self._lock:
                if not self._queue and not any(
                    job.status == JOB_RUNNING for job in self._inflight.values()
                ):
                    break
            time.sleep(0.05)
        with self._lock:
            self._stopped = True
            self._have_work.notify_all()
        for thread in self._workers:
            thread.join(timeout=1.0)
        with self._lock:
            # Count after the join: a worker finishing its last job while
            # we stop has *settled* that job, not abandoned it (settling
            # removes it from the in-flight table).
            abandoned = len(self._inflight)
            settled = sum(
                1 for job in self._jobs.values()
                if job.status in TERMINAL_STATES
            )
        return {"settled": settled, "abandoned": abandoned}

    def resume_pending(self) -> int:
        """Re-enqueue requests journaled ``submitted`` but never settled
        (the daemon was killed mid-flight).  Returns how many."""
        if self.journal is None:
            return 0
        count = 0
        for record in self.journal.pending():
            request = record.get("request")
            if not isinstance(request, dict):
                continue
            status, _, _ = self.submit(request)
            if status in (200, 202):
                count += 1
                self._count("resumed")
        return count

    # -- admission --------------------------------------------------------

    def submit(self, request: dict) -> tuple[int, dict, dict[str, str]]:
        """The layered admission path.

        Returns ``(http_status, body, extra_headers)``.  Every accepted
        submit — hit, coalesced, or enqueued — lands in the job table,
        so every request id can be polled to a terminal status.
        """
        t0 = time.perf_counter_ns()  # repro: allow(wall-clock) — request latency measurement
        try:
            task = self.resolve(request)
            budget = _budget(request)
        except ServeRequestError as exc:
            self._count("rejected_bad_request")
            return 400, {"error": str(exc)}, {}
        key = self.cache.key(task.call_id(), task.kwargs,
                             entry=task.entry_point())
        job_id = key[:16]

        # Layer 1a: collapse onto an identical in-flight job.
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.coalesced += 1
                self._count("coalesced")
                self._emit_span("serve/coalesced", t0)
                return 200, inflight.public(len(self._queue)), {}

        # Layer 1b: content-addressed cache hit — answer without the pool.
        entry = self.cache.load(key)
        if entry is not None:
            job = Job(id=job_id, key=key, task=task, request=dict(request),
                      status=JOB_DONE, source="cache", result=entry.result,
                      submitted_at=self._clock())
            job.finished_at = job.submitted_at
            job.settled.set()
            with self._lock:
                # A terminal predecessor (e.g. the pool job that produced
                # this entry) is superseded: this submit was answered from
                # the cache, and the job table should say so.
                known = self._jobs.get(job_id)
                if known is not None and known.status in TERMINAL_STATES:
                    job.coalesced = known.coalesced + 1
                self._jobs[job_id] = job
            self._count("hits")
            self._record_latency("hit", t0)
            self._emit_span("serve/hit", t0)
            return 200, job.public(), {}

        with self._lock:
            # Drain/stop: no new pool work, hits above still served.
            if self._draining or self._stopped:
                self._count("rejected_draining")
                return 503, {"error": "service is draining"}, {"Retry-After": "30"}

            # Layer 2: bounded queue backpressure.
            if len(self._queue) >= self.config.queue_depth:
                self._count("rejected_queue_full")
                retry_after = self._drain_estimate_locked()
                return 429, {
                    "error": "work queue is full",
                    "queue_depth": len(self._queue),
                    "retry_after_s": round(retry_after, 3),
                }, {"Retry-After": str(max(1, round(retry_after)))}

            # Admitted.  Layer 3: capture the deadline budget.
            job = Job(id=job_id, key=key, task=task, request=dict(request),
                      submitted_at=self._clock())
            if budget is not None:
                job.deadline = job.submitted_at + budget
            self._jobs[job_id] = job
            self._inflight[key] = job
            # Journal the admission before a worker can pop the job, so
            # the journal never shows a settle before its submit.
            if self.journal is not None:
                self.journal.record(job.task.label, status=STATUS_SUBMITTED,
                                    key=key, extra={"request": dict(request)})
            self._queue.append(job)
            self._have_work.notify()
            # Capture the public view before leaving the lock: the job
            # is published now, and a worker may already be settling it.
            body = job.public(len(self._queue))

        self._count("enqueued")
        self._emit_span("serve/enqueued", t0)
        return 202, body, {}

    # -- queries ----------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> tuple[int, dict]:
        # The snapshot (public view + queue depth) is taken in one lock
        # scope: a worker settling this job concurrently must not tear
        # the status/failure/attempts triple mid-read.
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            return 200, job.public(len(self._queue))

    def result(self, job_id: str) -> tuple[int, dict]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            status = job.status
            body = job.public()
            result = job.result
        if status not in TERMINAL_STATES:
            return 202, body
        if status == JOB_DONE:
            # Serialization can import and render; keep it off the lock.
            body["result"] = _jsonable(result)
        return 200, body

    def health(self) -> tuple[int, dict]:
        with self._lock:
            depth = len(self._queue)
            running = sum(1 for job in self._inflight.values()
                          if job.status == JOB_RUNNING)
            draining = self._draining
        return 200, {
            "status": "draining" if draining else "ok",
            "uptime_s": round(self._clock() - self._started_at, 3),
            "queue": {"depth": depth, "capacity": self.config.queue_depth},
            "running": running,
            "workers": self.config.workers,
            "counters": self.counters(),
            "fingerprint": self.cache.fingerprint,
        }

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    def service_summary(self) -> dict:
        """BENCH-style stage rollup of what this service instance served
        (the daemon writes it on shutdown; the loadtest publishes its
        client-side twin)."""
        with self._lock:
            stages = {}
            for kind, samples in self._samples.items():
                ordered = sorted(samples)
                wall = sum(ordered)
                stages[f"serve/{kind}"] = {
                    "count": len(ordered),
                    "wall_s": wall,
                    "p50_ms": _percentile_ms(ordered, 0.50),
                    "p99_ms": _percentile_ms(ordered, 0.99),
                }
            counters = dict(sorted(self._counters.items()))
        return {
            "schema": 1,
            "kind": "bench",
            "subsystem": "serve",
            "fingerprint": self.cache.fingerprint,
            "counters": counters,
            "stages": stages,
        }

    # -- execution --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._have_work.wait()
                if self._stopped:
                    return
                job = self._queue.popleft()
                job.status = JOB_RUNNING
            try:
                self._execute_job(job)
            except BaseException as exc:  # repro: allow(broad-except) — a worker thread must survive anything; the job is settled as quarantined
                # The failure dict omits "attempts": _settle fills it
                # from the job under the lock.
                self._settle(job, JOB_QUARANTINED, failure={
                    "label": job.task.label, "kind": "exception",
                    "error_type": type(exc).__name__, "message": str(exc),
                    "worker": os.getpid(),
                })

    def _execute_job(self, job: Job) -> None:
        t0 = time.perf_counter_ns()  # repro: allow(wall-clock) — request latency measurement
        # Layer 3: the remaining deadline budget bounds the watchdog.
        timeout = self.config.task_timeout
        if job.deadline is not None:
            remaining = job.deadline - self._clock()
            if remaining <= 0:
                self._settle(job, JOB_EXPIRED, failure={
                    "label": job.task.label, "kind": "deadline",
                    "error_type": "DeadlineExceeded",
                    "message": "deadline expired while queued",
                    "worker": os.getpid(),
                }, attempts=0)
                return
            timeout = remaining if timeout is None else min(timeout, remaining)
        policy = SupervisionPolicy(
            task_timeout=timeout, max_retries=self.config.max_retries,
        )
        # jobs=2 forces the pooled (process-per-attempt) path even for a
        # single task, so a crash or hang kills a child, never the daemon;
        # inline mode (isolate=False, tests only) shares this process.
        [outcome] = supervised_map(
            _execute, [job.task], labels=[job.task.label],
            jobs=2 if self.config.isolate else 1,
            policy=policy, faults=self.faults,
        )
        if outcome.ok:
            result, wall, tallies, worker = outcome.result
            digest, kind = self.cache.fingerprint_for(job.task.entry_point())
            self.cache.store(job.key, result, {
                "call_id": job.task.call_id(),
                "kwargs": canonical_kwargs(job.task.kwargs),
                "fingerprint": digest,
                "fingerprint_kind": kind,
                "wall_s": wall,
                "tallies": tallies,
            })
            self._settle(job, JOB_DONE, result=result,
                         attempts=outcome.attempts)
        else:
            failure = outcome.failure
            assert failure is not None
            self._settle(job, JOB_QUARANTINED, failure=failure.to_json(),
                         attempts=outcome.attempts)
        self._record_latency("miss", t0)
        self._emit_span(f"serve/execute/{job.task.label}", t0)

    def _settle(self, job: Job, status: str, failure: dict | None = None,
                result: Any = None, attempts: int | None = None) -> None:
        """Publish a job's terminal state.

        Every Job field write happens under the service lock — handler
        threads, other workers, and drain read these fields concurrently
        (``check --only races`` verifies the guard) — while the journal,
        which takes its own lock, is written outside it so the
        acquisition order stays acyclic.  ``settled``
        fires last, once the terminal state is visible.
        """
        with self._lock:
            if attempts is not None:
                job.attempts = attempts
            if failure is not None:
                failure.setdefault("attempts", job.attempts)
            job.status = status
            job.failure = failure
            job.result = result
            job.finished_at = self._clock()
            self._inflight.pop(job.key, None)
            journal_attempts = max(1, job.attempts)
        if self.journal is not None:
            journal_status = (STATUS_DONE if status == JOB_DONE
                              else STATUS_QUARANTINED)
            self.journal.record(job.task.label, status=journal_status,
                                key=job.key, attempts=journal_attempts)
        if status == JOB_DONE:
            self._count("completed")
        elif status == JOB_QUARANTINED:
            self._count("quarantined")
        else:
            self._count("expired")
        job.settled.set()

    # -- bookkeeping ------------------------------------------------------

    def _drain_estimate_locked(self) -> float:
        """Rough Retry-After for a full queue: assume each queued job
        costs about the recent mean miss latency on one worker."""
        samples = self._samples.get("miss")
        mean = (sum(samples) / len(samples)) if samples else 1.0
        return max(1.0, len(self._queue) * mean / self.config.workers)

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def _record_latency(self, kind: str, start_ns: int) -> None:
        elapsed = (time.perf_counter_ns() - start_ns) / 1e9  # repro: allow(wall-clock) — request latency measurement
        with self._lock:
            samples = self._samples.setdefault(
                kind, deque(maxlen=_MAX_SAMPLES))
            samples.append(elapsed)

    def _emit_span(self, name: str, start_ns: int) -> None:
        """One span per request decision/execution.

        The tracer is single-threaded by design, so service threads
        never open live spans; they construct the closed record and
        absorb it (an atomic append) instead.
        """
        if not obs.enabled():
            return
        end_ns = time.perf_counter_ns()  # repro: allow(wall-clock) — observability timestamps
        obs.absorb([obs.SpanRecord(
            name=name, start_ns=start_ns, dur_ns=end_ns - start_ns,
            pid=os.getpid(), depth=0,
        )])


def _budget(request: dict) -> float | None:
    """The request's ``timeout_s`` deadline budget in seconds (None: no
    budget), or :class:`ServeRequestError` when it is not a positive
    number."""
    timeout_s = request.get("timeout_s")
    if timeout_s is None:
        return None
    try:
        budget = float(timeout_s)
    except (TypeError, ValueError):
        raise ServeRequestError(f"bad timeout_s: {timeout_s!r}") from None
    if not budget > 0:
        raise ServeRequestError(f"timeout_s must be > 0, got {budget}")
    return budget


def _jsonable(value: Any) -> Any:
    """A JSON-safe view of a result: verbatim when it already serializes,
    else the runner's rendered text plus ``repr``."""
    import json

    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        pass
    rendered: dict[str, Any] = {"repr": repr(value)}
    try:
        from repro.analysis.docs import render_result

        rendered["rendered"] = render_result(value)
    except Exception:  # repro: allow(broad-except) — rendering is best-effort; repr is always available
        pass
    return rendered


def _percentile_ms(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return round(ordered[index] * 1000.0, 3)
