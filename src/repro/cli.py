"""The front-end spine: runner flags, set-up and exit codes, declared once.

``python -m repro``, ``python -m repro sweep run`` and ``python -m repro
serve`` all drive the supervised runner (:mod:`repro.runner`); this
module owns what they share, and each front end keeps only its own
verbs and knobs:

- two flag groups: :func:`add_supervision_flags` (every runner front
  end) and :func:`add_batch_flags` (the two one-shot runs);
- :func:`open_session`, which turns parsed flags into the result cache,
  supervision policy, fault plan and journal;
- :meth:`Session.run` and :meth:`Session.report`, which run one batch
  under ``sigterm_interrupts`` and write its metrics, trace and perf
  summary;
- :func:`select`, the ``--only``/``--skip`` selection that
  ``python -m repro check`` uses too.

Exit codes: 0 success, 1 quarantined work or ``--fail-fast``, 2 unusable
flags, 130 interrupted.  Failures leave through :class:`Exit`; each
front end's ``main`` is wrapped in :func:`exits`, which prints its
message and returns its code.  Nothing
under :mod:`repro.runner` imports this module, so it stays out of every
experiment's dependency slice and editing it invalidates no cached
result.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import obs
from repro.faults import FaultPlan, FaultPlanError
from repro.runner import (
    FailFastError,
    ResultCache,
    RunJournal,
    RunMetrics,
    SupervisionPolicy,
    code_fingerprint,
    sigterm_interrupts,
)


class Exit(Exception):
    """End the command: ``str(self)`` goes to stderr, ``code`` is the
    exit status."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def exits(main: Callable[..., int]) -> Callable[..., int]:
    """Wrap a front end's ``main``: an :class:`Exit` raised inside it
    prints its message to stderr and becomes the return code."""

    @functools.wraps(main)
    def wrapper(*args: Any, **kwargs: Any) -> int:
        try:
            return main(*args, **kwargs)
        except Exit as exc:
            print(exc, file=sys.stderr)
            return exc.code

    return wrapper


def csv(value: str | None) -> list[str]:
    return [item.strip() for item in (value or "").split(",") if item.strip()]


def select(names: Iterable[str], only: str | None, skip: str | None, *,
           known: Iterable[str] | None = None,
           what: str = "experiment(s)") -> list[str]:
    """``names`` narrowed by ``--only`` and ``--skip``, in order.

    Every name given, ``names`` included, must be in ``known`` (default
    ``names``): an unknown name is a usage error, not a silent no-op,
    and so is an empty selection."""
    names = list(names)
    known = list(names if known is None else known)
    unknown = sorted((set(names) | set(csv(only)) | set(csv(skip)))
                     - set(known))
    if unknown:
        raise Exit(2, f"unknown {what}: {', '.join(unknown)}\n"
                      f"known: {', '.join(known)}")
    requested = set(names)
    if only:
        requested &= set(csv(only))
    requested -= set(csv(skip))
    selected = [name for name in names if name in requested]
    if not selected:
        raise Exit(2, "selection is empty (check --only/--skip)")
    return selected


def positive_int(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    """Cache, watchdog, retry, fault-injection and resume flags."""
    group = parser.add_argument_group("supervision")
    group.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default .repro-cache, or "
             "$REPRO_CACHE_DIR)",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock limit; a stuck worker is killed, "
             "replaced, and the task retried (default: no limit)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for a crashed/hung/failed task before it "
             "is quarantined (default 1)",
    )
    group.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="LABEL=KIND",
        help="deterministic fault injection for testing: fault tasks "
             "whose label matches LABEL (fnmatch, e.g. 'figure7/*' or "
             "'sweep:figure7/*') with KIND (crash, hang, raise, corrupt), "
             "optionally only the first N attempts (':N'); repeatable, "
             "also read from $REPRO_INJECT",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="pick up the work an interrupted run journaled under the "
             "cache root: completed tasks are served from the cache, "
             "in-flight ones re-run (requires the cache)",
    )


def add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """Worker, cache, metrics, fail-fast and tracing flags of a one-shot
    run."""
    group = parser.add_argument_group("batch run")
    group.add_argument(
        "--jobs", "-j",
        type=positive_int,
        default=1,
        help="worker processes for independent tasks (default 1)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, and do not store results",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write per-task run metrics (wall time, cache status, event "
             "tallies) as JSON",
    )
    group.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the run on the first quarantined task instead of "
             "completing the healthy ones",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing) covering every "
             "modeling layer",
    )
    group.add_argument(
        "--perf-summary",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a per-run perf summary "
             "(wall time, events/sec per stage); default path "
             "artifacts/bench/BENCH_<fingerprint>.json",
    )


@dataclass
class Session:
    """What one front-end invocation hands the runner."""

    args: argparse.Namespace
    cache: ResultCache | None
    policy: SupervisionPolicy
    faults: FaultPlan | None
    journal: RunJournal | None
    spans_from: int | None = None  # obs.mark() while tracing

    @property
    def fingerprint(self) -> str:
        return self.cache.fingerprint if self.cache else code_fingerprint()

    def run(self, call: Callable[..., tuple[Any, RunMetrics]], *positional,
            noun: str) -> tuple[Any, RunMetrics]:
        """``call(*positional, jobs=..., cache=..., ...)`` under
        ``sigterm_interrupts``: ``run_experiments`` or ``run_sweep``.

        Raises :class:`Exit` 130 on Ctrl-C or SIGTERM and 1 on
        ``--fail-fast``; ``noun`` names the work in those messages."""
        args = self.args
        if args.trace is not None or args.perf_summary is not None:
            # Enable before any worker spawns so pooled workers inherit
            # the flag (via $REPRO_TRACE) and their spans ride back with
            # results.
            obs.enable()
            self.spans_from = obs.mark()

        def write_partial(partial: RunMetrics) -> None:
            if args.metrics_out:
                partial.write(args.metrics_out)

        try:
            # SIGTERM takes the KeyboardInterrupt path: live workers are
            # terminated and the journal stays flushed, so a `kill` is as
            # resumable as a Ctrl-C.
            with sigterm_interrupts():
                return call(
                    *positional, jobs=args.jobs, cache=self.cache,
                    policy=self.policy, faults=self.faults,
                    journal=self.journal, resume=args.resume,
                    on_partial=write_partial,
                )
        except KeyboardInterrupt:
            raise Exit(130, f"\ninterrupted — completed {noun} are "
                            "journaled and cached; rerun with --resume to "
                            "pick up where this run stopped") from None
        except FailFastError as exc:
            raise Exit(1, f"fail-fast: {exc}\ncompleted {noun} are "
                          "journaled and cached; rerun with --resume "
                          "after fixing the failure") from None

    def report(self, metrics: RunMetrics) -> None:
        """Print the metrics summary, then write ``--metrics-out``,
        ``--trace`` and ``--perf-summary`` where asked."""
        args = self.args
        print(metrics.render(), file=sys.stderr)
        if args.metrics_out:
            metrics.write(args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        if self.spans_from is None:
            return
        from repro.obs import export as obs_export

        records = obs.since(self.spans_from)
        if args.trace is not None:
            obs_export.write_chrome_trace(args.trace, records)
            print(f"trace written to {args.trace} "
                  f"({len(records)} spans)", file=sys.stderr)
        if args.perf_summary is not None:
            summary = obs_export.perf_summary(
                records, fingerprint=self.fingerprint, jobs=args.jobs,
                wall_s=metrics.wall_s,
            )
            bench_path = (Path(args.perf_summary) if args.perf_summary
                          else obs_export.default_bench_path(self.fingerprint))
            obs_export.write_perf_summary(bench_path, summary)
            print(f"perf summary written to {bench_path}", file=sys.stderr)


def open_session(args: argparse.Namespace) -> Session:
    """The cache, policy, fault plan and journal the flags ask for.

    Reads both flag groups; a front end without the batch group pins
    ``no_cache`` and ``fail_fast`` with ``parser.set_defaults``.
    Unusable flags raise :class:`Exit` 2."""
    if args.resume and args.no_cache:
        raise Exit(2, "--resume needs the result cache (drop --no-cache)")
    try:
        faults = FaultPlan(FaultPlan.parse(args.inject or []).specs
                           + FaultPlan.from_env().specs)
    except FaultPlanError as exc:
        raise Exit(2, f"bad --inject / $REPRO_INJECT: {exc}") from None
    try:
        policy = SupervisionPolicy(
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        raise Exit(2, f"bad supervision flags: {exc}") from None
    cache = None if args.no_cache else ResultCache(args.cache_dir or None)
    journal = RunJournal(cache.root, cache.fingerprint) if cache else None
    return Session(args, cache, policy, faults or None, journal)
