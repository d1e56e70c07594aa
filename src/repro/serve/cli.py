"""``python -m repro serve`` — run the resilient simulation daemon.

    python -m repro serve --port 8321
    python -m repro serve --port 8321 --workers 4 --queue-depth 128
    python -m repro serve --port 0 --ready-file /tmp/addr  # ephemeral port

Shutdown contract: SIGTERM and SIGINT both *drain* — admissions stop
(503), in-flight work gets ``--drain-grace`` seconds to settle, and
whatever is still unfinished stays journaled ``submitted`` under the
cache root, so the next ``serve --resume`` re-enqueues exactly that
work.  ``--summary-out`` writes the BENCH-style service summary
(hit/miss latency percentiles, admission counters) on the way down.

The supervision flags (``--cache-dir``, ``--task-timeout``,
``--max-retries``, ``--inject``, ``--resume``) are the batch CLI's,
declared and validated once in :mod:`repro.cli`.  ``--inject`` fault
plans match job labels (e.g. ``'sweep:figure7/*=crash:2'``), which is
how the CI smoke proves that crashed jobs are quarantined while the
daemon keeps admitting and finishing healthy work.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

from repro import cli
from repro.serve.api import resolve_request
from repro.serve.http import make_server
from repro.serve.service import ServiceConfig, SimulationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="HTTP+JSON simulation service over the supervised runner.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="TCP port (0 picks a free one; see --ready-file)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool dispatcher threads (concurrent tasks)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="bounded work queue; beyond it submits get 429")
    parser.add_argument("--drain-grace", type=float, default=10.0,
                        metavar="SECONDS",
                        help="how long SIGTERM waits for in-flight work")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write 'host port' once the socket is listening")
    parser.add_argument("--summary-out", default=None, metavar="PATH",
                        help="write the BENCH-style service summary JSON on "
                             "shutdown")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    cli.add_supervision_flags(parser)
    # A daemon always caches and never aborts on a quarantine; its
    # watchdog defaults on (request timeout_s budgets tighten it).
    parser.set_defaults(task_timeout=120.0, no_cache=False, fail_fast=False)
    return parser


@cli.exits
def main(argv: list[str] | None = None) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and summarize.

    Builds the admission stack (cache + journal + bounded queue) from
    flags, binds the HTTP front end, and blocks.  Exit 0 after a clean
    drain, 2 on unusable flags.  Registered as the ``serve:daemon``
    entry point so the static passes cover the service subsystem."""
    args = build_parser().parse_args(argv)
    session = cli.open_session(args)
    try:
        config = ServiceConfig(
            queue_depth=args.queue_depth,
            workers=args.workers,
            task_timeout=session.policy.task_timeout,
            max_retries=session.policy.max_retries,
            drain_grace_s=args.drain_grace,
        )
    except ValueError as exc:
        raise cli.Exit(2, f"bad serve flags: {exc}") from None

    service = SimulationService(
        resolve_request, session.cache, config=config,
        journal=session.journal, faults=session.faults,
    )
    service.start()
    if args.resume:
        resumed = service.resume_pending()
        if resumed:
            print(f"resumed {resumed} journaled in-flight request(s)",
                  file=sys.stderr)

    server = make_server(service, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    if args.ready_file:
        Path(args.ready_file).write_text(f"{host} {port}\n")
    print(f"serving on http://{host}:{port} "
          f"(workers={config.workers}, queue={config.queue_depth}, "
          f"fingerprint={session.cache.fingerprint[:12]})", file=sys.stderr)

    stop = threading.Event()

    def request_shutdown(signum, frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, request_shutdown)

    server_thread = threading.Thread(target=server.serve_forever,
                                     name="serve-http", daemon=True)
    server_thread.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("draining: admissions stopped, waiting for in-flight work",
              file=sys.stderr)
        drained = service.drain(args.drain_grace)
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=5.0)
        summary = service.service_summary()
        summary["drain"] = drained
        if args.summary_out:
            path = Path(args.summary_out)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n")
            print(f"service summary written to {path}", file=sys.stderr)
        print(f"drained: {drained['settled']} settled, "
              f"{drained['abandoned']} abandoned (journaled for --resume)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
