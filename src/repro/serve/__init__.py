"""Resilient simulation service: ``python -m repro serve``.

The long-running face of the experiment runner.  One daemon absorbs
many concurrent clients over HTTP+JSON by layering admission control
in front of the supervised process pool:

- :mod:`repro.serve.service` — the core: request collapse onto
  in-flight jobs and content-addressed cache hits, a bounded work
  queue with explicit backpressure, deadline propagation, and SIGTERM
  drain into the runner journal.
- :mod:`repro.serve.api` — request bodies -> runner tasks (registry
  experiments and sweep base points), cache-key compatible with the
  batch CLI and the sweep engine.
- :mod:`repro.serve.http` — the stdlib HTTP front end.
- :mod:`repro.serve.loadtest` — the deterministic concurrent load
  generator behind ``scripts/loadtest.py`` and the CI smoke.

Nothing here imports anything heavier than the stdlib: the daemon is
deployable wherever the batch CLI runs.
"""

from repro.serve.service import (
    Job,
    ServeRequestError,
    ServiceConfig,
    SimulationService,
)

__all__ = [
    "Job",
    "ServeRequestError",
    "ServiceConfig",
    "SimulationService",
]
