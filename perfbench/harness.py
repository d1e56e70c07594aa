"""Shared pieces: timing, host speed, digests and the pass record.

Nothing here imports the program, so the set-up probe can time the
program's imports on their own.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# The checkout the benchmark runs from: the program is imported from
# ROOT/src, and benchmark state (result caches, the warm-replay fill,
# span dumps) lives under STATE_DIR, which .gitignore names.
ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".bench_build" / "perfbench"

# One worker per core the process may run on, and no more.
NPROC = len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class Stopwatch:
    """Wall and CPU seconds (self plus waited-for children) of a block."""

    def __enter__(self) -> "Stopwatch":
        self.wall_s = self.cpu_s = 0.0
        self._cpu0 = cpu_seconds()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = cpu_seconds() - self._cpu0


# -- host speed ---------------------------------------------------------------
#
# The virtual CPUs of a shared host change speed by 15-40% over seconds
# to minutes, and each by its own amount, as the host's other tenants
# come and go: on a 2-vCPU virtual machine one uniproc-cpi task took
# 0.75 s in one pass and 1.42 s in another.  So each task runs between
# two timings of a fixed reference kernel in its own worker, and a
# pass's times are scaled by the speed the host had there and then.
# End-to-end timings are in seconds of a reference host on which the
# kernel takes REFERENCE_KERNEL_S.
#
# The kernel never touches the program.  Like the simulators, it is
# interpreter work, half of it on a table that fits in the core's own
# cache and half a walk over 32k small objects (a few MiB), because the
# host's drift slows the two kinds of work by different amounts.

_WALK_OBJECTS = 1 << 15
_WALK_ORDER = list(range(_WALK_OBJECTS))
random.Random(2).shuffle(_WALK_ORDER)
_WALK_NODES = [{"value": i, "items": [i]} for i in range(_WALK_OBJECTS)]


def reference_kernel() -> int:
    """A fixed piece of interpreter work that never touches the program."""
    table: dict[int, int] = {}
    total = 0
    for i in range(4_400):
        table[i & 255] = total
        total += table.get((i * 7) & 255, 1) * 3 % 17
    j = 0
    for _ in range(1_250):
        j = _WALK_ORDER[j]
        node = _WALK_NODES[j]
        total += node["value"] + node["items"][0]
    return total


REFERENCE_KERNEL_S = 1.5e-3
KERNEL_RUNS = 3


def kernel_seconds(runs: int = KERNEL_RUNS) -> float:
    """Median CPU seconds of the reference kernel on this thread, now."""
    times = []
    for _ in range(runs):
        start = time.thread_time()
        reference_kernel()
        times.append(time.thread_time() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class Timed:
    """A task's result, with the host's scale around it."""

    result: Any
    scale: float
    kernel_s: float  # wall spent on the kernel, inside the runner's task wall


class HostTimed:
    """Runs a task function between two timings of the reference kernel.

    The timings are taken in the task's own worker, just before and
    just after it, where the host's speed is the one the task saw.  The
    wrapper takes the function's name, so the runner's cache keys and
    slice fingerprints are those of the plain task.
    """

    def __init__(self, fn) -> None:
        functools.update_wrapper(self, fn)
        self.fn = fn

    def __call__(self, **kwargs) -> Timed:
        start = time.perf_counter()
        before = kernel_seconds()
        middle = time.perf_counter()
        result = self.fn(**kwargs)
        end = time.perf_counter()
        after = kernel_seconds()
        kernel_s = (middle - start) + (time.perf_counter() - end)
        return Timed(result, 2 * REFERENCE_KERNEL_S / (before + after),
                     kernel_s)


class HostSpeed:
    """The host's scale while a block runs, sampled from this process.

    For passes whose tasks run for seconds, where timings around each
    task miss most of the drift inside it.  A thread times the
    reference kernel every ``period_s``; it measures its own CPU time,
    so time it waits for a CPU is not counted.  It suits only passes in
    which this process waits for its workers.
    """

    def __init__(self, period_s: float = 0.025) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.period_s):
            self.samples.append(kernel_seconds(runs=1))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def host_timed(tasks: list) -> list:
    """The same runner tasks, each wrapped in ``HostTimed``."""
    return [dataclasses.replace(task, fn=HostTimed(task.fn)) for task in tasks]


def digest(stats) -> str:
    """SHA-256 over the canonical JSON of simulated statistics.

    Floats are written with ``repr`` precision, so any change in the
    last digit of a simulated result changes the digest.
    """
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Program tallies that count simulated work (see repro.common.tally).
WORK_TALLIES = ("trace_refs", "cache_refs", "gspn_firings", "mp_ops")


@dataclass
class PassResult:
    """One pass over a workload's fixed task set."""

    wall_s: float
    cpu_s: float
    jobs: int
    task_walls: list[float]  # RunMetrics.tasks walls
    # The host's scale over the pass, and the part of each task's wall
    # the reference kernel took (see HostTimed).
    scale: float
    task_kernel_s: list[float]
    runner_wall_s: float  # run_tasks wall as the runner measured it
    attempted: int
    failed: int  # quarantined or failed an output check
    work: int  # simulated work in the workload's own unit
    digest: str
    # Program tallies summed over the tasks this pass computed (cache
    # hits did no work and are left out).
    tallies: dict[str, int]
    hits: int = 0
    misses: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def scaled_task_walls(self) -> list[float]:
        """Task walls without the kernel, in reference-host seconds."""
        return [(wall - kernel_s) * self.scale
                for wall, kernel_s in zip(self.task_walls, self.task_kernel_s)]


def pass_scale(tasks, timed: dict) -> tuple[float, list[float]]:
    """The host's scale over a pass of host-timed tasks, and their kernel time.

    ``tasks`` are the ``RunMetrics`` task records; the scale is the mean
    of the tasks' own scales weighted by their walls, which averages
    out the kernel's own noise.  A quarantined task returned no record
    and its pass already counts as failed, so it is left out.
    """
    records = [(t.wall_s, timed.get((t.experiment, t.shard))) for t in tasks]
    timed_walls = [(wall, r) for wall, r in records if r is not None]
    scale = (sum(wall * r.scale for wall, r in timed_walls)
             / sum(wall for wall, _ in timed_walls)) if timed_walls else 1.0
    return scale, [r.kernel_s if r is not None else 0.0 for _, r in records]


def computed_tallies(tasks) -> dict[str, int]:
    """Work tallies of the tasks a run computed, from ``RunMetrics.tasks``."""
    totals = dict.fromkeys(WORK_TALLIES, 0)
    for task in tasks:
        if task.cache in ("miss", "off"):
            for name in WORK_TALLIES:
                totals[name] += task.tallies.get(name, 0)
    return totals

