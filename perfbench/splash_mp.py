"""splash-mp: Figures 13-17 on the execution-driven CC-NUMA engine.

5 SPLASH kernels x 3 system kinds x 2 processor counts, in the
registry's 5 kernel shards, result cache off.
"""

from __future__ import annotations

import contextlib

from repro.analysis.experiments import PAPER_SPLASH_KERNELS
from repro.analysis.registry import SPECS, run_experiments
from repro.mp.system import SystemKind
from repro.workloads.splash import KERNELS

from harness import HostSpeed, PassResult, Stopwatch, computed_tallies, digest

EXPERIMENT = "figures13-17"
PROC_COUNTS = (4, 16)
VERIFY_PROCS = 4


def overrides(seed: int, proc_counts=PROC_COUNTS,
              kernels=PAPER_SPLASH_KERNELS) -> dict:
    return {EXPERIMENT: {"proc_counts": proc_counts, "seed": seed,
                         "kernel_name": kernels}}


def execute(settings: dict, jobs: int) -> PassResult:
    kernels = settings[EXPERIMENT]["kernel_name"]
    # The shards run for 1-13 s, so the host's scale is sampled all
    # through the pass instead of around each task.  That needs this
    # process to be waiting for workers, so passes at jobs=1 (which
    # report no end-to-end metrics) are not sampled.
    host = HostSpeed() if jobs > 1 else None
    with Stopwatch() as watch, host or contextlib.nullcontext():
        results, metrics = run_experiments([EXPERIMENT], settings, jobs=jobs)
    scale = host.scale if host else 1.0
    tasks = len(metrics.tasks)
    figures = {fig.kernel: fig for fig in results[EXPERIMENT] or []}
    tallies = {t.shard: t.tallies for t in metrics.tasks}
    failed = 0
    stats = {}
    for kernel in kernels:
        fig = figures.get(kernel)
        # A processor that never finishes raises inside the engine, so
        # its shard is quarantined and has no figure.
        if fig is None or not all(
            t > 0 for times in fig.times.values() for t in times
        ):
            failed += 1
        if fig is not None:
            stats[kernel] = {"times": fig.times, "tallies": tallies[kernel]}
    work = computed_tallies(metrics.tasks)
    return PassResult(
        wall_s=watch.wall_s, cpu_s=watch.cpu_s, jobs=jobs,
        task_walls=[t.wall_s for t in metrics.tasks],
        scale=scale, task_kernel_s=[0.0] * tasks,
        runner_wall_s=metrics.wall_s,
        attempted=len(kernels), failed=failed,
        work=work["mp_ops"], digest=digest(stats), tallies=work,
        hits=metrics.hits, misses=metrics.misses,
    )


def verify_kernels(seed: int, procs: int = VERIFY_PROCS) -> tuple[int, int]:
    """Run each kernel once and check its own ``verify()``.

    Returns ``(checked, failed)``; ``ocean`` has no ``verify`` and is
    left out.
    """
    checked = failed = 0
    for name in PAPER_SPLASH_KERNELS:
        kernel = KERNELS[name](seed=seed)
        if not hasattr(kernel, "verify"):
            continue
        kernel.run_on(SystemKind.INTEGRATED, procs)
        checked += 1
        failed += not kernel.verify()
    return checked, failed


class Workload:
    name = "splash-mp"
    cache_mode = "off"
    work_unit = "MP ops"
    rate_name = "mp_ops_per_cpu_s"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.settings: dict = {}

    def setup(self) -> None:
        """Task planning; the cache is off, so nothing is fingerprinted."""
        self.settings = overrides(self.seed)
        SPECS[EXPERIMENT].tasks(self.settings[EXPERIMENT])

    def run_pass(self, jobs: int) -> PassResult:
        return execute(self.settings, jobs)

    def inline_pass(self) -> PassResult:
        return self.run_pass(1)

    def check(self) -> tuple[int, int]:
        return verify_kernels(self.seed)
