"""missrate-cold: Figures 7 and 8 into a fresh, empty result cache.

All 19 proxies for both figures (38 tasks) on every pass, with the
runner's cache on but empty, and the fingerprint memos dropped, so each
pass pays what a first ``python -m repro figure7 figure8`` would: slice
fingerprints, trace generation, the vectorised cache engines and one
cache store per task.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro.analysis.experiments import (
    CONVENTIONAL_D_SIZES,
    CONVENTIONAL_I_SIZES,
)
from repro.analysis.registry import SPECS
from repro.caches import (
    DirectMappedCache,
    SetAssociativeCache,
    direct_mapped_miss_rate,
    set_assoc_miss_rate,
    simulate_column_buffer,
)
from repro.common.params import CacheGeometry, IntegratedDeviceParams
from repro.common.units import KB
from repro.runner import ResultCache, invalidate, run_tasks
from repro.workloads.spec import get_proxy

from harness import (
    STATE_DIR,
    PassResult,
    Stopwatch,
    computed_tallies,
    digest,
    host_timed,
    pass_scale,
)

EXPERIMENTS = ("figure7", "figure8")
CACHE_DIR = STATE_DIR / "missrate-cold-cache"
# The exact-engine cross-check: two fixed proxies, one integer and one
# floating-point, on traces short enough for the object-oriented
# simulators.
EXACT_PROXIES = ("126.gcc", "102.swim")
EXACT_TRACE_LEN = 30_000


def overrides(seed: int, **extra) -> dict:
    return {name: {"seed": seed, **extra} for name in EXPERIMENTS}


def run_host_timed(names, overrides: dict, *, jobs: int, cache):
    """``run_experiments`` with each task wrapped in ``HostTimed``.

    Returns ``(results, metrics, timed)``: merged results as
    ``run_experiments`` gives them, the runner's metrics, and each
    computed task's ``Timed`` record by ``(experiment, shard)``.
    """
    per_spec = {name: SPECS[name].tasks(overrides.get(name)) for name in names}
    tasks = [task for name in names for task in per_spec[name]]
    raw, metrics = run_tasks(host_timed(tasks), jobs=jobs, cache=cache)
    results = {}
    for name in names:
        parts = [raw[(name, task.shard)].result for task in per_spec[name]
                 if (name, task.shard) in raw]
        results[name] = SPECS[name].merge_results(parts) if parts else None
    return results, metrics, raw


def execute(settings: dict, jobs: int, cache_dir=CACHE_DIR) -> PassResult:
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        with Stopwatch() as watch:
            invalidate()
            cache = ResultCache(cache_dir)
            results, metrics, timed = run_host_timed(
                EXPERIMENTS, settings, jobs=jobs, cache=cache,
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    scale, kernel_s = pass_scale(metrics.tasks, timed)
    failed = sum(1 for t in metrics.tasks
                 if t.status != "ok" or t.cache != "miss")
    stats = {}
    for name in EXPERIMENTS:
        rows = results[name].rows if results[name] is not None else {}
        failed += sum(
            1 for rates in rows.values()
            if not all(0.0 <= rate <= 1.0 for rate in rates)
        )
        stats[name] = rows
    stats["tallies"] = {f"{t.experiment}/{t.shard}": t.tallies
                        for t in metrics.tasks}
    work = computed_tallies(metrics.tasks)
    return PassResult(
        wall_s=watch.wall_s, cpu_s=watch.cpu_s, jobs=jobs,
        task_walls=[t.wall_s for t in metrics.tasks],
        scale=scale, task_kernel_s=kernel_s,
        runner_wall_s=metrics.wall_s,
        attempted=len(metrics.tasks), failed=failed,
        work=work["cache_refs"], digest=digest(stats), tallies=work,
        hits=metrics.hits, misses=metrics.misses,
    )


def exact_agrees(seed: int, names=EXACT_PROXIES,
                 trace_len: int = EXACT_TRACE_LEN) -> tuple[int, int]:
    """Compare the fast engines with the exact ones on the figures' caches.

    Returns ``(checked, failed)``, one item per proxy.
    """
    device = IntegratedDeviceParams()
    failed = 0
    for name in names:
        proxy = get_proxy(name)
        itrace = proxy.instruction_trace(trace_len, seed)
        dtrace = proxy.data_trace(trace_len, seed)
        same = True
        for trace, geometry, victim in (
            (itrace, device.icache_geometry, None),
            (dtrace, device.dcache_geometry, None),
            (dtrace, device.dcache_geometry, device.victim),
        ):
            fast = simulate_column_buffer(trace, geometry, victim=victim)
            exact = simulate_column_buffer(trace, geometry, victim=victim,
                                           engine="exact")
            same &= bool(np.array_equal(fast.miss_flags, exact.miss_flags))
        conventional = (
            [(itrace, CacheGeometry(s * KB, 32, 1)) for s in CONVENTIONAL_I_SIZES]
            + [(dtrace, CacheGeometry(s * KB, 32, 1)) for s in CONVENTIONAL_D_SIZES]
            + [(dtrace, CacheGeometry(16 * KB, 32, 2))]
        )
        for trace, geometry in conventional:
            if geometry.ways == 1:
                rate = direct_mapped_miss_rate(trace.addresses, geometry)
                oracle = DirectMappedCache(geometry.size_bytes,
                                           geometry.line_bytes)
            else:
                rate = set_assoc_miss_rate(trace.addresses, geometry)
                oracle = SetAssociativeCache(geometry)
            same &= rate == oracle.run(trace).miss_rate
        failed += not same
    return len(names), failed


class Workload:
    name = "missrate-cold"
    cache_mode = "fresh empty ResultCache per pass"
    work_unit = "cache refs"
    rate_name = "cache_refs_per_cpu_s"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.settings: dict = {}

    def setup(self, cache_dir=CACHE_DIR) -> None:
        """Cache, fingerprints of the entry points, task planning."""
        self.settings = overrides(self.seed)
        cache = ResultCache(cache_dir)
        for name in EXPERIMENTS:
            for task in SPECS[name].tasks(self.settings[name]):
                cache.fingerprint_for(task.entry_point())

    def run_pass(self, jobs: int) -> PassResult:
        return execute(self.settings, jobs)

    def inline_pass(self) -> PassResult:
        return self.run_pass(1)

    def check(self) -> tuple[int, int]:
        return exact_agrees(self.seed)
