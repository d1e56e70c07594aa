"""uniproc-cpi: the Section 5.5 CPI pipeline, one task per SPEC benchmark.

18 Table 4 benchmarks through ``integrated_cpi`` (16-bank integrated
net) plus Figure 11's 2 benchmarks x 5 memory latencies through
``conventional_cpi`` (2-bank net with an L2): 20 tasks on
``repro.runner.run_tasks`` with the result cache off.  ``table4`` and
``figure11`` are not called directly because they take no seed.
"""

from __future__ import annotations

import math

from repro import runner
from repro.gspn.models import ISSUE_TRANSITION
from repro.gspn.sim import GSPNSimulator
from repro.paperdata import PAPER_TABLE4
from repro.uniproc import pipeline
from repro.workloads.spec import get_proxy

from harness import (
    PassResult,
    Stopwatch,
    computed_tallies,
    digest,
    host_timed,
    pass_scale,
)

TABLE4 = dict(with_victim=True, trace_len=100_000, instructions=15_000)
FIGURE11 = dict(l2_latency=6, trace_len=60_000, instructions=10_000)
FIGURE11_NAMES = ("141.apsi", "126.gcc")
FIGURE11_LATENCIES = (10, 20, 30, 40, 50)

# Outcome of every GSPN run in this process since the last drain:
# (deadlocked, issued instructions).  Each task drains it into its
# result, so the output check sees runs made inside pool workers.
_RUNS: list[tuple[bool, int]] = []
_recording = False


def _record_runs() -> None:
    """Note each GSPN run's outcome; ``integrated_cpi`` keeps only the CPI.

    Install it before any tracer wraps the same method (the Workload
    constructor does), so the tracer's restore leaves it in place.
    Tasks call it again for workers that start from a fresh import.
    """
    global _recording
    if _recording:
        return
    run = GSPNSimulator.run

    def recording_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        _RUNS.append((result.deadlocked,
                      result.firings.get(ISSUE_TRANSITION, 0)))
        return result

    GSPNSimulator.run = recording_run
    _recording = True


def _drain() -> list[tuple[bool, int]]:
    runs = list(_RUNS)
    _RUNS.clear()
    return runs


def table4_task(name: str, seed: int, with_victim: bool, trace_len: int,
                instructions: int):
    _record_runs()
    _drain()
    est = pipeline.integrated_cpi(
        get_proxy(name), with_victim=with_victim, trace_len=trace_len,
        instructions=instructions, seed=seed,
    )
    return [(est.cpu_cpi, est.memory_cpi)], _drain()


def figure11_task(name: str, seed: int, latencies: tuple, l2_latency: float,
                  trace_len: int, instructions: int):
    _record_runs()
    _drain()
    proxy = get_proxy(name)
    ests = [
        pipeline.conventional_cpi(
            proxy, l2_latency=l2_latency, mem_latency=lat,
            trace_len=trace_len, instructions=instructions, seed=seed,
        )
        for lat in latencies
    ]
    return [(e.cpu_cpi, e.memory_cpi) for e in ests], _drain()


def plan(seed: int, table4=TABLE4, figure11=FIGURE11,
         table4_names=tuple(PAPER_TABLE4),
         figure11_names=FIGURE11_NAMES) -> list[runner.Task]:
    tasks = [
        runner.Task("table4", name, table4_task,
                    {"name": name, "seed": seed, **table4})
        for name in table4_names
    ]
    tasks += [
        runner.Task("figure11", name, figure11_task,
                    {"name": name, "seed": seed,
                     "latencies": FIGURE11_LATENCIES, **figure11})
        for name in figure11_names
    ]
    return tasks


def _task_ok(task: runner.Task, cpis, runs) -> bool:
    """Every run finished its instruction budget; every CPI is sane."""
    budget = task.kwargs["instructions"]
    base = get_proxy(task.shard).base_cpi()
    return (
        len(runs) == len(cpis)
        and all(not dead and issued == budget for dead, issued in runs)
        and all(math.isfinite(cpu + mem) and cpu + mem >= base
                for cpu, mem in cpis)
    )


def execute(tasks: list[runner.Task], jobs: int) -> PassResult:
    with Stopwatch() as watch:
        timed, metrics = runner.run_tasks(host_timed(tasks), jobs=jobs)
    results = {slot: t.result for slot, t in timed.items()}
    scale, kernel_s = pass_scale(metrics.tasks, timed)
    records = {(t.experiment, t.shard): t for t in metrics.tasks}
    failed = 0
    issued = 0
    stats = {}
    errors = []
    for task in tasks:
        slot = (task.experiment, task.shard)
        record = records[slot]
        if slot not in results:
            failed += 1
            continue
        cpis, runs = results[slot]
        failed += not _task_ok(task, cpis, runs)
        issued += sum(n for _, n in runs)
        stats[task.label] = {"cpi": cpis, "tallies": record.tallies}
        if task.experiment == "table4":
            cpu, mem = cpis[0]
            paper = PAPER_TABLE4[task.shard].total_cpi
            errors.append(abs(cpu + mem - paper) / paper)
    extras = {"sim_instr": issued}
    if errors:
        extras["paper_cpi_err_pct"] = 100.0 * sum(errors) / len(errors)
    return PassResult(
        wall_s=watch.wall_s, cpu_s=watch.cpu_s, jobs=jobs,
        task_walls=[t.wall_s for t in metrics.tasks],
        scale=scale, task_kernel_s=kernel_s,
        runner_wall_s=metrics.wall_s,
        attempted=len(tasks), failed=failed, work=issued,
        digest=digest(stats), tallies=computed_tallies(metrics.tasks),
        hits=metrics.hits, misses=metrics.misses, extras=extras,
    )


class Workload:
    name = "uniproc-cpi"
    cache_mode = "off"
    work_unit = "simulated instructions"
    rate_name = "sim_instr_per_cpu_s"

    def __init__(self, seed: int) -> None:
        _record_runs()
        self.seed = seed
        self.tasks: list[runner.Task] = []

    def setup(self) -> None:
        self.tasks = plan(self.seed)

    def run_pass(self, jobs: int) -> PassResult:
        return execute(self.tasks, jobs)

    def inline_pass(self) -> PassResult:
        return self.run_pass(1)

    def check(self) -> tuple[int, int]:
        """The output checks run inside every pass; nothing extra."""
        return 0, 0
