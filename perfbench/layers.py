"""Per-layer metrics: where the traced run's wrappers go, and what they mean.

The layers are the program's modules under ``src/repro/``.  Each wrapper
is installed where the traced code looks the name up: modules import
names such as ``column_buffer_fast`` directly, so the wrapper for the
uniproc path goes on ``repro.uniproc.measurement.column_buffer_fast``
and the one for Figures 7 and 8 on ``repro.caches.fast``.

``PER_LAYER`` lists every per-layer metric with the end-to-end metric it
should move, on which workload, and where it should not move, so later
changes can cite a prediction by the metric's name.
"""

from __future__ import annotations

import repro.__main__ as cli
from repro.analysis import experiments, registry
from repro.caches import fast
from repro.caches.base import Cache
from repro.caches.hierarchy import TwoLevelHierarchy
from repro.common.params import ConventionalSystemParams
from repro.gspn.models import ISSUE_TRANSITION
from repro.gspn.sim import GSPNSimulator
from repro.mp.engine import MPEngine
from repro.runner.cache import ResultCache
from repro.uniproc import measurement, pipeline
from repro.workloads.spec.model import SpecProxy
from repro.workloads.splash import KERNELS

from harness import PassResult
from spans import Tracer, covered_ns


def _layer(metrics, moves, still):
    return [
        {"name": name, "unit": unit, "better": better,
         "moves": moves, "still": still}
        for name, unit, better in metrics
    ]


_TRACE = _layer(
    [("trace.gen_s", "s", "lower"), ("trace.refs", "count", "lower"),
     ("trace.refs_per_s", "refs/s", "higher")],
    "cpu_s and work_per_cpu_s (cache refs per CPU second) on missrate-cold, "
    "where trace generation is about half the work",
    "barely moves uniproc-cpi; nothing on splash-mp or warm-replay",
)
_CACHES = _layer(
    [("caches.fast_s", "s", "lower"), ("caches.exact_s", "s", "lower"),
     ("caches.refs", "count", "lower"),
     ("caches.refs_per_s", "refs/s", "higher"),
     ("caches.fast_frac", "fraction", "higher")],
    "cpu_s on missrate-cold; a drop in caches.fast_frac explains a "
    "uniproc-cpi regression",
    "nothing on splash-mp or warm-replay",
)
_UNIPROC = _layer(
    [("uniproc.measure_self_s", "s", "lower"),
     ("uniproc.cpi_calls", "count", "lower")],
    "task_p50_s on uniproc-cpi",
    "nothing on the other three workloads",
)
_GSPN = _layer(
    [("gspn.build_s", "s", "lower"), ("gspn.run_s", "s", "lower"),
     ("gspn.runs", "count", "lower"), ("gspn.firings", "count", "lower"),
     ("gspn.firings_per_s", "firings/s", "higher"),
     ("gspn.firings_per_instr", "firings/instr", "lower")],
    "gspn.firings_per_s moves makespan_s, cpu_s, work_per_cpu_s "
    "(sim_instr_per_cpu_s) and task_p50_s on uniproc-cpi",
    "nothing on splash-mp, missrate-cold or warm-replay; gspn.firings and "
    "gspn.firings_per_instr count modelled work and stay identical under a "
    "speed-only change",
)
_MP = _layer(
    [("mp.build_s", "s", "lower"), ("mp.run_s", "s", "lower"),
     ("mp.ops", "count", "lower"), ("mp.ops_per_s", "ops/s", "higher"),
     ("mp.accesses", "count", "lower"),
     ("mp.remote_frac", "fraction", "lower"),
     ("mp.upgrades", "count", "lower"), ("mp.recalls", "count", "lower"),
     ("mp.fabric_msgs", "count", "lower"),
     ("mp.sync_wait_cycles", "cycles", "lower")],
    "mp.ops_per_s moves makespan_s, critical_task_s and work_per_cpu_s "
    "(mp_ops_per_cpu_s) on splash-mp",
    "nothing on uniproc-cpi, missrate-cold or warm-replay; the simulated "
    "counts stay identical under a speed-only change",
)
_RUNNER = (
    _layer([("runner.fingerprint_s", "s", "lower")],
           "setup_s and makespan_s on warm-replay (most of both) and "
           "missrate-cold",
           "nothing on uniproc-cpi or splash-mp, which run with the cache off")
    + _layer([("runner.cache_load_s", "s", "lower")],
             "makespan_s on warm-replay",
             "nothing on uniproc-cpi or splash-mp")
    + _layer([("runner.cache_store_s", "s", "lower")],
             "makespan_s and cpu_s on missrate-cold",
             "nothing on uniproc-cpi or splash-mp")
    + _layer([("runner.cache_hits", "count", "higher")],
             "makespan_s on warm-replay",
             "nothing on uniproc-cpi or splash-mp")
    + _layer([("runner.cache_misses", "count", "lower")],
             "makespan_s and cpu_s on missrate-cold",
             "nothing on uniproc-cpi or splash-mp")
    + _layer([("runner.overhead_s", "s", "lower")],
             "makespan_s on missrate-cold, whose tasks are short",
             "barely moves uniproc-cpi or splash-mp, whose tasks are long")
    + _layer([("runner.parallel_eff", "fraction", "higher")],
             "makespan_s on splash-mp and missrate-cold",
             "cpu_s anywhere")
)
_ANALYSIS = _layer(
    [("analysis.merge_render_s", "s", "lower")],
    "makespan_s on warm-replay",
    "nothing on uniproc-cpi, which has no merge or render",
)
_TRACING = _layer(
    [("trace_overhead_pct", "%", "lower"), ("unattributed_s", "s", "lower")],
    "nothing: these describe the traced run itself",
    "every end-to-end metric, which is measured with tracing off",
)

PER_LAYER = (_TRACE + _CACHES + _UNIPROC + _GSPN + _MP + _RUNNER
             + _ANALYSIS + _TRACING)

# L2 lookups of the conventional system are L1 misses of references
# already counted, so they are kept apart from caches.refs, as the
# program's own cache_refs tally keeps them.
_L2_GEOMETRY = ConventionalSystemParams().l2


def _count_len(counter: str):
    def after(tracer, state, args, kwargs, result):
        tracer.count(counter, len(args[0]))
    return after


def _count_result_len(counter: str):
    def after(tracer, state, args, kwargs, result):
        tracer.count(counter, len(result))
    return after


def _count_l1_refs(tracer, state, args, kwargs, result):
    geometry = args[1] if len(args) > 1 else kwargs["geometry"]
    counter = "caches.l2_refs" if geometry == _L2_GEOMETRY else "caches.fast_refs"
    tracer.count(counter, len(args[0]))


def _accesses_before(args, kwargs):
    return args[0].stats.accesses


def _count_exact_refs(tracer, before, args, kwargs, result):
    tracer.count("caches.exact_refs", args[0].stats.accesses - before)


def _events_before(args, kwargs):
    return args[0].events


def _count_gspn(tracer, before, args, kwargs, result):
    tracer.count("gspn.firings", args[0].events - before)
    tracer.count("gspn.runs", 1)
    tracer.count("gspn.issued", result.firings.get(ISSUE_TRANSITION, 0))


def _count_mp(tracer, state, args, kwargs, result):
    system = args[0].system
    stats = system.stats
    tracer.count("mp.ops", result.total_ops)
    tracer.count("mp.accesses", stats.total)
    tracer.count("mp.remote", stats.remote)
    tracer.count("mp.upgrades", stats.upgrades)
    tracer.count("mp.recalls", stats.recalls)
    tracer.count("mp.fabric_msgs", sum(system.fabric.stats.messages.values()))
    tracer.count("mp.sync_wait_cycles", sum(result.lock_wait_cycles)
                 + sum(result.barrier_wait_cycles))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach."""
    wrap = tracer.wrap
    # trace: the SPEC proxy generators.
    for attr in ("instruction_trace", "data_trace"):
        wrap(SpecProxy, attr, "trace.gen",
             after=_count_result_len("trace.refs"))
    # caches: fast engines where each caller looks them up, then the
    # object-oriented engines.
    wrap(fast, "column_buffer_fast", "caches.fast",
         after=_count_len("caches.fast_refs"))
    wrap(measurement, "column_buffer_fast", "caches.fast",
         after=_count_len("caches.fast_refs"))
    wrap(measurement, "set_assoc_miss_flags", "caches.fast",
         after=_count_l1_refs)
    for attr in ("direct_mapped_miss_rate", "set_assoc_miss_rate"):
        wrap(experiments, attr, "caches.fast",
             after=_count_len("caches.fast_refs"))
    for cls in (Cache, TwoLevelHierarchy):
        wrap(cls, "run", "caches.exact", before=_accesses_before,
             after=_count_exact_refs)
    # uniproc: the measurement glue and the CPI entry points.
    for attr in ("measure_integrated", "measure_conventional"):
        wrap(pipeline, attr, "uniproc.measure")
    for attr in ("integrated_cpi", "conventional_cpi"):
        wrap(pipeline, attr, "uniproc.cpi")
    # gspn: net construction and the event loop.
    wrap(pipeline, "build_processor_net", "gspn.build")
    wrap(GSPNSimulator, "__init__", "gspn.build")
    wrap(GSPNSimulator, "run", "gspn.run", before=_events_before,
         after=_count_gspn)
    # mp: each kernel's build (every kernel overrides it) and the engine.
    for kernel in KERNELS.values():
        wrap(kernel, "build", "mp.build")
    wrap(MPEngine, "run", "mp.run", after=_count_mp)
    # runner: fingerprints (whole-tree at construction, then per entry
    # point), cache reads and writes.
    for attr in ("__init__", "fingerprint_for"):
        wrap(ResultCache, attr, "runner.fingerprint")
    wrap(ResultCache, "load", "runner.load")
    wrap(ResultCache, "store", "runner.store")
    # analysis: shard merges and rendering.
    wrap(registry.ExperimentSpec, "merge_results", "analysis.merge_render")
    wrap(cli, "render_result", "analysis.merge_render")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: PassResult, inline: PassResult,
              base: PassResult) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced pass at ``jobs=1``.

    ``inline`` is the same pass untraced, which gives the tracing
    overhead; ``base`` is an untraced pass at ``jobs=nproc``, which
    gives the parallel efficiency.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own_ns in zip(tracer.spans, tracer.self_ns()):
        busy[span.name] = busy.get(span.name, 0.0) + own_ns / 1e9
        calls[span.name] = calls.get(span.name, 0) + 1

    def s(name: str) -> float:
        return busy.get(name, 0.0)

    def n(name: str) -> int:
        return tracer.counts.get(name, 0)

    fast_refs, exact_refs = n("caches.fast_refs"), n("caches.exact_refs")
    cache_refs = fast_refs + exact_refs
    covered_s = covered_ns([(sp.start_ns, sp.end_ns) for sp in tracer.spans
                            if sp.parent < 0]) / 1e9
    return {
        "trace.gen_s": s("trace.gen"),
        "trace.refs": n("trace.refs"),
        "trace.refs_per_s": _ratio(n("trace.refs"), s("trace.gen")),
        "caches.fast_s": s("caches.fast"),
        "caches.exact_s": s("caches.exact"),
        "caches.refs": cache_refs,
        "caches.refs_per_s": _ratio(cache_refs,
                                    s("caches.fast") + s("caches.exact")),
        "caches.fast_frac": _ratio(fast_refs, cache_refs),
        "uniproc.measure_self_s": s("uniproc.measure"),
        "uniproc.cpi_calls": calls.get("uniproc.cpi", 0),
        "gspn.build_s": s("gspn.build"),
        "gspn.run_s": s("gspn.run"),
        "gspn.runs": n("gspn.runs"),
        "gspn.firings": n("gspn.firings"),
        "gspn.firings_per_s": _ratio(n("gspn.firings"), s("gspn.run")),
        "gspn.firings_per_instr": _ratio(n("gspn.firings"), n("gspn.issued")),
        "mp.build_s": s("mp.build"),
        "mp.run_s": s("mp.run"),
        "mp.ops": n("mp.ops"),
        "mp.ops_per_s": _ratio(n("mp.ops"), s("mp.run")),
        "mp.accesses": n("mp.accesses"),
        "mp.remote_frac": _ratio(n("mp.remote"), n("mp.accesses")),
        "mp.upgrades": n("mp.upgrades"),
        "mp.recalls": n("mp.recalls"),
        "mp.fabric_msgs": n("mp.fabric_msgs"),
        "mp.sync_wait_cycles": n("mp.sync_wait_cycles"),
        "runner.fingerprint_s": s("runner.fingerprint"),
        "runner.cache_load_s": s("runner.load"),
        "runner.cache_store_s": s("runner.store"),
        "runner.cache_hits": traced.hits,
        "runner.cache_misses": traced.misses,
        "runner.overhead_s": traced.runner_wall_s - sum(traced.task_walls),
        "runner.parallel_eff": _ratio(sum(base.task_walls),
                                      base.jobs * base.wall_s),
        "analysis.merge_render_s": s("analysis.merge_render"),
        # The inline pass runs first in this process, so it also pays
        # one-time warm-up, and host speed drifts by up to ~20% between
        # passes: only a gross tracing cost shows here.
        "trace_overhead_pct": 100.0 * (_ratio(traced.cpu_s, inline.cpu_s) - 1),
        # Less the reference-kernel timings around each task, which are
        # the benchmark's own work.
        "unattributed_s": (traced.wall_s - covered_s
                           - sum(traced.task_kernel_s)),
    }


# Traced counts that must equal the program's own tallies exactly.
CROSS_CHECKS = {
    "trace.refs": "trace_refs",
    "caches.refs": "cache_refs",
    "gspn.firings": "gspn_firings",
    "mp.ops": "mp_ops",
}


def cross_check(values: dict[str, float],
                traced: PassResult) -> dict[str, tuple[float, int]]:
    """Traced counts that disagree with ``RunMetrics.tasks[*].tallies``."""
    return {
        metric: (values[metric], traced.tallies.get(tally, 0))
        for metric, tally in CROSS_CHECKS.items()
        if values[metric] != traced.tallies.get(tally, 0)
    }
