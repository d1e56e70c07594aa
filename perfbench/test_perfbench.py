"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench -q

They run small versions of the workloads, so they take about a minute.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import missrate_cold  # noqa: E402
import run  # noqa: E402
import splash_mp  # noqa: E402
import uniproc_cpi  # noqa: E402
from harness import REFERENCE_KERNEL_S, HostSpeed, host_timed  # noqa: E402
from spans import Span, Tracer, covered_ns  # noqa: E402

SEED = 5


def small_uniproc():
    return uniproc_cpi.plan(
        SEED,
        table4=dict(with_victim=True, trace_len=8_000, instructions=400),
        figure11=dict(l2_latency=6, trace_len=8_000, instructions=300),
        table4_names=("126.gcc", "102.swim"),
        figure11_names=("141.apsi",),
    )


def small_missrate():
    return missrate_cold.overrides(SEED, names=("126.gcc", "102.swim"),
                                   trace_len=8_000)


def small_splash():
    return splash_mp.overrides(SEED, proc_counts=(2,),
                               kernels=("water", "pthor"))


def traced(run_pass):
    uniproc_cpi._record_runs()
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = run_pass()
    finally:
        tracer.restore()
    return tracer, result


# -- span accounting ---------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        Span("outer", 0, 100, -1),
        Span("inner", 10, 30, 0),
        Span("inner", 50, 60, 0),
        Span("leaf", 12, 20, 1),
    ]
    assert tracer.self_ns() == [70, 12, 10, 8]
    assert covered_ns([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20


def test_wrappers_nest_count_and_restore():
    class Toy:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    originals = (Toy.outer, Toy.inner)
    tracer = Tracer()
    tracer.wrap(Toy, "outer", "outer")
    tracer.wrap(Toy, "inner", "inner",
                after=lambda t, state, args, kwargs, result:
                t.count("inner.calls", result))
    assert Toy().outer() == 2
    tracer.restore()
    assert (Toy.outer, Toy.inner) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {"inner.calls": 2}
    outer_self = tracer.self_ns()[0]
    children = sum(s.duration_ns for s in tracer.spans[1:])
    assert outer_self == tracer.spans[0].duration_ns - children


def test_restore_removes_a_wrapper_on_an_inherited_method():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "run", "run")
    assert Child().run() == "base"
    tracer.restore()
    assert "run" not in vars(Child)


# -- traced counts against the program's tallies ------------------------------


def _assert_cross_check(tracer, result):
    values = layers.per_layer(tracer, result, result, result)
    assert list(values) == [m["name"] for m in layers.PER_LAYER]
    assert layers.cross_check(values, result) == {}
    return values


def test_uniproc_traced_counts_equal_tallies():
    tasks = small_uniproc()
    tracer, result = traced(lambda: uniproc_cpi.execute(tasks, 1))
    values = _assert_cross_check(tracer, result)
    assert result.failed == 0
    assert values["gspn.firings"] > 0 and values["caches.refs"] > 0
    assert values["uniproc.cpi_calls"] == 2 + 5
    assert values["gspn.runs"] == 2 + 5
    assert values["caches.fast_frac"] == 1.0


def test_missrate_traced_counts_equal_tallies(tmp_path):
    settings = small_missrate()
    tracer, result = traced(
        lambda: missrate_cold.execute(settings, 1, cache_dir=tmp_path / "c"))
    values = _assert_cross_check(tracer, result)
    assert result.failed == 0
    assert values["runner.cache_misses"] == 4
    assert values["trace.refs"] > 0 and values["runner.cache_store_s"] > 0


def test_splash_traced_counts_equal_tallies():
    settings = small_splash()
    tracer, result = traced(lambda: splash_mp.execute(settings, 1))
    values = _assert_cross_check(tracer, result)
    assert result.failed == 0
    assert values["mp.ops"] > 0 and values["mp.accesses"] > 0


# -- digests ------------------------------------------------------------------


def test_digest_is_the_same_at_one_and_nproc_jobs(tmp_path):
    tasks = small_uniproc()
    assert (uniproc_cpi.execute(tasks, 1).digest
            == uniproc_cpi.execute(tasks, 2).digest)
    settings = small_missrate()
    one = missrate_cold.execute(settings, 1, cache_dir=tmp_path / "a")
    two = missrate_cold.execute(settings, 2, cache_dir=tmp_path / "b")
    assert one.digest == two.digest


def test_digest_follows_the_seed():
    other = uniproc_cpi.plan(SEED + 1, table4_names=("126.gcc",),
                             figure11_names=(),
                             table4=dict(with_victim=True, trace_len=8_000,
                                         instructions=400))
    same = uniproc_cpi.plan(SEED, table4_names=("126.gcc",),
                            figure11_names=(),
                            table4=dict(with_victim=True, trace_len=8_000,
                                        instructions=400))
    assert (uniproc_cpi.execute(other, 1).digest
            != uniproc_cpi.execute(same, 1).digest)


# -- output checks -------------------------------------------------------------


def test_exact_engines_agree_and_kernels_verify():
    assert missrate_cold.exact_agrees(SEED, names=("126.gcc",),
                                      trace_len=4_000) == (1, 0)
    checked, failed = splash_mp.verify_kernels(SEED, procs=2)
    assert checked == 4 and failed == 0


def test_a_wrong_instruction_count_fails_the_check():
    task = small_uniproc()[0]
    cpis = [(1.2, 0.3)]
    assert uniproc_cpi._task_ok(task, cpis, [(False, 400)])
    assert not uniproc_cpi._task_ok(task, cpis, [(False, 399)])
    assert not uniproc_cpi._task_ok(task, cpis, [(True, 400)])
    assert not uniproc_cpi._task_ok(task, [(0.5, 0.0)], [(False, 400)])


# -- host speed -------------------------------------------------------------------


def test_host_timed_tasks_keep_their_cache_identity():
    task = small_uniproc()[0]
    (timed,) = host_timed([task])
    assert timed.entry_point() == task.entry_point()
    assert timed.call_id() == task.call_id()
    assert timed.kwargs == task.kwargs
    record = timed.fn(**timed.kwargs)
    assert record.result == task.fn(**task.kwargs)
    assert record.scale > 0 and record.kernel_s > 0


def test_host_speed_samples_while_the_block_runs():
    with HostSpeed(period_s=0.005) as host:
        time.sleep(0.1)
    assert len(host.samples) >= 3
    assert host.scale == REFERENCE_KERNEL_S / statistics.median(host.samples)


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in run.WORKLOADS if n != "warm-replay"]
    assert spec["end_to_end"] == run.END_TO_END
    assert spec["per_layer"] == [
        {key: m[key] for key in ("name", "unit", "better")}
        for m in layers.PER_LAYER
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
