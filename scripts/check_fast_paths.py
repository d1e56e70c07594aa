#!/usr/bin/env python
"""CI gate for the fast paths (vectorized caches, compiled GSPN
evaluator, flattened MP engine): exactness and speedup.

Five properties, all hard requirements:

- **Exactness** — on a realistic mixed workload (SPEC proxy traces),
  the fast engines must produce results identical to the
  object-oriented simulators, field by field: per-reference miss
  flags, victim-hit flags, load/store hit splits, evictions,
  writebacks, and every victim counter.  This is the same differential
  contract the hypothesis suites in ``tests/caches`` pin on random
  traces, re-checked here on the traces the figures actually use.
- **Engagement** — the fast engines must beat the object-oriented
  oracle in-process by at least ``MIN_INPROCESS_SPEEDUP``, so a
  regression that silently falls back to the scalar path fails the
  build on any machine.  (The in-process ratio understates the
  pipeline win: the oracle loop here skips the per-block span
  accounting the old pipeline paid.)
- **Published speedup** — the committed ``artifacts/bench`` record for
  the current code must show the fast stages at ``MIN_BENCH_SPEEDUP``
  (10x) or more over the pinned pre-fast-path baseline throughputs
  from ``BENCH_75d8751ff721.json``.  Both records come from the same
  benchmarking host, so the ratio is machine-independent in CI.
- **GSPN stream identity** — :class:`repro.gspn.sim.GSPNSimulator` must
  return the same ``SimResult`` and leave the RNG in the same state as
  the textbook evaluator kept in ``tests/gspn/reference_sim.py``, on the
  integrated and conventional Figure 10 nets and a tracked Section 5.6
  4-bank run, and beat it by ``MIN_GSPN_SPEEDUP`` in process CPU time
  measured in this process (a ratio, so no wall-clock gate).
- **MP engine exactness** — :class:`repro.mp.engine.MPEngine` must leave
  the same snapshot (``MPResult``, access statistics by level, fabric,
  directory, every node's cache counters and contents) as the
  step-by-step engine kept in ``tests/mp/reference_mp.py``, on the five
  SPLASH kernels of Figures 13-17 at 4 processors on the integrated and
  reference systems, and beat it by ``MIN_MP_SPEEDUP`` in process CPU
  time.

Run directly::

    python scripts/check_fast_paths.py [--out report.json]

Exit status is non-zero on any mismatch or a missed speedup floor.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT))  # tests.gspn / tests.mp oracles

TRACE_LEN = 120_000
PROXIES = ("126.gcc", "101.tomcatv", "134.perl")
MIN_INPROCESS_SPEEDUP = 3.0
MIN_BENCH_SPEEDUP = 10.0
MIN_GSPN_SPEEDUP = 2.0
GSPN_INSTRUCTIONS = 6_000
MIN_MP_SPEEDUP = 1.3
MP_PROCS = 4
# Pre-fast-path pipeline throughputs (refs/s), pinned from
# artifacts/bench/BENCH_75d8751ff721.json: the per-reference
# object-oriented simulators behind the Figure 7/8 and Section 5.5
# stages before the vectorized engines replaced them.
BASELINE_REFS_PER_SEC = {
    "cache/fast/column-buffer": 198_858.9,  # was cache/run/ColumnBufferCache
    "cache/fast/two-level": 167_594.4,  # was cache/run/TwoLevelHierarchy
}


def _trace_for(name: str, trace_len: int):
    from repro.workloads.spec import get_proxy

    proxy = get_proxy(name)
    return (
        proxy.instruction_trace(trace_len, seed=0),
        proxy.data_trace(trace_len // 2, seed=0),
    )


def _identical(fast, exact) -> list[str]:
    problems = []
    if fast.miss_flags.tolist() != exact.miss_flags.tolist():
        problems.append("miss flags differ")
    if fast.victim_hit_flags.tolist() != exact.victim_hit_flags.tolist():
        problems.append("victim-hit flags differ")
    if fast.stats != exact.stats:
        problems.append(f"stats differ: {fast.stats} != {exact.stats}")
    for attr in ("main_hits", "victim_hits", "victim_probes",
                 "victim_inserts", "victim_writebacks"):
        if getattr(fast, attr) != getattr(exact, attr):
            problems.append(
                f"{attr}: {getattr(fast, attr)} != {getattr(exact, attr)}"
            )
    return problems


def check_column_buffer(trace_len: int) -> dict:
    from repro.caches.fast import simulate_column_buffer
    from repro.common.params import IntegratedDeviceParams

    device = IntegratedDeviceParams()
    refs = 0
    fast_s = exact_s = 0.0
    failures: list[str] = []
    for name in PROXIES:
        itrace, dtrace = _trace_for(name, trace_len)
        for trace, geometry, victim in (
            (itrace, device.icache_geometry, None),
            (dtrace, device.dcache_geometry, device.victim),
        ):
            t0 = time.perf_counter()
            fast = simulate_column_buffer(trace, geometry, victim)
            fast_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            exact = simulate_column_buffer(trace, geometry, victim,
                                           engine="exact")
            exact_s += time.perf_counter() - t0
            refs += len(trace)
            failures += [f"{name}: {p}" for p in _identical(fast, exact)]
    return {
        "refs": refs,
        "fast_s": fast_s,
        "exact_s": exact_s,
        "speedup": exact_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_two_level(trace_len: int) -> dict:
    from repro.caches.fast import simulate_two_level
    from repro.common.params import ConventionalSystemParams

    params = ConventionalSystemParams()
    refs = 0
    fast_s = exact_s = 0.0
    failures: list[str] = []
    for name in PROXIES:
        itrace, dtrace = _trace_for(name, trace_len)
        for trace, l1 in ((itrace, params.l1i), (dtrace, params.l1d)):
            t0 = time.perf_counter()
            fast = simulate_two_level(trace, l1, params.l2)
            fast_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            exact = simulate_two_level(trace, l1, params.l2, engine="exact")
            exact_s += time.perf_counter() - t0
            refs += len(trace)
            if fast != exact:
                failures.append(f"{name}: HierarchyStats differ")
    return {
        "refs": refs,
        "fast_s": fast_s,
        "exact_s": exact_s,
        "speedup": exact_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_measurement(trace_len: int) -> dict:
    """The full measurement layer (shared-L2 merge included)."""
    from repro.uniproc.measurement import (
        measure_conventional,
        measure_integrated,
    )
    from repro.workloads.spec import get_proxy

    failures: list[str] = []
    for name in PROXIES:
        proxy = get_proxy(name)
        for fn in (measure_integrated, measure_conventional):
            fast = fn(proxy, trace_len)
            exact = fn(proxy, trace_len, engine="exact")
            if fast != exact:
                failures.append(f"{name}/{fn.__name__}: MissRates differ")
    return {"failures": failures}


def check_gspn(instructions: int) -> dict:
    """Compiled evaluator vs. the reference token game: identical
    results and RNG state, and the in-process CPU-time ratio."""
    from repro.common.rng import make_rng
    from repro.gspn.models import ISSUE_TRANSITION, bank_ready_place, registered_nets
    from repro.gspn.sim import GSPNSimulator
    from tests.gspn.reference_sim import GSPNSimulator as ReferenceSimulator

    def timed_run(engine, net, track):
        rng = make_rng(0)
        t0 = time.process_time()
        result = engine(net, rng, track_places=track).run(
            stop_transition=ISSUE_TRANSITION, stop_count=instructions
        )
        return result, rng.bit_generator.state, time.process_time() - t0

    nets = registered_nets()
    cases = (
        ("fig10.integrated", ()),
        ("fig10.conventional", ()),
        ("sec5.6.banks4", tuple(bank_ready_place(b) for b in range(4))),
    )
    firings = 0
    fast_s = oracle_s = 0.0
    failures: list[str] = []
    for name, track in cases:
        fast, fast_state, fast_cpu = timed_run(GSPNSimulator, nets[name], track)
        oracle, oracle_state, oracle_cpu = timed_run(
            ReferenceSimulator, nets[name], track
        )
        firings += fast.events
        fast_s += fast_cpu
        oracle_s += oracle_cpu
        if fast != oracle:
            failures.append(f"{name}: SimResult differs from the reference")
        if fast_state != oracle_state:
            failures.append(f"{name}: RNG state differs from the reference")
    return {
        "firings": firings,
        "fast_cpu_s": fast_s,
        "oracle_cpu_s": oracle_s,
        "speedup": oracle_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_mp() -> dict:
    """Flattened MP engine vs. the reference copy: identical snapshots,
    and the in-process CPU-time ratio."""
    from repro.analysis.experiments import PAPER_SPLASH_KERNELS
    from repro.mp.engine import MPEngine
    from repro.mp.system import MPSystem, SystemKind
    from repro.workloads.splash import KERNELS
    from tests.mp import reference_mp
    from tests.mp.snapshot import snapshot

    def timed_run(engine_cls, system_cls, kind, name):
        kernel = KERNELS[name]()
        system = system_cls(MP_PROCS, kind)
        factory = kernel.build(MP_PROCS, system.layout)
        t0 = time.process_time()
        result = engine_cls(system).run(factory)
        cpu = time.process_time() - t0
        return snapshot(result, system), result.total_ops, cpu

    ops = 0
    fast_s = oracle_s = 0.0
    failures: list[str] = []
    for name in PAPER_SPLASH_KERNELS:
        for kind in (SystemKind.INTEGRATED, SystemKind.REFERENCE):
            fast, fast_ops, fast_cpu = timed_run(MPEngine, MPSystem, kind, name)
            oracle, _, oracle_cpu = timed_run(
                reference_mp.MPEngine, reference_mp.MPSystem,
                reference_mp.SystemKind(kind.value), name,
            )
            ops += fast_ops
            fast_s += fast_cpu
            oracle_s += oracle_cpu
            if fast != oracle:
                differing = sorted(k for k in fast if fast[k] != oracle[k])
                failures.append(f"{name}/{kind.value}: {differing} differ "
                                "from the reference engine")
    return {
        "ops": ops,
        "fast_cpu_s": fast_s,
        "oracle_cpu_s": oracle_s,
        "speedup": oracle_s / fast_s if fast_s else float("inf"),
        "failures": failures,
    }


def check_published_bench(bench_dir: Path) -> dict:
    """The committed BENCH record must publish the 10x stage speedups.

    Picks the newest ``BENCH_*.json`` that contains the fast stages and
    compares their ``cache_refs`` throughput against the pinned
    pre-fast-path baselines.
    """
    failures: list[str] = []
    stages: dict[str, dict] = {}
    candidates = sorted(bench_dir.glob("BENCH_*.json"),
                        key=lambda p: p.stat().st_mtime, reverse=True)
    chosen = None
    for path in candidates:
        doc = json.loads(path.read_text())
        if set(BASELINE_REFS_PER_SEC) <= set(doc.get("stages", {})):
            chosen = path
            break
    if chosen is None:
        failures.append(
            f"no BENCH_*.json under {bench_dir} publishes the fast stages "
            f"{sorted(BASELINE_REFS_PER_SEC)}"
        )
        return {"failures": failures, "stages": stages}
    doc = json.loads(chosen.read_text())
    for stage, baseline in BASELINE_REFS_PER_SEC.items():
        per_sec = doc["stages"][stage]["per_sec"]["cache_refs"]
        speedup = per_sec / baseline
        stages[stage] = {
            "refs_per_sec": per_sec,
            "baseline_refs_per_sec": baseline,
            "speedup": speedup,
        }
        if speedup < MIN_BENCH_SPEEDUP:
            failures.append(
                f"{stage}: {per_sec:,.0f} refs/s is only {speedup:.1f}x the "
                f"{baseline:,.0f} refs/s baseline (floor is "
                f"{MIN_BENCH_SPEEDUP:.0f}x)"
            )
    return {"bench_file": chosen.name, "failures": failures, "stages": stages}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--trace-len", type=int, default=TRACE_LEN)
    parser.add_argument("--bench-dir", type=Path,
                        default=REPO_ROOT / "artifacts" / "bench")
    args = parser.parse_args()

    report = {
        "kind": "fast-path-check",
        "schema": 1,
        "min_inprocess_speedup": MIN_INPROCESS_SPEEDUP,
        "min_bench_speedup": MIN_BENCH_SPEEDUP,
        "min_gspn_speedup": MIN_GSPN_SPEEDUP,
        "min_mp_speedup": MIN_MP_SPEEDUP,
        "trace_len": args.trace_len,
        "column_buffer": check_column_buffer(args.trace_len),
        "two_level": check_two_level(args.trace_len),
        "measurement": check_measurement(args.trace_len),
        "gspn": check_gspn(GSPN_INSTRUCTIONS),
        "mp": check_mp(),
        "published_bench": check_published_bench(args.bench_dir),
    }

    status = 0
    for stage in ("column_buffer", "two_level", "measurement"):
        entry = report[stage]
        for failure in entry["failures"]:
            print(f"FAIL {stage}: {failure}")
            status = 1
        if "speedup" in entry:
            line = (f"{stage}: {entry['refs']} refs, fast {entry['fast_s']:.2f}s"
                    f" vs exact {entry['exact_s']:.2f}s"
                    f" -> {entry['speedup']:.1f}x")
            if entry["speedup"] < MIN_INPROCESS_SPEEDUP:
                print(f"FAIL {line} (floor is {MIN_INPROCESS_SPEEDUP:.0f}x)")
                status = 1
            else:
                print(f"ok   {line}")
        elif not entry["failures"]:
            print(f"ok   {stage}: engines identical")
    gspn = report["gspn"]
    for failure in gspn["failures"]:
        print(f"FAIL gspn: {failure}")
        status = 1
    line = (f"gspn: {gspn['firings']} firings, compiled {gspn['fast_cpu_s']:.2f}s"
            f" vs reference {gspn['oracle_cpu_s']:.2f}s CPU"
            f" -> {gspn['speedup']:.1f}x")
    if gspn["speedup"] < MIN_GSPN_SPEEDUP:
        print(f"FAIL {line} (floor is {MIN_GSPN_SPEEDUP:.0f}x)")
        status = 1
    else:
        print(f"ok   {line}" + ("" if gspn["failures"] else ", identical"))
    mp = report["mp"]
    for failure in mp["failures"]:
        print(f"FAIL mp: {failure}")
        status = 1
    line = (f"mp: {mp['ops']} ops, flattened {mp['fast_cpu_s']:.2f}s"
            f" vs reference {mp['oracle_cpu_s']:.2f}s CPU"
            f" -> {mp['speedup']:.1f}x")
    if mp["speedup"] < MIN_MP_SPEEDUP:
        print(f"FAIL {line} (floor is {MIN_MP_SPEEDUP:.1f}x)")
        status = 1
    else:
        print(f"ok   {line}" + ("" if mp["failures"] else ", identical"))
    published = report["published_bench"]
    for failure in published["failures"]:
        print(f"FAIL published bench: {failure}")
        status = 1
    for stage, entry in published["stages"].items():
        if all(failure.split(":")[0] != stage
               for failure in published["failures"]):
            print(f"ok   {published['bench_file']} {stage}: "
                  f"{entry['refs_per_sec']:,.0f} refs/s "
                  f"({entry['speedup']:.1f}x baseline)")
    report["ok"] = status == 0

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
