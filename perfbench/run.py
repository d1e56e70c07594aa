"""The repository benchmark: four closed-loop workloads over the simulators.

    python3 perfbench/run.py --workload uniproc-cpi --seed 1 --seconds 20 --trace 0

Each pass is one process submitting a workload's fixed task set and
waiting for all of it, on ``nproc`` workers.  With ``--trace 0`` the
benchmark times its set-up in fresh interpreters, repeats passes for
``--seconds`` (at least three) and reports the end-to-end metrics
(medians over the passes).  Pass timings are in seconds of a reference
host: each task runs between two timings of a fixed kernel in its own
worker, and a pass's times are scaled by the host speed found there
(splash-mp, whose tasks run for seconds, samples the kernel all through
each pass instead; see ``harness.py``).  The report line also gives the
unscaled medians.  With ``--trace 1`` it runs one untraced pass, then
two passes at ``jobs=1`` in this process, the second with a wrapper
around every layer entry point (see ``layers.py``), and reports the
per-layer metrics, unscaled.  Either way it checks the program's
outputs, and the last line of stdout is the JSON result.  The paper's
modelled caches start empty in every simulation.
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

from harness import NPROC, ROOT, STATE_DIR, PassResult, peak_rss_mb  # noqa: E402

WORKLOADS = {
    "uniproc-cpi": "uniproc_cpi",
    "splash-mp": "splash_mp",
    "missrate-cold": "missrate_cold",
    # Runs by hand.  BENCHMARK.json leaves it out so that a full set of
    # benchmark runs stays within its time budget: its set-up probes take
    # about 4 s each, and each new trace length needs a 45 s cache fill.
    "warm-replay": "warm_replay",
}
# A median needs a few samples, even when one pass takes half of
# --seconds or more (uniproc-cpi and splash-mp take 11-14 s a pass).
MIN_PASSES = 3
# Set-up is timed in at least 3 fresh interpreters, and in up to 9
# while they take less than PROBE_SECONDS together.
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 3, 9, 2.0
# A seed no change may be tuned on: claims are confirmed on it last.
HOLDOUT_SEED = 7_777_777

# Scaling to the reference host takes out most of a shared host's drift,
# not all of it, so every timing keeps the largest bound allowed.
END_TO_END = [
    {"name": "makespan_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "task_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "critical_task_s", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "work_per_cpu_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
]


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_block(args, workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": NPROC,
        "jobs": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "cache_mode": workload.cache_mode,
        "modelled_caches": "start empty in every simulation",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": sys.argv[1:],
    }


def probe_setup(module: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), module, str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return None
    return {"pct": round(100 * (k + 1) / len(ordered), 1),
            "value_s": ordered[k]}


def timed_run(args, module: str, workload) -> tuple[dict, dict, list]:
    """End-to-end metrics; timings of passes in reference-host seconds.

    Set-up is reported as measured: it is mostly imports, whose time
    follows the reference kernel's less closely than the passes' does.
    """
    probes: list[float] = []
    while len(probes) < MIN_PROBES or (
            len(probes) < MAX_PROBES and sum(probes) < PROBE_SECONDS):
        probes.append(probe_setup(module, args.seed))
    passes: list[PassResult] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        passes.append(workload.run_pass(NPROC))
    walls = [w for p in passes for w in p.scaled_task_walls()]
    metrics = {
        "makespan_s": statistics.median(p.wall_s * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
        "setup_s": statistics.median(probes),
        "task_p50_s": statistics.median(walls),
        "critical_task_s": statistics.median(max(p.scaled_task_walls())
                                             for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_cpu_s": statistics.median(p.work / (p.cpu_s * p.scale)
                                            for p in passes),
    }
    report = {
        "setup_probes": len(probes),
        "passes": len(passes),
        "makespan_s_per_pass": [p.wall_s * p.scale for p in passes],
        "host_scale_per_pass": [p.scale for p in passes],
        # Medians as measured, before scaling to the reference host.
        "unscaled": {
            "makespan_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "task_p50_s": statistics.median(
                w for p in passes for w in p.task_walls),
        },
        "task_samples": len(walls),
        "task_tail": tail(walls),
        "work_unit": workload.work_unit,
    }
    if workload.rate_name:  # the workload's own name for this rate
        report[workload.rate_name] = metrics["work_per_cpu_s"]
    extras = {key for p in passes for key in p.extras}
    for key in sorted(extras):
        report[key] = statistics.median(p.extras[key] for p in passes
                                        if key in p.extras)
    return metrics, report, passes


def traced_run(args, workload) -> tuple[dict, dict, list]:
    import layers
    from spans import Tracer

    base = workload.run_pass(NPROC)
    inline = workload.inline_pass()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = workload.inline_pass()
    finally:
        tracer.restore()
    tracer.write(STATE_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    metrics = layers.per_layer(tracer, traced, inline, base)
    mismatches = layers.cross_check(metrics, traced)
    report = {
        "spans": len(tracer.spans),
        # Traced counts that differ from the program's own tallies.
        "cross_check_mismatches": {k: list(v) for k, v in mismatches.items()},
    }
    return metrics, report, [base, inline, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = WORKLOADS[args.workload]
    workload = importlib.import_module(module).Workload(args.seed)
    # Only warm-replay has work to do before set-up can be timed.
    fill = getattr(workload, "fill", None)
    if fill is not None:
        fill()
    workload.setup()
    if args.trace:
        import layers

        definitions = layers.PER_LAYER
        metrics, report, passes = traced_run(args, workload)
    else:
        definitions = END_TO_END
        metrics, report, passes = timed_run(args, module, workload)
    checked, check_failed = workload.check()

    attempted = sum(p.attempted for p in passes) + checked
    failed = sum(p.failed for p in passes) + check_failed
    digests = {p.digest for p in passes}
    # One digest across all passes: with --trace 1 that compares
    # jobs=nproc against jobs=1.
    correct = (failed == 0 and len(digests) == 1
               and not report.get("cross_check_mismatches"))
    report.update({
        "workload": args.workload,
        "host": host_block(args, workload),
        "digest": sorted(digests),
        "simulated_counts": passes[-1].tallies,
        "failed_frac": failed / attempted,
        "check_items": checked,
    })

    units = {m["name"]: m["unit"] for m in definitions}
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:26s} {value:>16.6g} {units[name]}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
