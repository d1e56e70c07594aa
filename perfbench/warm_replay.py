"""warm-replay: ``python -m repro all`` against a result cache filled once.

The fill runs once per trace length and is kept under the benchmark's
state directory, so later runs in the same checkout reuse it; the
cache keys carry the code fingerprint, so a fill made by other code is
never replayed.  Each pass starts a fresh interpreter, which must serve
every task from the cache and print exactly the fill's stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import repro.__main__ as cli
from repro.analysis.registry import CLI_KNOBS, SPECS
from repro.runner import ResultCache, TaskMetrics, invalidate

from harness import (
    NPROC,
    ROOT,
    STATE_DIR,
    HostSpeed,
    PassResult,
    Stopwatch,
    computed_tallies,
    digest,
)

# `repro all` has no seed flag; the seed picks the trace length, which
# every trace-driven experiment's generators receive.  The lengths are
# short so that the one-off fill stays within a run's time limit.
TRACE_LENS = (4_000, 5_000)
PROCS = "4"
SRC = ROOT / "src"


def cli_args(trace_len: int, cache_dir: Path, jobs: int) -> list[str]:
    return ["all", "--trace-len", str(trace_len), "--procs", PROCS,
            "--jobs", str(jobs), "--cache-dir", str(cache_dir)]


def cli_overrides(trace_len: int) -> dict[str, dict]:
    """The per-experiment kwargs the CLI derives from the flags above."""
    provided = {"trace_len": trace_len,
                "procs": tuple(int(p) for p in PROCS.split(","))}
    return {
        name: {CLI_KNOBS[flag]: value for flag, value in provided.items()
               if flag in spec.accepts}
        for name, spec in SPECS.items()
    }


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=_env(), capture_output=True, text=True)


class Workload:
    name = "warm-replay"
    cache_mode = "warm ResultCache, filled once before timing"
    work_unit = "tasks replayed"
    rate_name = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.trace_len = TRACE_LENS[seed % len(TRACE_LENS)]
        self.dir = STATE_DIR / f"warm-replay-tl{self.trace_len}"
        self.cache_dir = self.dir / "cache"
        self.expected_stdout = ""
        self.planned = 0

    def fill(self) -> None:
        """Fill the cache unless an earlier run finished doing so."""
        stdout_path = self.dir / "stdout.txt"
        if not stdout_path.exists():
            done = _cli(cli_args(self.trace_len, self.cache_dir, NPROC))
            if done.returncode != 0:
                raise RuntimeError(f"cache fill failed:\n{done.stderr}")
            partial = stdout_path.with_suffix(".tmp")
            partial.write_text(done.stdout)
            partial.replace(stdout_path)
        self.expected_stdout = stdout_path.read_text()

    def setup(self) -> None:
        """CLI imports, cache, fingerprints of every entry point, planning."""
        cache = ResultCache(self.cache_dir)
        self.planned = 0
        for name, kwargs in cli_overrides(self.trace_len).items():
            for task in SPECS[name].tasks(kwargs):
                cache.fingerprint_for(task.entry_point())
                self.planned += 1

    def _result(self, watch: Stopwatch, scale: float, jobs: int, code: int,
                stdout: str, metrics_path: Path) -> PassResult:
        metrics = (json.loads(metrics_path.read_text())
                   if metrics_path.exists() else {"tasks": [], "wall_s": 0.0})
        metrics_path.unlink(missing_ok=True)
        tasks = [TaskMetrics(**task) for task in metrics["tasks"]]
        hits = sum(1 for t in tasks if t.cache == "hit")
        ok = (code == 0 and stdout == self.expected_stdout
              and len(tasks) == self.planned)
        stats = {"stdout": digest(stdout),
                 "tallies": {f"{t.experiment}/{t.shard}": t.tallies
                             for t in tasks}}
        return PassResult(
            wall_s=watch.wall_s, cpu_s=watch.cpu_s, jobs=jobs,
            task_walls=[t.wall_s for t in tasks],
            scale=scale, task_kernel_s=[0.0] * len(tasks),
            runner_wall_s=metrics["wall_s"],
            attempted=self.planned,
            failed=self.planned - hits if ok else self.planned,
            work=hits, digest=digest(stats), tallies=computed_tallies(tasks),
            hits=hits, misses=len(tasks) - hits,
        )

    def run_pass(self, jobs: int) -> PassResult:
        metrics_path = self.dir / "metrics.json"
        args = cli_args(self.trace_len, self.cache_dir, jobs)
        # The replay runs in a child, so the host's scale is sampled
        # from this process while it waits.
        with Stopwatch() as watch, HostSpeed() as host:
            done = _cli([*args, "--metrics-out", str(metrics_path)])
        return self._result(watch, host.scale, jobs, done.returncode,
                            done.stdout, metrics_path)

    def inline_pass(self) -> PassResult:
        """The same replay inside this interpreter, where wrappers see it."""
        metrics_path = self.dir / "metrics-traced.json"
        args = cli_args(self.trace_len, self.cache_dir, 1)
        out = io.StringIO()
        with Stopwatch() as watch:
            invalidate()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*args, "--metrics-out", str(metrics_path)])
        # Passes at jobs=1 report no end-to-end metrics; left unscaled.
        return self._result(watch, 1.0, 1, code, out.getvalue(), metrics_path)

    def check(self) -> tuple[int, int]:
        """Hits and stdout are checked inside every pass; nothing extra."""
        return 0, 0
