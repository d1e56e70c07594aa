"""Execution-driven multiprocessor engine.

Each processor runs a real Python kernel (a generator over
:mod:`repro.mp.ops`); the engine interleaves processors by simulated
time — the CacheMire methodology of Section 6.1: processors issue memory
accesses, and the architecture model delays them according to Table 6.

Scheduling is an event queue of runnable processors ordered by
``(time, proc_id)``, which makes runs deterministic.  Locks are FIFO;
barriers release all participants at the latest arrival plus a fixed
overhead.

Run-ahead.  After a Read, Write or Compute at ``now``, a processor is
due again at ``(at, proc)`` with ``at = now + latency``.  Pushing that
entry and popping the queue would hand the same processor straight
back whenever ``(at, proc) < ready[0]``: no queued processor is due
earlier, and a tie on time goes to the lower id.  So the engine keeps
running it without touching the queue.  The queue's head cannot change
while one processor runs (only synchronization pushes, and it ends the
run), so it is read once per run.  Once ``(at, proc)`` passes the head,
one ``heapreplace`` pushes the processor and pops the head, which is
what the push and pop would have done.  Every op therefore executes in
exactly the ``(time, proc_id)`` order of the plain event loop, and the
results are unchanged.  ``time[proc]`` is brought up to date before
any synchronization op reads it.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.common import tally
from repro.common.errors import SimulationError
from repro.mp.ops import Barrier, Compute, Lock, Op, Read, Unlock, Write
from repro.mp.system import MPSystem

KernelFactory = Callable[[int, int], Iterator[Op]]
"""Builds the op stream for (proc_id, num_procs)."""

LOCK_AREA_BYTES = 0x1_0000
"""Locks occupy the top 64 KB of each node's region, clear of data."""
LOCK_STRIDE = 64
"""Bytes between consecutive locks on one node."""


@dataclass
class _LockState:
    addr: int
    holder: int | None = None
    waiters: deque[int] = field(default_factory=deque)  # FIFO proc ids


@dataclass
class _BarrierState:
    waiting: list[int] = field(default_factory=list)
    latest_arrival: int = 0


@dataclass
class MPResult:
    """Outcome of one multiprocessor run."""

    finish_times: list[int]
    ops_executed: list[int]
    lock_wait_cycles: list[int]
    barrier_wait_cycles: list[int]

    @property
    def execution_time(self) -> int:
        """Total execution time: when the last processor finished."""
        return max(self.finish_times) if self.finish_times else 0

    @property
    def total_ops(self) -> int:
        return sum(self.ops_executed)


class MPEngine:
    """Drives one kernel on one system configuration."""

    def __init__(
        self,
        system: MPSystem,
        barrier_overhead: int = 100,
        lock_transfer_cycles: int = 80,
        max_ops: int = 200_000_000,
    ) -> None:
        self.system = system
        self.barrier_overhead = barrier_overhead
        self.lock_transfer_cycles = lock_transfer_cycles
        self.max_ops = max_ops

    def run(self, kernel: KernelFactory) -> MPResult:
        with obs.span("mp/run"):
            return self._run(kernel)

    def _run(self, kernel: KernelFactory) -> MPResult:
        system = self.system
        access = system.access
        n = system.num_nodes
        max_ops = self.max_ops
        procs = [kernel(i, n) for i in range(n)]
        time = [0] * n
        finished = [False] * n
        ops_executed = [0] * n
        lock_wait = [0] * n
        barrier_wait = [0] * n
        locks: dict[int, _LockState] = {}
        barriers: dict[int, _BarrierState] = {}
        ready: list[tuple[int, int]] = [(0, i) for i in range(n)]
        heapq.heapify(ready)
        heappush, heappop, heapreplace = (
            heapq.heappush, heapq.heappop, heapq.heapreplace)
        blocked_since: dict[int, int] = {}
        total_ops = 0

        def resume(proc: int, at_time: int) -> None:
            time[proc] = at_time
            heappush(ready, (at_time, proc))

        def synchronize(op: Op, proc: int, now: int) -> None:
            """A Lock, Unlock or Barrier (or an op of a subclass of Read,
            Write or Compute) issued by ``proc`` at ``now``."""
            kind = _op_type(op)
            if kind is Lock:
                state = locks.get(op.lock_id)
                if state is None:
                    state = locks[op.lock_id] = _LockState(
                        self._lock_addr(op.lock_id))
                if state.holder is None:
                    state.holder = proc
                    resume(proc, now + access(proc, state.addr, True))
                else:
                    state.waiters.append(proc)
                    blocked_since[proc] = now
            elif kind is Unlock:
                state = locks.get(op.lock_id)
                if state is None or state.holder != proc:
                    raise SimulationError(
                        f"proc {proc} unlocked lock {op.lock_id} it does not hold"
                    )
                release_time = now + access(proc, state.addr, True)
                if state.waiters:
                    waiter = state.waiters.popleft()
                    state.holder = waiter
                    start = release_time + self.lock_transfer_cycles
                    lock_wait[waiter] += start - blocked_since.pop(waiter)
                    resume(waiter, start)
                else:
                    state.holder = None
                resume(proc, release_time)
            elif kind is Barrier:
                state = barriers.setdefault(op.barrier_id, _BarrierState())
                state.waiting.append(proc)
                state.latest_arrival = max(state.latest_arrival, now)
                if len(state.waiting) == n:
                    release = state.latest_arrival + self.barrier_overhead
                    for waiter in state.waiting:
                        barrier_wait[waiter] += release - (
                            time[waiter] if waiter != proc else now
                        )
                        resume(waiter, release)
                    barriers[op.barrier_id] = _BarrierState()
                # else: the processor stays blocked (not re-queued).
            elif kind is Compute:
                resume(proc, now + max(0, op.cycles))
            else:
                resume(proc, now + access(proc, op.addr, kind is Write))

        now, proc = heappop(ready)
        while True:
            if not finished[proc] and now >= time[proc]:  # else: stale
                burst_start = total_ops
                requeue = None
                # The queue's head stays put during a burst.
                head_time, head_proc = ready[0] if ready else (math.inf, n)
                for op in procs[proc]:
                    total_ops += 1
                    if total_ops > max_ops:
                        raise SimulationError("MP op budget exceeded")
                    kind = type(op)
                    if kind is Read:
                        now += access(proc, op.addr, False)
                    elif kind is Write:
                        now += access(proc, op.addr, True)
                    elif kind is Compute:
                        cycles = op.cycles
                        if cycles > 0:
                            now += cycles
                    else:
                        time[proc] = now
                        synchronize(op, proc, now)
                        break
                    # Run ahead while (now, proc) < (head_time, head_proc).
                    if now >= head_time and (now > head_time
                                             or proc > head_proc):
                        time[proc] = now
                        requeue = (now, proc)
                        break
                else:
                    time[proc] = now
                    finished[proc] = True
                ops_executed[proc] += total_ops - burst_start
                if requeue is not None:
                    # Push this processor and pop the head in one step.
                    now, proc = heapreplace(ready, requeue)
                    continue
            if not ready:
                break
            now, proc = heappop(ready)
        if not all(finished):
            stuck = [i for i, done in enumerate(finished) if not done]
            raise SimulationError(f"deadlock: processors {stuck} never finished")
        tally.add("mp_ops", total_ops)
        return MPResult(
            finish_times=time,
            ops_executed=ops_executed,
            lock_wait_cycles=lock_wait,
            barrier_wait_cycles=barrier_wait,
        )

    def _lock_addr(self, lock_id: int) -> int:
        """Locks are distributed round-robin over the nodes' regions.

        Lock ``id`` is slot ``id // n`` of node ``id % n``'s lock area, so
        ids run from 0 to ``n * LOCK_AREA_BYTES // LOCK_STRIDE - 1``.
        """
        n = self.system.num_nodes
        limit = n * (LOCK_AREA_BYTES // LOCK_STRIDE)
        if not 0 <= lock_id < limit:
            raise SimulationError(
                f"lock id {lock_id} outside the lock area: a {n}-node "
                f"system has lock ids 0 to {limit - 1}"
            )
        region = self.system.layout.region_bytes
        home = lock_id % n
        offset = region - LOCK_AREA_BYTES + (lock_id // n) * LOCK_STRIDE
        return home * region + offset


_OP_TYPES = (Read, Write, Compute, Lock, Unlock, Barrier)


def _op_type(op: Op) -> type:
    """The op class ``op`` is an instance of."""
    for cls in _OP_TYPES:
        if isinstance(op, cls):
            return cls
    raise SimulationError(f"unknown op {op!r}")
