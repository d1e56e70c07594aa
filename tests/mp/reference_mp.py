"""Reference MP engine: the per-op interpreter the flattened engine replaced.

The bodies below are the pre-optimisation ``repro.mp.node``,
``repro.mp.system`` and ``repro.mp.engine`` modules, copied verbatim
and concatenated in that order; only their imports are merged.  They
still import the caches, the Inter-Node Cache, the directory, the
fabric and the layout from ``src/``; ``golden_mp.json`` pins those
against the pre-optimisation tree.  ``tests/mp/test_engine_exact.py``
and ``scripts/check_fast_paths.py`` run every kernel on both engines
and require identical results and statistics.

Do not edit the bodies to follow changes in ``src/repro/mp``: this
module is the oracle they are checked against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Protocol

from repro import obs
from repro.caches.column_buffer import ColumnBufferCache
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.coherence.inc import InterNodeCache
from repro.coherence.protocol import Directory
from repro.common import tally
from repro.common.errors import ConfigError, SimulationError
from repro.common.params import (
    COHERENCE_UNIT_BYTES,
    CacheGeometry,
    IntegratedDeviceParams,
    MPLatencies,
)
from repro.common.units import KB, MB
from repro.interconnect.fabric import Fabric, MessageType
from repro.mp.layout import Layout
from repro.mp.ops import Barrier, Compute, Lock, Op, Read, Unlock, Write

# -- repro/mp/node.py ---------------------------------------------------------


class HitLevel(Enum):
    """Which level served a data reference (maps to Table 6 latencies)."""

    CACHE = "cache"  # column buffer / FLC: 1 cycle
    VICTIM = "victim"  # victim cache: 1 cycle
    LOCAL_MEMORY = "local_memory"  # 6 cycles (a local miss fill)
    INC = "inc"  # 6 + 1 tag-check cycles
    SLC = "slc"  # reference second level: 6 cycles
    REMOTE = "remote"  # 80 cycles
    PAGE_FAULT = "page_fault"  # S-COMA page allocation (software cost)


class NodeMemory(Protocol):
    node_id: int

    def lookup(self, addr: int, is_local: bool) -> HitLevel: ...

    def fill_remote(self, addr: int) -> None: ...

    def invalidate(self, addr: int) -> None: ...

    def holds_remote(self, addr: int) -> bool: ...


class IntegratedNode:
    """The proposed processor/memory device as one CC-NUMA node."""

    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        inc_bytes: int = 1 * MB,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.params = params or IntegratedDeviceParams()
        self.victim = VictimCache(self.params.victim) if with_victim else None
        self.columns = ColumnBufferCache(
            self.params.dcache_geometry, victim=self.victim
        )

        def _inc_evicted(addr: int) -> None:
            # Staged victim copies are tied to INC residency.
            if self.victim is not None:
                self.victim.invalidate(addr)
            if on_remote_eviction is not None:
                on_remote_eviction(self.node_id, addr)

        self.inc = InterNodeCache(inc_bytes, on_evict=_inc_evicted)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if is_local:
            # Column buffers (and their victim) cache local memory; a miss
            # loads the column as part of the same DRAM access.
            if self.columns.access(addr):
                if self.columns.last_hit_was_victim:
                    return HitLevel.VICTIM
                return HitLevel.CACHE
            return HitLevel.LOCAL_MEMORY
        # Remote data: victim staging buffer first, then the INC.
        if self.victim is not None and self.victim.probe(addr):
            return HitLevel.VICTIM
        if self.inc.probe(addr):
            return HitLevel.INC
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self.inc.install(addr)
        if self.victim is not None:
            # The victim cache doubles as the staging area for imports
            # (Section 4.1).
            self.victim.insert(addr)

    def invalidate(self, addr: int) -> None:
        self.inc.invalidate(addr)
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self.inc.contains(addr)


class SCOMANode(IntegratedNode):
    """The integrated device in Simple-COMA mode (Section 4.2, [21]).

    Instead of a fixed Inter-Node Cache, imported data is *allocated* in
    local memory at page granularity: the first touch of a remote page
    takes a software page fault, each block is fetched on first use, and
    thereafter the page behaves exactly like local memory — served by the
    column buffers at local latencies.  The whole local DRAM becomes an
    attraction memory, trading allocation cost for capacity.
    """

    def __init__(
        self,
        node_id: int,
        params: IntegratedDeviceParams | None = None,
        page_bytes: int = 4096,
        with_victim: bool = True,
        on_remote_eviction: Callable[[int, int], None] | None = None,
    ) -> None:
        super().__init__(
            node_id,
            params=params,
            with_victim=with_victim,
            on_remote_eviction=on_remote_eviction,
        )
        self.page_bytes = page_bytes
        self._pages: set[int] = set()  # allocated remote pages
        self._valid_blocks: set[int] = set()  # fetched remote blocks
        self.page_faults = 0

    def _page(self, addr: int) -> int:
        return addr // self.page_bytes

    def _block(self, addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if is_local:
            return super().lookup(addr, True)
        if self._page(addr) not in self._pages:
            self.page_faults += 1
            return HitLevel.PAGE_FAULT
        if self._block(addr) not in self._valid_blocks:
            return HitLevel.REMOTE
        # Allocated and valid: behaves exactly like local memory.
        return super().lookup(addr, True)

    def fill_remote(self, addr: int) -> None:
        self._pages.add(self._page(addr))
        self._valid_blocks.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._valid_blocks.discard(self._block(addr))
        # The column buffers may cache the stale block inside a 512 B
        # line; validity is re-checked via _valid_blocks on every lookup,
        # so no column flush is needed.
        if self.victim is not None:
            self.victim.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._valid_blocks


class ReferenceNode:
    """Reference CC-NUMA node: 16 KB direct-mapped FLC + infinite SLC."""

    def __init__(
        self,
        node_id: int,
        flc_geometry: CacheGeometry | None = None,
    ) -> None:
        self.node_id = node_id
        self.flc = SetAssociativeCache(
            flc_geometry or CacheGeometry(16 * KB, COHERENCE_UNIT_BYTES, 1)
        )
        self._slc: set[int] = set()  # infinite: resident block addresses

    @staticmethod
    def _block(addr: int) -> int:
        return addr - (addr % COHERENCE_UNIT_BYTES)

    def lookup(self, addr: int, is_local: bool) -> HitLevel:
        if self.flc.access(addr):
            return HitLevel.CACHE
        if self._block(addr) in self._slc:
            return HitLevel.SLC  # the FLC access above refilled the line
        if is_local:
            self._slc.add(self._block(addr))
            return HitLevel.LOCAL_MEMORY
        return HitLevel.REMOTE

    def fill_remote(self, addr: int) -> None:
        self._slc.add(self._block(addr))

    def invalidate(self, addr: int) -> None:
        self._slc.discard(self._block(addr))
        self.flc.invalidate(addr)

    def holds_remote(self, addr: int) -> bool:
        return self._block(addr) in self._slc

# -- repro/mp/system.py -------------------------------------------------------


class SystemKind(Enum):
    """The three configurations of Figures 13-17, plus Simple-COMA.

    The paper's protocol engines support both CC-NUMA and Simple-COMA
    operation (Section 4.2); the evaluation section uses CC-NUMA, and the
    S-COMA mode is provided as the documented extension.
    """

    INTEGRATED = "integrated"  # column buffers + victim cache + INC
    INTEGRATED_NO_VICTIM = "integrated-no-victim"
    REFERENCE = "reference"  # 16 KB FLC + infinite SLC CC-NUMA
    SCOMA = "scoma"  # integrated device, Simple-COMA attraction memory


@dataclass
class AccessStats:
    by_level: dict[HitLevel, int] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    local: int = 0
    remote: int = 0
    upgrades: int = 0
    recalls: int = 0

    def record_level(self, level: HitLevel) -> None:
        self.by_level[level] = self.by_level.get(level, 0) + 1

    def imbalance(self, others: list["AccessStats"]) -> float:
        """Max/mean access-count ratio across per-node stats."""
        counts = [s.total for s in others]
        mean = sum(counts) / len(counts) if counts else 0
        return max(counts) / mean if mean else 0.0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def hit_fraction(self, level: HitLevel) -> float:
        return self.by_level.get(level, 0) / self.total if self.total else 0.0


class MPSystem:
    """A CC-NUMA machine built from integrated or reference nodes."""

    def __init__(
        self,
        num_nodes: int,
        kind: SystemKind = SystemKind.INTEGRATED,
        latencies: MPLatencies | None = None,
        layout: Layout | None = None,
        inc_bytes: int = 1 * MB,
        device_params: IntegratedDeviceParams | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("need at least one node")
        self.kind = kind
        self.latencies = latencies or MPLatencies()
        self.layout = layout or Layout(num_nodes)
        self.directory = Directory(num_nodes=num_nodes)
        self.fabric = Fabric(device_params)
        self.stats = AccessStats()
        self.node_stats = [AccessStats() for _ in range(num_nodes)]

        def _remote_evicted(node_id: int, addr: int) -> None:
            self.directory.record_eviction(addr, node_id)

        if kind is SystemKind.REFERENCE:
            self.nodes = [ReferenceNode(i) for i in range(num_nodes)]
            self._reference_evictions = True
        elif kind is SystemKind.SCOMA:
            self.nodes = [
                SCOMANode(i, params=device_params,
                          on_remote_eviction=_remote_evicted)
                for i in range(num_nodes)
            ]
            self._reference_evictions = False
        else:
            with_victim = kind is SystemKind.INTEGRATED
            self.nodes = [
                IntegratedNode(
                    i,
                    params=device_params,
                    inc_bytes=inc_bytes,
                    with_victim=with_victim,
                    on_remote_eviction=_remote_evicted,
                )
                for i in range(num_nodes)
            ]
            self._reference_evictions = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # -- the protocol -------------------------------------------------------

    def access(self, node_id: int, addr: int, write: bool) -> int:
        """Apply one reference; returns its latency in cycles."""
        home = self.layout.home_of(addr)
        local = home == node_id
        for stats in (self.stats, self.node_stats[node_id]):
            if write:
                stats.writes += 1
            else:
                stats.reads += 1
            if local:
                stats.local += 1
            else:
                stats.remote += 1
        self._current_node_stats = self.node_stats[node_id]
        if local:
            return self._local_access(node_id, addr, write)
        return self._remote_access(node_id, addr, home, write)

    def _record_level(self, level: HitLevel) -> None:
        self.stats.record_level(level)
        self._current_node_stats.record_level(level)

    def _invalidate_copies(self, addr: int, victims: set[int]) -> None:
        for victim in victims:
            self.nodes[victim].invalidate(addr)
        if victims:
            self.fabric.send(MessageType.INVALIDATE, len(victims))
            self.fabric.send(MessageType.ACK, len(victims))

    def _local_access(self, node_id: int, addr: int, write: bool) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if directory.is_remote_exclusive(addr, node_id):
            # Recall the dirty block from its remote owner before touching
            # local memory (round-trip latency dominates).
            self.stats.recalls += 1
            owner = directory.entry(addr).owner
            if write:
                victims = directory.record_write(addr, node_id, node_id)
                self._invalidate_copies(addr, victims)
            else:
                directory.record_read(addr, node_id, node_id)
                self.fabric.send(MessageType.READ_REQUEST)
            self.fabric.send(MessageType.WRITEBACK)
            node.lookup(addr, is_local=True)  # keep cache state coherent
            self._record_level(HitLevel.REMOTE)
            del owner
            return lat.invalidation_round_trip
        if write:
            victims = directory.copies_to_invalidate(addr, node_id)
            level = node.lookup(addr, is_local=True)
            self._record_level(level)
            if victims:
                self.stats.upgrades += 1
                directory.record_write(addr, node_id, node_id)
                self._invalidate_copies(addr, victims)
                return lat.invalidation_round_trip
            return self._local_level_latency(level)
        level = node.lookup(addr, is_local=True)
        self._record_level(level)
        return self._local_level_latency(level)

    def _local_level_latency(self, level: HitLevel) -> int:
        lat = self.latencies
        if level is HitLevel.CACHE:
            return lat.cache_hit if not self._reference_evictions else lat.flc_hit
        if level is HitLevel.VICTIM:
            return lat.victim_hit
        if level is HitLevel.SLC:
            return lat.slc_hit
        return lat.local_memory

    def _remote_access(self, node_id: int, addr: int, home: int, write: bool) -> int:
        node = self.nodes[node_id]
        lat = self.latencies
        directory = self.directory
        if write:
            if directory.is_owner(addr, node_id):
                level = node.lookup(addr, is_local=False)
                if level in (HitLevel.CACHE, HitLevel.VICTIM):
                    self._record_level(level)
                    return lat.victim_hit
                if level in (HitLevel.INC, HitLevel.SLC):
                    self._record_level(level)
                    return lat.inc_access if not self._reference_evictions else lat.slc_hit
                if level is HitLevel.LOCAL_MEMORY:
                    self._record_level(level)
                    return lat.local_memory
                # The eviction callback downgraded us; fall through.
            # Upgrade or remote write miss: fetch ownership, invalidating
            # every other copy (one lumped round trip, Table 6).
            self.stats.upgrades += 1
            victims = directory.record_write(addr, node_id, home)
            self._invalidate_copies(addr, victims)
            node.fill_remote(addr)
            self.fabric.send(MessageType.WRITE_REQUEST)
            self.fabric.send(MessageType.READ_REPLY)
            self._record_level(HitLevel.REMOTE)
            return lat.invalidation_round_trip
        level = node.lookup(addr, is_local=False)
        if level in (HitLevel.CACHE, HitLevel.VICTIM):
            self._record_level(level)
            return lat.victim_hit if not self._reference_evictions else lat.flc_hit
        if level is HitLevel.INC:
            self._record_level(level)
            return lat.inc_access
        if level is HitLevel.SLC:
            self._record_level(level)
            return lat.slc_hit
        if level is HitLevel.LOCAL_MEMORY:
            # S-COMA attraction-memory hit: the imported page lives in
            # local DRAM and is served at local latency.
            self._record_level(level)
            return lat.local_memory
        # Remote load: to the home (and possibly on to a dirty owner),
        # one lumped 80-cycle latency (Table 6).  An S-COMA first touch of
        # the page additionally pays the software allocation fault.
        directory.record_read(addr, node_id, home)
        node.fill_remote(addr)
        self.fabric.send(MessageType.READ_REQUEST)
        self.fabric.send(MessageType.READ_REPLY)
        self._record_level(level if level is HitLevel.PAGE_FAULT
                                else HitLevel.REMOTE)
        if level is HitLevel.PAGE_FAULT:
            return lat.scoma_page_fault + lat.remote_load
        return lat.remote_load

# -- repro/mp/engine.py -------------------------------------------------------

KernelFactory = Callable[[int, int], Iterator[Op]]
"""Builds the op stream for (proc_id, num_procs)."""


@dataclass
class _LockState:
    holder: int | None = None
    waiters: list[int] = field(default_factory=list)  # FIFO proc ids


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
        n = self.system.num_nodes
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
        blocked_since: dict[int, int] = {}
        total_ops = 0

        def resume(proc: int, at_time: int) -> None:
            time[proc] = at_time
            heapq.heappush(ready, (at_time, proc))

        while ready:
            now, proc = heapq.heappop(ready)
            if finished[proc] or now < time[proc]:
                continue  # stale entry
            try:
                op = next(procs[proc])
            except StopIteration:
                finished[proc] = True
                continue
            total_ops += 1
            ops_executed[proc] += 1
            if total_ops > self.max_ops:
                raise SimulationError("MP op budget exceeded")

            if isinstance(op, (Read, Write)):
                latency = self.system.access(proc, op.addr, isinstance(op, Write))
                resume(proc, now + latency)
            elif isinstance(op, Compute):
                resume(proc, now + max(0, op.cycles))
            elif isinstance(op, Lock):
                state = locks.setdefault(op.lock_id, _LockState())
                if state.holder is None:
                    state.holder = proc
                    latency = self.system.access(proc, self._lock_addr(op.lock_id), True)
                    resume(proc, now + latency)
                else:
                    state.waiters.append(proc)
                    blocked_since[proc] = now
            elif isinstance(op, Unlock):
                state = locks.get(op.lock_id)
                if state is None or state.holder != proc:
                    raise SimulationError(
                        f"proc {proc} unlocked lock {op.lock_id} it does not hold"
                    )
                latency = self.system.access(proc, self._lock_addr(op.lock_id), True)
                release_time = now + latency
                if state.waiters:
                    waiter = state.waiters.pop(0)
                    state.holder = waiter
                    start = release_time + self.lock_transfer_cycles
                    lock_wait[waiter] += start - blocked_since.pop(waiter)
                    resume(waiter, start)
                else:
                    state.holder = None
                resume(proc, release_time)
            elif isinstance(op, Barrier):
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
            else:  # pragma: no cover - exhaustive over Op
                raise SimulationError(f"unknown op {op!r}")

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
        """Locks are distributed round-robin over the nodes' regions."""
        region = self.system.layout.region_bytes
        home = lock_id % self.system.num_nodes
        # Locks occupy the top 64 KB of each region, clear of data allocations.
        offset = region - 0x1_0000 + (lock_id // self.system.num_nodes) * 64
        return home * region + offset
