"""The shared-memory system model: nodes + directory + latencies.

``MPSystem.access`` is the heart of the MP evaluation: it routes one
read or write through the requesting node's caches and the
write-invalidate directory protocol, maintains every node's cache
contents, and returns the latency in processor cycles per Table 6.

It runs once per simulated reference, so it is built once per system
as one flat function: the node's level lookup, the directory peek, the
statistics and the Table 6 latency are all reached without a dispatch
on the system kind.  What differs between kinds is bound when the
system is built: each node's ``local_code``/``remote_code`` lookups and
three latency tables indexed by level code.  The rarer protocol
actions (recalls, upgrades, remote misses) are ordinary methods.
``tests/mp/reference_mp.py`` keeps the earlier step-by-step model, and
``tests/mp/test_engine_exact.py`` holds the two to identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable
from enum import Enum

from repro.coherence.protocol import BlockState, Directory
from repro.common.errors import ConfigError
from repro.common.params import IntegratedDeviceParams, MPLatencies
from repro.common.units import MB
from repro.interconnect.fabric import Fabric, MessageType
from repro.mp.layout import Layout
from repro.mp.node import (
    CACHE,
    INC,
    LEVELS,
    LOCAL_MEMORY,
    PAGE_FAULT,
    REMOTE,
    SLC,
    VICTIM,
    HitLevel,
    IntegratedNode,
    ReferenceNode,
    SCOMANode,
)


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
    # Hits per level, indexed by level code (see repro.mp.node.LEVELS).
    level_counts: list[int] = field(default_factory=lambda: [0] * len(LEVELS))
    reads: int = 0
    writes: int = 0
    local: int = 0
    remote: int = 0
    upgrades: int = 0
    recalls: int = 0

    @property
    def by_level(self) -> dict[HitLevel, int]:
        """Accesses served by each level that served any."""
        return {LEVELS[code]: count
                for code, count in enumerate(self.level_counts) if count}

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


AccessFn = Callable[[int, int, bool], int]
"""``access(node_id, addr, write) -> latency``: one reference."""


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
        elif kind is SystemKind.SCOMA:
            self.nodes = [
                SCOMANode(i, params=device_params,
                          on_remote_eviction=_remote_evicted)
                for i in range(num_nodes)
            ]
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
        self.access: AccessFn = self._bind_access()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # -- the protocol -------------------------------------------------------

    def _latency_tables(self) -> tuple[list, list, list]:
        """Table 6 by level code: a local hit, a remote read hit and a
        write hit on an owned remote block.  None marks a miss."""
        lat = self.latencies
        reference = self.kind is SystemKind.REFERENCE
        first_level = lat.flc_hit if reference else lat.cache_hit
        local = [lat.local_memory] * len(LEVELS)
        local[CACHE] = first_level
        local[VICTIM] = lat.victim_hit
        local[SLC] = lat.slc_hit
        read: list[int | None] = [None] * len(LEVELS)
        read[CACHE] = read[VICTIM] = (lat.flc_hit if reference
                                      else lat.victim_hit)
        read[INC] = lat.inc_access
        read[SLC] = lat.slc_hit
        # An S-COMA attraction-memory hit: the imported page lives in
        # local DRAM and is served at local latency.
        read[LOCAL_MEMORY] = lat.local_memory
        owned: list[int | None] = [None] * len(LEVELS)
        owned[CACHE] = owned[VICTIM] = lat.victim_hit
        owned[INC] = owned[SLC] = lat.slc_hit if reference else lat.inc_access
        owned[LOCAL_MEMORY] = lat.local_memory
        return local, read, owned

    def _bind_access(self) -> AccessFn:
        """Build this system's ``access``: one flat function per system,
        over the nodes' level lookups and the kind's latency tables."""
        layout = self.layout
        region_bytes, regions = layout.region_bytes, layout.num_nodes
        stats, node_stats = self.stats, self.node_stats
        levels = stats.level_counts
        node_levels = [s.level_counts for s in node_stats]
        local_code = [node.local_code for node in self.nodes]
        remote_code = [node.remote_code for node in self.nodes]
        peek_block = self.directory.peek_block
        block_bytes = self.directory.block_bytes
        local_latency, read_latency, owned_latency = self._latency_tables()
        exclusive, shared = BlockState.EXCLUSIVE, BlockState.SHARED
        recall = self._recall
        local_upgrade = self._local_upgrade
        remote_write_miss = self._remote_write_miss
        remote_read_miss = self._remote_read_miss

        def access(node_id: int, addr: int, write: bool) -> int:
            """Apply one reference; returns its latency in cycles."""
            home = addr // region_bytes
            if not 0 <= home < regions:
                layout.home_of(addr)  # raises the out-of-range ConfigError
            node_stat = node_stats[node_id]
            if write:
                stats.writes += 1
                node_stat.writes += 1
            else:
                stats.reads += 1
                node_stat.reads += 1
            if home == node_id:
                stats.local += 1
                node_stat.local += 1
                entry = peek_block(addr - addr % block_bytes)
                if entry is not None:
                    if entry.state is exclusive and entry.owner != node_id:
                        return recall(node_id, addr, write)
                    if write and entry.state is shared:
                        victims = entry.sharers - {node_id}
                        if victims:
                            return local_upgrade(node_id, addr, victims)
                code = local_code[node_id](addr)
                levels[code] += 1
                node_levels[node_id][code] += 1
                return local_latency[code]
            stats.remote += 1
            node_stat.remote += 1
            if write:
                entry = peek_block(addr - addr % block_bytes)
                if entry is None or entry.state is not exclusive \
                        or entry.owner != node_id:
                    return remote_write_miss(node_id, addr, home)
                code = remote_code[node_id](addr)
                latency = owned_latency[code]
                if latency is None:
                    # The eviction callback downgraded us.
                    return remote_write_miss(node_id, addr, home)
            else:
                code = remote_code[node_id](addr)
                latency = read_latency[code]
                if latency is None:
                    return remote_read_miss(node_id, addr, home, code)
            levels[code] += 1
            node_levels[node_id][code] += 1
            return latency

        return access

    def _count_level(self, node_id: int, code: int) -> None:
        self.stats.level_counts[code] += 1
        self.node_stats[node_id].level_counts[code] += 1

    def _invalidate_copies(self, addr: int, victims: set[int]) -> None:
        for victim in victims:
            self.nodes[victim].invalidate(addr)
        if victims:
            self.fabric.send(MessageType.INVALIDATE, len(victims))
            self.fabric.send(MessageType.ACK, len(victims))

    def _recall(self, node_id: int, addr: int, write: bool) -> int:
        """The home touches a block a remote node holds exclusive: recall
        the dirty block from its owner before touching local memory
        (round-trip latency dominates)."""
        directory = self.directory
        self.stats.recalls += 1
        if write:
            victims = directory.record_write(addr, node_id, node_id)
            self._invalidate_copies(addr, victims)
        else:
            directory.record_read(addr, node_id, node_id)
            self.fabric.send(MessageType.READ_REQUEST)
        self.fabric.send(MessageType.WRITEBACK)
        self.nodes[node_id].local_code(addr)  # keep cache state coherent
        self._count_level(node_id, REMOTE)
        return self.latencies.invalidation_round_trip

    def _local_upgrade(self, node_id: int, addr: int, victims: set[int]) -> int:
        """The home writes a block remote nodes share: invalidate them."""
        self._count_level(node_id, self.nodes[node_id].local_code(addr))
        self.stats.upgrades += 1
        self.directory.record_write(addr, node_id, node_id)
        self._invalidate_copies(addr, victims)
        return self.latencies.invalidation_round_trip

    def _remote_write_miss(self, node_id: int, addr: int, home: int) -> int:
        """Upgrade or remote write miss: fetch ownership, invalidating
        every other copy (one lumped round trip, Table 6)."""
        self.stats.upgrades += 1
        victims = self.directory.record_write(addr, node_id, home)
        self._invalidate_copies(addr, victims)
        self.nodes[node_id].fill_remote(addr)
        self.fabric.send(MessageType.WRITE_REQUEST)
        self.fabric.send(MessageType.READ_REPLY)
        self._count_level(node_id, REMOTE)
        return self.latencies.invalidation_round_trip

    def _remote_read_miss(self, node_id: int, addr: int, home: int,
                          code: int) -> int:
        """Remote load: to the home (and possibly on to a dirty owner),
        one lumped 80-cycle latency (Table 6).  An S-COMA first touch of
        the page additionally pays the software allocation fault."""
        lat = self.latencies
        self.directory.record_read(addr, node_id, home)
        self.nodes[node_id].fill_remote(addr)
        self.fabric.send(MessageType.READ_REQUEST)
        self.fabric.send(MessageType.READ_REPLY)
        if code == PAGE_FAULT:
            self._count_level(node_id, PAGE_FAULT)
            return lat.scoma_page_fault + lat.remote_load
        self._count_level(node_id, REMOTE)
        return lat.remote_load
