"""Everything an MP run leaves behind, as plain JSON.

``snapshot(result, system)`` records the :class:`MPResult`, the global
and per-node access statistics (``by_level`` included), fabric messages
and bytes, the directory's statistics and live entries, and every
node's cache, victim-buffer, Inter-Node Cache and S-COMA counters and
contents.  Two runs are equal when their snapshots are.

Run as a script to regenerate ``golden_mp.json``::

    PYTHONPATH=src python tests/mp/snapshot.py

The committed file was written by the pre-optimisation engine, so the
golden test also pins the cache, INC and directory modules that the
reference copy in ``reference_mp.py`` shares with ``src/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_mp.json")
GOLDEN_PROCS = 4
# The five paper kernels, scaled down so all the runs take a few
# seconds.
GOLDEN_KERNELS = {
    "lu": {"n": 32, "block": 4},
    "mp3d": {"particles": 400, "cells_per_dim": 6, "steps": 3},
    "ocean": {"n": 34, "iterations": 2},
    "water": {"molecules": 24, "steps": 2},
    "pthor": {"gates": 600, "steps": 8},
}
# A 2 KB Inter-Node Cache (8 sets) makes the kernels evict from it, so
# the eviction callbacks into the victim buffer and the directory run.
SMALL_INC_BYTES = 2048


def _digest(values) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _access_stats(stats) -> dict:
    return {
        "by_level": {level.value: count
                     for level, count in stats.by_level.items()},
        "reads": stats.reads,
        "writes": stats.writes,
        "local": stats.local,
        "remote": stats.remote,
        "upgrades": stats.upgrades,
        "recalls": stats.recalls,
    }


def _cache_stats(cache) -> dict:
    stats = cache.stats
    return {
        "loads": [stats.loads.hits, stats.loads.total],
        "stores": [stats.stores.hits, stats.stores.total],
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "lines": _digest(cache.resident_lines()),
    }


def _node(node) -> dict:
    out: dict = {"type": type(node).__name__}
    if hasattr(node, "columns"):
        out["columns"] = _cache_stats(node.columns)
        out["columns"]["main_hits"] = node.columns.main_hits
        out["columns"]["victim_hits"] = node.columns.victim_hits
        victim = node.victim
        if victim is not None:
            out["victim"] = {
                "probes": victim.probes,
                "hits": victim.hits,
                "inserts": victim.inserts,
                "writebacks": victim.writebacks,
                "blocks": _digest(victim.resident_blocks()),
                "dirty": _digest(sorted(victim._dirty)),
            }
        inc = node.inc
        out["inc"] = {
            "probes": inc.probes,
            "hits": inc.hits,
            "installs": inc.installs,
            "evictions": inc.evictions,
            "sets": _digest(inc._sets),
        }
    if hasattr(node, "page_faults"):
        out["scoma"] = {
            "page_faults": node.page_faults,
            "pages": _digest(sorted(node._pages)),
            "valid_blocks": _digest(sorted(node._valid_blocks)),
        }
    if hasattr(node, "flc"):
        out["flc"] = _cache_stats(node.flc)
        out["slc"] = _digest(sorted(node._slc))
    return out


def _directory(directory) -> dict:
    # Entries that are UNOWNED hold no information (a peek may or may
    # not have created them), so only the live ones are compared.
    live = sorted(
        [block, entry.state.value, sorted(entry.sharers), entry.owner]
        for block, entry in directory._entries.items()
        if entry.state.value != "unowned"
    )
    return {"stats": asdict(directory.stats), "live": _digest(live),
            "live_count": len(live)}


def snapshot(result, system) -> dict:
    """Every observable outcome of one run on ``system``."""
    messages = system.fabric.stats.messages
    return {
        "result": {
            "finish_times": list(result.finish_times),
            "ops_executed": list(result.ops_executed),
            "lock_wait_cycles": list(result.lock_wait_cycles),
            "barrier_wait_cycles": list(result.barrier_wait_cycles),
        },
        "stats": _access_stats(system.stats),
        "node_stats": [_access_stats(s) for s in system.node_stats],
        "fabric": {
            "messages": {kind.value: count for kind, count in messages.items()},
            "bytes": system.fabric.stats.bytes_sent,
        },
        "directory": _directory(system.directory),
        "nodes": [_node(node) for node in system.nodes],
    }


def log_accesses(system):
    """Route ``system.access`` through a digest of every call, in order.

    Both engines look ``access`` up on the system instance, so the
    digest pins the order in which the engine issues references.
    """
    log = hashlib.sha256()
    inner = system.access

    def access(node_id: int, addr: int, write: bool) -> int:
        log.update(b"%d,%d,%d;" % (node_id, addr, write))
        return inner(node_id, addr, write)

    system.access = access
    return log


def golden_runs(engine_cls, system_cls, kind_cls) -> dict:
    """Snapshots of the five kernels on every kind of ``kind_cls``, and
    on the two INC kinds again with a small INC, with the digest of
    their access order."""
    from repro.workloads.splash import KERNELS

    configs = [(kind, {}) for kind in kind_cls]
    configs += [(kind_cls("integrated"), {"inc_bytes": SMALL_INC_BYTES}),
                (kind_cls("integrated-no-victim"),
                 {"inc_bytes": SMALL_INC_BYTES})]
    out = {}
    for name, kwargs in GOLDEN_KERNELS.items():
        for kind, system_kwargs in configs:
            kernel = KERNELS[name](**kwargs)
            system = system_cls(GOLDEN_PROCS, kind, **system_kwargs)
            log = log_accesses(system)
            result = engine_cls(system).run(kernel.build(GOLDEN_PROCS,
                                                         system.layout))
            key = f"{name}/{kind.value}"
            if system_kwargs:
                key += f"/inc={system_kwargs['inc_bytes']}"
            out[key] = snapshot(result, system)
            out[key]["access_order"] = log.hexdigest()[:16]
    return out


if __name__ == "__main__":
    from repro.mp.engine import MPEngine
    from repro.mp.system import MPSystem, SystemKind

    runs = golden_runs(MPEngine, MPSystem, SystemKind)
    lines = [f"{json.dumps(key)}: {json.dumps(run, sort_keys=True)}"
             for key, run in sorted(runs.items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(runs)} runs to {GOLDEN_PATH}")
