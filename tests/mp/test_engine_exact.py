"""The MP engine against its oracles: exactly the same runs.

Two oracles:

- ``reference_mp.py``, the step-by-step engine the flattened one
  replaced.  Hypothesis op streams (reads, writes, computes, locks,
  barriers over a few cross-node addresses) run on both, on every
  system kind and 1, 2 and 4 nodes, and must leave identical snapshots:
  the ``MPResult``, global and per-node statistics with ``by_level``,
  fabric messages and bytes, the directory, every node's cache,
  victim, INC and S-COMA counters, and the order in which the engine
  issued ops and references.
- ``golden_mp.json``, written by the pre-optimisation tree: the five
  SPLASH kernels at small sizes, with a digest of their access order.
  It also pins the cache, INC and directory modules the reference
  copy shares with ``src/``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MB
from repro.mp.engine import MPEngine
from repro.mp.layout import NODE_REGION_BYTES
from repro.mp.ops import Barrier, Compute, Lock, Read, Unlock, Write
from repro.mp.system import MPSystem, SystemKind
from tests.mp import reference_mp
from tests.mp.snapshot import GOLDEN_PATH, golden_runs, log_accesses, snapshot

# Offsets inside a node's region: words of one column, columns 8 KB
# apart (one column-buffer set), blocks 16 KB apart (one FLC line) and
# a second S-COMA page.
OFFSETS = (0, 8, 32, 40, 512, 4096, 8192, 8224, 16384, 16416, 24576, 32768)

# One work item: (kind, value, offset index, home node).
work_item = st.tuples(
    st.sampled_from(["read", "write", "compute", "locked"]),
    st.integers(-2, 40),
    st.integers(0, len(OFFSETS) - 1),
    st.integers(0, 3),
)
round_plan = st.lists(st.lists(work_item, max_size=12), min_size=4,
                      max_size=4)  # one list per processor, up to 4
kernel_plan = st.lists(round_plan, min_size=1, max_size=4)


def _make_kernel(plans, issued):
    """The kernel of ``plans``; it appends each processor id to
    ``issued`` as it issues an op, recording the interleaving."""

    def kernel(pid, nprocs):
        for round_index, per_proc in enumerate(plans):
            for kind, value, offset, home in per_proc[pid]:
                issued.append(pid)
                addr = (home % nprocs) * NODE_REGION_BYTES + OFFSETS[offset]
                if kind == "read":
                    yield Read(addr)
                elif kind == "write":
                    yield Write(addr)
                elif kind == "compute":
                    yield Compute(value)
                else:
                    yield Lock(value % 2)
                    yield Read(addr)
                    yield Write(addr)
                    yield Unlock(value % 2)
            issued.append(pid)
            yield Barrier(round_index)

    return kernel


def _run(engine_cls, system_cls, kind, nodes, inc_bytes, plans):
    system = system_cls(nodes, kind, inc_bytes=inc_bytes)
    log = log_accesses(system)
    issued: list[int] = []
    result = engine_cls(system).run(_make_kernel(plans, issued))
    return {**snapshot(result, system), "issued": issued,
            "access_order": log.hexdigest()}


@settings(max_examples=60, deadline=None)
@given(
    plans=kernel_plan,
    kind=st.sampled_from(list(SystemKind)),
    nodes=st.sampled_from([1, 2, 4]),
    inc_bytes=st.sampled_from([256, 1 * MB]),
)
def test_op_streams_match_reference(plans, kind, nodes, inc_bytes):
    got = _run(MPEngine, MPSystem, kind, nodes, inc_bytes, plans)
    want = _run(reference_mp.MPEngine, reference_mp.MPSystem,
                reference_mp.SystemKind(kind.value), nodes, inc_bytes, plans)
    assert got == want


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_direct_accesses_match_reference(kind):
    """``MPSystem.access`` called directly, with no engine in between."""
    system = MPSystem(4, kind, inc_bytes=256)
    oracle = reference_mp.MPSystem(4, reference_mp.SystemKind(kind.value),
                                   inc_bytes=256)
    for i in range(600):
        node = (i * 7) % 4
        addr = ((i * 5) % 4) * NODE_REGION_BYTES + OFFSETS[(i * 11) % 12]
        write = i % 3 == 0
        assert system.access(node, addr, write) == oracle.access(
            node, addr, write
        ), i
    result = reference_mp.MPResult([0], [0], [0], [0])
    assert snapshot(result, system) == snapshot(result, oracle)


class _Read(Read):
    pass


class _Compute(Compute):
    pass


def test_op_subclasses_match_reference():
    """Subclasses of the op types take the engine's general path."""

    def kernel(pid, nprocs):
        for i in range(40):
            addr = ((pid + i) % nprocs) * NODE_REGION_BYTES + OFFSETS[i % 12]
            yield _Read(addr) if i % 2 else Write(addr)
            yield _Compute(i % 5 - 2)

    def run(engine_cls, system_cls, kind_cls):
        system = system_cls(2, kind_cls.INTEGRATED)
        return snapshot(engine_cls(system).run(kernel), system)

    assert run(MPEngine, MPSystem, SystemKind) == run(
        reference_mp.MPEngine, reference_mp.MPSystem, reference_mp.SystemKind
    )


def test_splash_kernels_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    runs = golden_runs(MPEngine, MPSystem, SystemKind)
    assert sorted(runs) == sorted(golden)
    for key, want in golden.items():
        assert runs[key] == want, key
