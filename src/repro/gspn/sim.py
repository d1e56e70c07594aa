"""Monte-Carlo evaluation of GSPNs.

The evaluator plays the token game by discrete-event simulation:

1. Enabled *immediate* transitions fire first, in zero time; conflicts
   are resolved by priority, then by weighted random choice.
2. Enabled *timed* transitions hold one timer each (single-server
   semantics).  Deterministic transitions fire ``delay`` after enabling;
   exponential transitions sample a memoryless delay.  A transition that
   loses its enabling loses its timer and resamples when re-enabled
   (race-with-restart policy, the standard choice for GSPN tools).
3. The clock jumps to the earliest timer; that transition fires; repeat.

Each net is compiled once, when the simulator is built, into
per-transition tables: input/output/inhibitor arcs as place-index tuples,
the kind flags and delay or 1/rate, and the *firing adjacency* — the
deduplicated transitions whose enabling a firing can change, in
first-seen order over its input then output places.  The event loop
(:meth:`GSPNSimulator._play`) runs inline on those tables, so a firing
re-examines only its neighbours without building any per-event set or
list.  Weighted conflicts are resolved by bisecting one ``rng.random()``
draw into a CDF cached per distinct enabled set.

The random stream is exactly that of the textbook token game kept in
``tests/gspn/reference_sim.py``, so every run returns the same
:class:`SimResult` and leaves the generator in the same state:

- ``Generator.choice(n, p=w / w.sum())`` draws one ``random()`` and
  searches it in ``cdf = p.cumsum(); cdf /= cdf[-1]``; the cached CDF is
  built with those same numpy operations.
- ``exponential(1 / rate)`` computes ``standard_exponential() * (1 / rate)``.
- The draws keep their order: the adjacency keeps the order in which
  timed transitions are refreshed, and the enabled-immediate set sees
  the same add/discard history, so its iteration order, and with it
  each conflict's candidate order, is unchanged.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.common import tally
from repro.common.errors import SimulationError
from repro.gspn.net import PetriNet, TransitionKind

_MAX_IMMEDIATE_CHAIN = 1_000_000
# Distinct enabled-immediate sets whose conflict resolution is cached; the
# registered nets reach fewer than a hundred, so the bound only caps
# memory on pathological nets.
_MAX_CONFLICT_SETS = 4096


@dataclass
class SimResult:
    """Outcome of one simulation run.

    ``time``, ``firings`` and ``events`` are *lifetime* quantities (the
    simulator's clock and counts since construction/:meth:`reset`);
    ``mean_marking`` and ``busy_fraction`` are averaged over the
    **window of the** :meth:`~GSPNSimulator.run` **call that returned
    this result**, so a warmup run followed by a measurement run
    reports steady-state means uncontaminated by the transient.

    ``busy_fraction`` maps each tracked place to the fraction of window
    time its resource was committed: the place was empty (its token out
    working elsewhere, e.g. a bank in precharge) or a timed transition
    consuming from it held a running timer (an access in service).  For
    a server place such as the membank net's ``ready`` this is exactly
    the queueing-theoretic utilization; for pure buffer places it is
    not meaningful.
    """

    time: float
    firings: dict[str, int]
    mean_marking: dict[str, float]
    events: int
    deadlocked: bool
    busy_fraction: dict[str, float] = field(default_factory=dict)

    def throughput(self, transition: str) -> float:
        """Firings of ``transition`` per unit time."""
        if self.time <= 0:
            return 0.0
        return self.firings.get(transition, 0) / self.time


class GSPNSimulator:
    """Single-run Monte-Carlo simulator for a :class:`PetriNet`.

    ``track_places`` selects places whose time-averaged marking should be
    reported (tracking every place costs time on big nets).
    """

    def __init__(
        self,
        net: PetriNet,
        rng: np.random.Generator,
        track_places: tuple[str, ...] = (),
    ) -> None:
        net.validate()
        self.net = net
        self.rng = rng
        self._place_ids = {name: i for i, name in enumerate(net.initial_marking)}
        self._place_names = list(net.initial_marking)
        self._tran_names = list(net.transitions)
        self._tran_ids = {name: i for i, name in enumerate(self._tran_names)}
        for name in track_places:
            if name not in self._place_ids:
                raise SimulationError(
                    f"unknown place {name!r} in track_places of net {net.name!r}"
                )
        self._track = [self._place_ids[p] for p in track_places]
        self._track_names = list(track_places)

        # Per-transition tables, indexed by transition id.  A timed
        # transition has ``_delay`` (deterministic) or ``_scale`` = 1/rate
        # (exponential); ``_weight``/``_priority`` matter for immediates.
        self._immediate: list[bool] = []
        self._delay: list[float | None] = []
        self._scale: list[float] = []
        self._weight: list[float] = []
        self._priority: list[int] = []
        self._inputs: list[tuple[tuple[int, int], ...]] = []
        self._outputs: list[tuple[tuple[int, int], ...]] = []
        self._inhibitors: list[tuple[tuple[int, int], ...]] = []
        affected: list[list[int]] = [[] for _ in self._place_names]
        for tid, name in enumerate(self._tran_names):
            tran = net.transitions[name]
            self._immediate.append(tran.kind is TransitionKind.IMMEDIATE)
            deterministic = tran.kind is TransitionKind.DETERMINISTIC
            exponential = tran.kind is TransitionKind.EXPONENTIAL
            self._delay.append(tran.param if deterministic else None)
            self._scale.append(1.0 / tran.param if exponential else 0.0)
            self._weight.append(tran.param)
            self._priority.append(tran.priority)
            self._inputs.append(
                tuple((self._place_ids[p], m) for p, m in tran.inputs.items())
            )
            self._outputs.append(
                tuple((self._place_ids[p], m) for p, m in tran.outputs.items())
            )
            self._inhibitors.append(
                tuple((self._place_ids[p], t) for p, t in tran.inhibitors.items())
            )
            for place in list(tran.inputs) + list(tran.inhibitors):
                affected[self._place_ids[place]].append(tid)

        # Firing adjacency: the transitions whose enabling may change when
        # ``tid`` fires, deduplicated in first-seen order over its input
        # then output places (``tid`` itself is always among them, since
        # validate() demands an input arc).  Immediate and timed targets
        # are kept apart; they touch disjoint state (the enabled set vs.
        # timers and the RNG), so each list keeps the order that matters
        # to it.
        self._after_imm: list[tuple[int, ...]] = []
        self._after_timed: list[tuple[int, ...]] = []
        for tid in range(len(self._tran_names)):
            order: dict[int, None] = {}
            for place, _ in self._inputs[tid] + self._outputs[tid]:
                order.update(dict.fromkeys(affected[place]))
            self._after_imm.append(tuple(t for t in order if self._immediate[t]))
            self._after_timed.append(
                tuple(t for t in order if not self._immediate[t])
            )

        # Tracked slots each timed transition consumes from: a running
        # timer on such a transition marks the slot's resource as
        # committed (in service), which feeds the busy_fraction statistic.
        self._slots: list[tuple[int, ...]] = [
            tuple(
                slot
                for slot, place in enumerate(self._track)
                if not self._immediate[tid]
                and any(p == place for p, _ in self._inputs[tid])
            )
            for tid in range(len(self._tran_names))
        ]
        # Conflict resolution per distinct enabled set (in set order):
        # the ready transitions and, when there are several, their CDF.
        self._conflicts: dict[
            tuple[int, ...], tuple[tuple[int, ...], list[float] | None]
        ] = {}
        self.reset()

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        self.marking = [
            self.net.initial_marking[name] for name in self._place_names
        ]
        self.clock = 0.0
        self.firing_counts = [0] * len(self._tran_names)
        self.events = 0
        # A timer is running exactly while its transition's epoch is odd:
        # starting and cancelling a timer each bump the epoch, which also
        # invalidates the timer's heap entry lazily.
        self._epoch = [0] * len(self._tran_names)
        self._heap: list[tuple[float, int, int]] = []  # (time, tid, epoch)
        self._enabled_imm: set[int] = set()
        self._marking_area = [0.0] * len(self._track)
        self._busy_area = [0.0] * len(self._track)
        self._running = [0] * len(self._track)  # consumer timers per slot
        for tid in range(len(self._tran_names)):
            self._refresh(tid)

    def _refresh(self, tid: int) -> None:
        """Update one transition's enabling; :meth:`_play` inlines this."""
        marking = self.marking
        enabled = all(marking[p] >= m for p, m in self._inputs[tid]) and not any(
            marking[p] >= t for p, t in self._inhibitors[tid]
        )
        if self._immediate[tid]:
            if enabled:
                self._enabled_imm.add(tid)
            else:
                self._enabled_imm.discard(tid)
        elif enabled:
            if not self._epoch[tid] & 1:
                delay = self._delay[tid]
                if delay is None:
                    delay = self.rng.standard_exponential() * self._scale[tid]
                self._epoch[tid] += 1
                heapq.heappush(
                    self._heap, (self.clock + delay, tid, self._epoch[tid])
                )
                for slot in self._slots[tid]:
                    self._running[slot] += 1
        elif self._epoch[tid] & 1:
            self._epoch[tid] += 1
            for slot in self._slots[tid]:
                self._running[slot] -= 1

    def _conflict(
        self, enabled: tuple[int, ...]
    ) -> tuple[tuple[int, ...], list[float] | None]:
        """The highest-priority transitions of ``enabled`` and their CDF.

        The CDF is computed with the same numpy operations
        ``Generator.choice(n, p=w / w.sum())`` applies, so bisecting one
        ``rng.random()`` draw into it picks the index ``choice`` would.
        """
        best = max(self._priority[t] for t in enabled)
        ready = tuple(t for t in enabled if self._priority[t] == best)
        if len(ready) == 1:
            return ready, None
        weights = np.array([self._weight[t] for t in ready])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return ready, cdf.tolist()

    def _play(
        self,
        max_time: float,
        stop_tid: int | None,
        stop_count: int,
        max_events: int,
    ) -> bool:
        """The event loop: fire immediates to exhaustion, then the earliest
        timer, until a stopping rule holds.  True when the net is dead."""
        marking = self.marking
        counts = self.firing_counts
        epoch = self._epoch
        heap = self._heap
        enabled_imm = self._enabled_imm
        conflicts = self._conflicts
        inputs = self._inputs
        outputs = self._outputs
        inhibitors = self._inhibitors
        after_imm = self._after_imm
        after_timed = self._after_timed
        delays = self._delay
        scales = self._scale
        slots = self._slots
        running = self._running
        tracked = tuple(enumerate(self._track))
        marking_area = self._marking_area
        busy_area = self._busy_area
        random = self.rng.random
        standard_exponential = self.rng.standard_exponential
        push = heapq.heappush
        pop = heapq.heappop
        clock = self.clock
        events = self.events
        chain = 0
        deadlocked = False
        try:
            while True:
                if enabled_imm:
                    chain += 1
                    if chain > _MAX_IMMEDIATE_CHAIN:
                        raise SimulationError("immediate-transition livelock")
                    if len(enabled_imm) == 1:
                        (tid,) = enabled_imm
                    else:
                        key = tuple(enabled_imm)
                        conflict = conflicts.get(key)
                        if conflict is None:
                            if len(conflicts) >= _MAX_CONFLICT_SETS:
                                conflicts.clear()
                            conflict = conflicts[key] = self._conflict(key)
                        ready, cdf = conflict
                        if cdf is None:
                            tid = ready[0]
                        else:
                            tid = ready[bisect_right(cdf, random())]
                else:
                    chain = 0
                    if not (clock < max_time and events < max_events):
                        break
                    if stop_tid is not None and counts[stop_tid] >= stop_count:
                        break
                    while heap:
                        time, tid, stamp = pop(heap)
                        if stamp == epoch[tid]:
                            break
                    else:
                        deadlocked = True
                        break
                    dt = time - clock
                    if dt:
                        for slot, place in tracked:
                            tokens = marking[place]
                            marking_area[slot] += tokens * dt
                            if not tokens or running[slot]:
                                busy_area[slot] += dt
                    clock = time
                    epoch[tid] = stamp + 1
                    for slot in slots[tid]:
                        running[slot] -= 1

                # Fire ``tid``.
                for place, mult in inputs[tid]:
                    left = marking[place] - mult
                    if left < 0:
                        raise SimulationError(
                            f"negative marking at {self._place_names[place]}"
                        )
                    marking[place] = left
                for place, mult in outputs[tid]:
                    marking[place] += mult
                counts[tid] += 1
                events += 1

                # Refresh the enabling of every transition it may affect.
                for other in after_imm[tid]:
                    for place, mult in inputs[other]:
                        if marking[place] < mult:
                            enabled_imm.discard(other)
                            break
                    else:
                        for place, threshold in inhibitors[other]:
                            if marking[place] >= threshold:
                                enabled_imm.discard(other)
                                break
                        else:
                            enabled_imm.add(other)
                for other in after_timed[tid]:
                    for place, mult in inputs[other]:
                        if marking[place] < mult:
                            enabled = False
                            break
                    else:
                        enabled = True
                        for place, threshold in inhibitors[other]:
                            if marking[place] >= threshold:
                                enabled = False
                                break
                    stamp = epoch[other]
                    if enabled:
                        if not stamp & 1:
                            delay = delays[other]
                            if delay is None:
                                delay = standard_exponential() * scales[other]
                            epoch[other] = stamp + 1
                            push(heap, (clock + delay, other, stamp + 1))
                            for slot in slots[other]:
                                running[slot] += 1
                    elif stamp & 1:
                        epoch[other] = stamp + 1
                        for slot in slots[other]:
                            running[slot] -= 1
        finally:
            self.clock = clock
            self.events = events
        return deadlocked

    # -- driving ----------------------------------------------------------

    def run(
        self,
        max_time: float = math.inf,
        stop_transition: str | None = None,
        stop_count: int = 0,
        max_events: int = 50_000_000,
    ) -> SimResult:
        """Run until ``max_time``, a firing-count target, or deadlock.

        Repeated calls continue from the current state; each call's
        result reports ``mean_marking``/``busy_fraction`` averaged over
        that call's window only (the warmup-then-measure idiom), while
        ``time``/``firings``/``events`` stay lifetime totals.
        """
        if stop_transition is not None:
            if stop_transition not in self._tran_ids:
                raise SimulationError(f"unknown transition {stop_transition}")
            if stop_count < 1:
                raise SimulationError(
                    f"stop_transition={stop_transition!r} requires "
                    f"stop_count >= 1, got {stop_count}: a firing-count "
                    f"target of {stop_count} is already met before the "
                    f"first event, so the run would return immediately"
                )
        stop_tid = self._tran_ids.get(stop_transition) if stop_transition else None
        events_before = self.events
        clock_before = self.clock
        marking_area_before = list(self._marking_area)
        busy_area_before = list(self._busy_area)
        with obs.span(f"gspn/run/{self.net.name}"):
            deadlocked = self._play(max_time, stop_tid, stop_count, max_events)
            tally.add("gspn_firings", self.events - events_before)
        window = self.clock - clock_before
        mean_marking = {
            name: (
                (self._marking_area[slot] - marking_area_before[slot]) / window
                if window > 0
                else 0.0
            )
            for slot, name in enumerate(self._track_names)
        }
        busy_fraction = {
            name: (
                (self._busy_area[slot] - busy_area_before[slot]) / window
                if window > 0
                else 0.0
            )
            for slot, name in enumerate(self._track_names)
        }
        return SimResult(
            time=self.clock,
            firings={
                name: self.firing_counts[tid]
                for tid, name in enumerate(self._tran_names)
                if self.firing_counts[tid]
            },
            mean_marking=mean_marking,
            events=self.events,
            deadlocked=deadlocked,
            busy_fraction=busy_fraction,
        )


# ---------------------------------------------------------------------------
# Monte-Carlo replication fan-out
# ---------------------------------------------------------------------------


def _replicate(job: tuple) -> SimResult:
    """Pool worker: build one simulator and run it (module-level so it
    pickles under the supervised executor)."""
    factory, seed, run_kwargs = job
    return factory(seed).run(**run_kwargs)


def run_replications(
    factory: "Callable[[int], GSPNSimulator]",
    seeds: "Sequence[int]",
    *,
    jobs: int = 1,
    policy=None,
    faults=None,
    **run_kwargs,
) -> list[SimResult]:
    """Evaluate independent Monte-Carlo replications, optionally in
    parallel.

    ``factory(seed)`` must be a picklable (module-level) callable that
    builds a fresh :class:`GSPNSimulator` — net plus a seed-derived RNG —
    for one replication.  Results come back in ``seeds`` order, and the
    replications are independent by construction, so ``jobs=N`` is
    bit-identical to ``jobs=1``.

    Replications run under the supervised executor
    (:func:`repro.runner.resilience.supervised_map`): a crashed or hung
    worker is retried per ``policy`` (default: one retry, no timeout)
    without losing the other replications, and a replication that
    exhausts its retries raises :class:`SimulationError` **naming the
    offending seed** instead of an opaque pool traceback.  ``faults``
    (a :class:`repro.faults.FaultPlan`) can inject deterministic
    failures into labels of the form ``replication/seed=<seed>``.
    """
    from repro.runner.resilience import SupervisionPolicy, supervised_map

    jobs_list = [(factory, seed, run_kwargs) for seed in seeds]
    outcomes = supervised_map(
        _replicate,
        jobs_list,
        labels=[f"replication/seed={seed}" for seed in seeds],
        jobs=jobs,
        policy=policy or SupervisionPolicy(),
        faults=faults,
    )
    results: list[SimResult] = []
    for seed, outcome in zip(seeds, outcomes):
        if outcome.failure is not None:
            failure = outcome.failure
            detail = f"\n{failure.traceback}" if failure.traceback else ""
            raise SimulationError(
                f"replication seed={seed} failed after {failure.attempts} "
                f"attempt(s) ({failure.kind}): {failure.error_type}: "
                f"{failure.message}{detail}"
            )
        results.append(outcome.result)
    return results
