"""The GSPN evaluator against its oracle: same results, same random stream.

:mod:`repro.gspn.sim` compiles each net into per-transition tables and
caches conflict CDFs, but promises to play the token game exactly as the
textbook evaluator in :mod:`tests.gspn.reference_sim` does: the same RNG
calls in the same order.  Every case below therefore demands an equal
:class:`SimResult` *and* an equal ``rng.bit_generator.state`` afterwards,
so no published number depends on which engine produced it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.gspn.models import registered_nets
from repro.gspn.net import PetriNet
from repro.gspn.sim import GSPNSimulator
from tests.gspn.reference_sim import GSPNSimulator as ReferenceSimulator

NETS = registered_nets()


def _pair(net, seed, track=()):
    fast_rng, ref_rng = make_rng(seed), make_rng(seed)
    return (
        GSPNSimulator(net, fast_rng, track_places=track),
        ReferenceSimulator(net, ref_rng, track_places=track),
    )


def _assert_same(fast, ref, **run_kwargs):
    assert fast.run(**run_kwargs) == ref.run(**run_kwargs)
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
    assert fast.marking == ref.marking


def _tracked(net):
    """A few pipeline places plus every bank-ready place."""
    places = list(net.initial_marking)
    return tuple(places[:4]) + tuple(p for p in places if p.endswith("_ready"))


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_registered_net_untracked(name, seed):
    fast, ref = _pair(NETS[name], seed)
    _assert_same(fast, ref, max_events=4_000)


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("seed", [0, 3])
def test_registered_net_tracked(name, seed):
    net = NETS[name]
    fast, ref = _pair(net, seed, _tracked(net))
    _assert_same(fast, ref, max_events=4_000)


@pytest.mark.parametrize("name", ["fig10.integrated", "fig10.conventional",
                                  "sec5.6.banks4"])
def test_warmup_then_measure(name):
    net = NETS[name]
    fast, ref = _pair(net, 11, _tracked(net))
    _assert_same(fast, ref, stop_transition="T_issue", stop_count=300)
    _assert_same(fast, ref, stop_transition="T_issue", stop_count=1_500)


def test_reset_replays_from_the_initial_marking():
    net = NETS["fig10.conventional"]
    fast, ref = _pair(net, 5, _tracked(net))
    _assert_same(fast, ref, max_events=2_000)
    fast.reset()
    ref.reset()
    assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
    _assert_same(fast, ref, max_events=2_000)


@pytest.mark.parametrize("stop", [
    {"max_time": 250.0},
    {"max_time": 250.0, "max_events": 100},
    {"max_events": 1},
    {"max_events": 0},
    {"stop_transition": "T_issue", "stop_count": 40, "max_time": 30.0},
])
def test_stopping_rules(stop):
    fast, ref = _pair(NETS["fig10.integrated"], 2)
    _assert_same(fast, ref, **stop)
    _assert_same(fast, ref, **stop)  # a second call that stops at once


def test_membank_deadlock_free_long_run():
    fast, ref = _pair(NETS["fig9.membank"], 9, ("ready", "P1_ifetch"))
    _assert_same(fast, ref, max_time=20_000.0)


def test_exponentials_enabled_together_draw_in_oracle_order():
    # One firing enables three exponentials of different rates at once;
    # the join waits for the slowest, so drawing their delays in any
    # other order than the oracle's moves the clock.
    net = PetriNet("fork-join")
    net.place("src", 1)
    for branch in "abc":
        net.place(branch)
        net.place(f"{branch}_done")
    net.deterministic("T_fork", {"src": 1}, {"a": 1, "b": 1, "c": 1}, delay=1.0)
    for branch, rate in zip("abc", (0.3, 1.0, 4.0)):
        net.exponential(f"T_{branch}", {branch: 1}, {f"{branch}_done": 1},
                        rate=rate)
    net.immediate("T_join", {"a_done": 1, "b_done": 1, "c_done": 1}, {"src": 1})
    fast, ref = _pair(net, 4, ("a", "c"))
    _assert_same(fast, ref, stop_transition="T_join", stop_count=300)


@pytest.mark.parametrize("fan_out", [2, 3, 5, 9, 17, 48])
def test_weighted_conflicts_pick_as_rng_choice_does(fan_out):
    # A request token meets ``fan_out`` equal-priority immediates with
    # irregular weights; every pick must match Generator.choice.
    net = PetriNet(f"fan-out-{fan_out}")
    net.place("src", 1)
    net.place("req")
    net.deterministic("T_gen", {"src": 1}, {"src": 1, "req": 1}, delay=1.0)
    for i in range(fan_out):
        net.place(f"out{i}")
        net.immediate(f"T_route{i}", {"req": 1}, {f"out{i}": 1},
                      weight=1.0 + (i * 0.37) % 2.3)
    fast, ref = _pair(net, fan_out)
    _assert_same(fast, ref, stop_transition="T_gen", stop_count=2_000)


# ---------------------------------------------------------------------------
# Random small nets
# ---------------------------------------------------------------------------

_WEIGHTS = st.sampled_from([1e-3, 0.5, 1.0, 1.0, 2.0, 3.7])
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
_RATES = st.floats(0.1, 5.0, allow_nan=False)
_ARCS = st.integers(1, 2)


@st.composite
def small_nets(draw):
    """Nets mixing priorities, weights, inhibitors, multiplicities,
    zero-delay deterministic and exponential transitions.

    Immediate transitions only move tokens to higher-numbered places, so
    every chain of immediate firings terminates (no livelock); timed
    transitions may go anywhere, including back to the start.
    """
    n_places = draw(st.integers(2, 5))
    net = PetriNet("random")
    places = [
        net.place(f"p{i}", draw(st.integers(0, 3))) for i in range(n_places)
    ]
    for t in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["immediate", "deterministic", "exponential"]))
        source = draw(st.lists(st.sampled_from(places), min_size=1, max_size=2,
                               unique=True))
        inputs = {p: draw(_ARCS) for p in source}
        targets = places
        if kind == "immediate":
            first = max(places.index(p) for p in source) + 1
            targets = places[first:]
        outputs = {
            p: draw(_ARCS)
            for p in draw(st.lists(st.sampled_from(targets), max_size=2,
                                   unique=True))
        } if targets else {}
        inhibitors = {
            p: draw(st.integers(1, 3))
            for p in draw(st.lists(st.sampled_from(places), max_size=1))
        }
        name = f"t{t}"
        if kind == "immediate":
            net.immediate(name, inputs, outputs, weight=draw(_WEIGHTS),
                          priority=draw(st.integers(0, 2)),
                          inhibitors=inhibitors)
        elif kind == "deterministic":
            net.deterministic(name, inputs, outputs, delay=draw(_DELAYS),
                              inhibitors=inhibitors)
        else:
            net.exponential(name, inputs, outputs, rate=draw(_RATES),
                            inhibitors=inhibitors)
    return net


def _outcome(sim, **run_kwargs):
    try:
        return sim.run(**run_kwargs)
    except SimulationError as exc:
        return f"SimulationError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    net=small_nets(),
    seed=st.integers(0, 2**16),
    n_track=st.integers(0, 3),
    max_time=st.sampled_from([5.0, 40.0, float("inf")]),
    max_events=st.integers(0, 400),
)
def test_random_nets_match_the_oracle(net, seed, n_track, max_time, max_events):
    track = tuple(net.initial_marking)[:n_track]
    fast, ref = _pair(net, seed, track)
    for _ in range(2):  # warmup, then a measurement window
        budget = {"max_time": max_time, "max_events": fast.events + max_events}
        assert _outcome(fast, **budget) == _outcome(ref, **budget)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        assert fast.marking == ref.marking
