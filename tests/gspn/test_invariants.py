"""P-invariants hold on the markings the evaluator actually reaches.

``repro.check.gspn.semiflows`` derives, from net structure alone, every
weighted token sum ``y · M`` that no firing can change.  A run that ends
with a different sum has created or destroyed a token, which would
invalidate every CPI reading taken from the net.
"""

import pytest

from repro.check.gspn import incidence_matrix, semiflows
from repro.common.rng import make_rng
from repro.gspn.models import registered_nets
from repro.gspn.sim import GSPNSimulator

NETS = registered_nets()


def _dot(y, marking):
    return sum(weight * tokens for weight, tokens in zip(y, marking))


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("seed", [0, 5])
def test_semiflows_conserved_after_run(name, seed):
    net = NETS[name]
    places, _, matrix = incidence_matrix(net)
    flows = semiflows(matrix)
    assert flows, f"{name} has no P-invariant to check"
    initial = [net.initial_marking[p] for p in places]
    sim = GSPNSimulator(net, make_rng(seed))
    assert list(net.initial_marking) == places  # same place indexing
    for budget in (1_000, 6_000):  # mid-run and after a second window
        sim.run(max_events=budget)
        for y in flows:
            assert _dot(y, sim.marking) == _dot(y, initial), (name, y)
