"""Shared builders for the test suite."""

import numpy as np
import pytest

from dacsim.config import validate_scenario
from dacsim.engine import run_scenario
from dacsim.graphs import WeightedDigraph, build_digraph, topology_preset
from dacsim.switching import SwitchingSchedule


def random_balanced_strongly_connected(rng, n: int) -> WeightedDigraph:
    """Superpose a spanning cycle and a few extra cycles, one weight per
    cycle; every such superposition is weight-balanced and the spanning
    cycle makes it strongly connected."""
    w = np.zeros((n, n))
    spanning = rng.permutation(n)
    wt = rng.uniform(0.2, 2.0)
    for k in range(n):
        w[spanning[k], spanning[(k + 1) % n]] += wt
    for _ in range(int(rng.integers(0, 3))):
        m = int(rng.integers(2, n + 1))
        nodes = rng.choice(n, size=m, replace=False)
        wt = rng.uniform(0.2, 2.0)
        for k in range(m):
            w[nodes[k], nodes[(k + 1) % m]] += wt
    return WeightedDigraph(n=n, weights=w)


def random_digraph(rng, n: int, p: float = 0.35) -> WeightedDigraph:
    """Arbitrary digraph: each off-diagonal edge present with probability p."""
    w = (rng.random((n, n)) < p) * rng.uniform(0.1, 2.0, (n, n))
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(n=n, weights=w)


def two_node_pair(weight: float = 1.0) -> WeightedDigraph:
    return build_digraph(2, [(1, 2, weight), (2, 1, weight)])


def ring_run(n, params, init, horizon=0.01, step=0.01, protocol="dc1"):
    """``run_scenario`` of ``protocol`` on the directed n-ring with zero
    inputs, from a config's "params" and "init"; one step by default."""
    data = {"protocol": protocol, "params": params, "init": init,
            "graph": {"n": n, "edges": [[i + 1, (i + 1) % n + 1, 1.0] for i in range(n)]},
            "inputs": {"signals": [{"kind": "constant", "params": {"value": 0.0}}] * n},
            "horizon": horizon, "step": step}
    return run_scenario(validate_scenario(data))


def case1_schedule() -> SwitchingSchedule:
    """Topology cycling through the four weak preset digraphs, 2 s each."""
    graphs = tuple(topology_preset(name) for name in ("fig1b", "fig1c", "fig1d", "fig1e"))
    return SwitchingSchedule(graphs=graphs,
                             segments=((0.0, 0), (2.0, 1), (4.0, 2), (6.0, 3)),
                             period=8.0)


def case2_schedule() -> SwitchingSchedule:
    """All five presets for 2 s each, then fixed on the ring from t=10."""
    graphs = tuple(topology_preset(name) for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e"))
    return SwitchingSchedule(
        graphs=graphs,
        segments=((0.0, 0), (2.0, 1), (4.0, 2), (6.0, 3), (8.0, 4), (10.0, 0)))


@pytest.fixture(scope="session")
def ring6() -> WeightedDigraph:
    return topology_preset("fig1a")
