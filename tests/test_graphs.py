import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacsim.graphs import (
    build_digraph,
    graph_from_json,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    spectral_summary,
    topology_preset,
)
from conftest import (drawn_digraphs, random_balanced_strongly_connected, random_digraph,
                      scipy_strongly_connected, two_node_pair)


def six_cycle():
    return build_digraph(6, [(k, k % 6 + 1, 1.0) for k in range(1, 7)])


def reachability_closure(g):
    """Brute-force transitive closure: the oracle for connectivity checks."""
    reach = (g.weights > 0) | np.eye(g.n, dtype=bool)
    for _ in range(g.n):
        reach = reach | (reach @ reach)
    return reach


class TestConstruction:
    def test_six_cycle_matches_ring_preset(self):
        assert np.array_equal(six_cycle().weights, topology_preset("fig1a").weights)

    def test_trivial_single_node(self):
        g = build_digraph(1, [])
        assert np.array_equal(laplacian(g), [[0.0]])

    def test_symmetric_pair_weight_two(self):
        g = build_digraph(2, [(1, 2, 2.0), (2, 1, 2.0)])
        assert np.array_equal(laplacian(g), [[2.0, -2.0], [-2.0, 2.0]])

    @pytest.mark.parametrize("edges,msg", [
        ([(1, 1, 1.0)], "self-loop"),
        ([(1, 2, 0.0)], "nonpositive"),
        ([(1, 2, -3.0)], "nonpositive"),
        ([(0, 2, 1.0)], "outside"),
        ([(1, 7, 1.0)], "outside"),
        ([(1, 2, 1.0), (1, 2, 2.0)], "duplicate"),
    ])
    def test_rejects_bad_edges(self, edges, msg):
        with pytest.raises(ValueError, match=msg):
            build_digraph(6, edges)

    def test_json_round_trip(self):
        # the edge-list form and the {"preset": name} form build the same digraph
        g = topology_preset("fig1e")
        fragment = {"n": g.n, "edges": [list(edge) for edge in g.edge_list()]}
        for g2 in (graph_from_json(fragment), graph_from_json({"preset": "fig1e"})):
            assert np.array_equal(g.weights, g2.weights)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            topology_preset("fig1z")


class TestLaplacian:
    def test_six_cycle_entries(self):
        # ones on the diagonal, -1 at (i, i+1 mod 6), zero elsewhere
        expected = np.eye(6) - np.roll(np.eye(6), 1, axis=1)
        assert np.array_equal(laplacian(six_cycle()), expected)

    def test_row_sums_zero(self):
        # integer weights cancel exactly; float weights only to roundoff,
        # far inside the 1e-12 the Laplacian contract allows
        for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e"):
            g = topology_preset(name)
            assert np.all(laplacian(g) @ np.ones(6) == 0.0)
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_digraph(rng, int(rng.integers(1, 9)))
            assert np.abs(laplacian(g) @ np.ones(g.n)).max() <= 1e-12

    def test_offdiagonal_nonpositive(self):
        g = random_digraph(np.random.default_rng(2), 7)
        lap = laplacian(g).copy()
        np.fill_diagonal(lap, 0.0)
        assert np.all(lap <= 0)


class TestBalanceAndConnectivity:
    def test_cycle_balanced(self):
        assert is_weight_balanced(six_cycle())

    def test_single_edge_unbalanced(self):
        assert not is_weight_balanced(build_digraph(2, [(1, 2, 1.0)]))

    def test_bidirectional_pair_in_six_nodes_balanced(self):
        assert is_weight_balanced(topology_preset("fig1c"))

    def test_cycle_strongly_connected(self):
        assert is_strongly_connected(six_cycle())

    def test_two_disjoint_cycles_not_strongly_connected(self):
        g = topology_preset("fig1b")
        assert not is_strongly_connected(g)

    def test_union_of_weak_presets_strongly_connected(self):
        edges = (topology_preset("fig1b").edge_list()
                 + topology_preset("fig1c").edge_list())
        assert is_strongly_connected(build_digraph(6, edges))

    def test_balance_against_degree_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            oracle = np.allclose(g.weights.sum(axis=0), g.weights.sum(axis=1), atol=1e-10)
            assert is_weight_balanced(g) == oracle

    def test_connectivity_against_closure_oracle_1000_samples(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            g = random_digraph(rng, n, p=rng.uniform(0.1, 0.9))
            assert is_strongly_connected(g) == bool(reachability_closure(g).all())

    @settings(max_examples=200, deadline=None)
    @given(drawn_digraphs())
    def test_connectivity_against_scipy_components(self, graphs):
        (g,) = graphs
        assert is_strongly_connected(g) == scipy_strongly_connected(g.weights)


class TestSpectralSummary:
    def test_six_cycle_values(self):
        # circulant eigenvalues 1 - cos(2 pi k / 6): second smallest = 0.5
        s = spectral_summary(six_cycle())
        assert s.lambda_hat_2 == pytest.approx(0.5, abs=1e-12)
        assert s.re_lambda_2 == pytest.approx(0.5, abs=1e-9)
        assert s.d_max_out == 1.0
        circulant = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(6) / 6.0))
        assert np.allclose(s.eigenvalues_symL, circulant, atol=1e-12)

    def test_symmetric_pair(self):
        s = spectral_summary(two_node_pair())
        assert np.allclose(s.eigenvalues_symL, [0.0, 2.0], atol=1e-12)
        assert s.lambda_hat_2 == pytest.approx(2.0)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            spectral_summary(build_digraph(1, []))

    def test_random_balanced_connected_have_positive_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_balanced_strongly_connected(rng, int(rng.integers(2, 11)))
            assert is_weight_balanced(g) and is_strongly_connected(g)
            lap = laplacian(g)
            assert np.max(np.abs(lap.sum(axis=0))) <= 1e-10
            s = spectral_summary(g)
            assert s.lambda_hat_2 > 0
            near_zero = np.sum(np.abs(s.eigenvalues_symL) <= 1e-9)
            assert near_zero == 1  # the zero eigenvalue is simple
            assert abs(s.eigenvalues_symL[0]) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 30))
def test_every_digraph_has_zero_laplacian_row_sums(n, seed):
    g = random_digraph(np.random.default_rng(seed), n)
    assert np.abs(laplacian(g) @ np.ones(n)).max() <= 1e-12
