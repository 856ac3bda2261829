"""Unit tests for the device coupling graph (repro.hardware.topology)."""

import networkx as nx
import numpy as np
import pytest

from repro.hardware import ChipletArray, Topology, TopologyError


def line_topology(n=5, cross_at=None):
    g = nx.Graph()
    for q in range(n):
        g.add_node(q, pos=(0, q))
    for q in range(n - 1):
        g.add_edge(q, q + 1, cross_chip=(cross_at == q))
    return Topology(g, name="line")


class TestBasicQueries:
    def test_counts_and_neighbours(self):
        t = line_topology(5)
        assert t.num_qubits == 5
        assert t.num_edges == 4
        assert t.neighbors(2) == (1, 3)
        assert t.degree(0) == 1
        assert t.qubits() == (0, 1, 2, 3, 4)

    def test_coupling_queries(self):
        t = line_topology(4, cross_at=1)
        assert t.is_coupled(0, 1)
        assert not t.is_coupled(0, 2)
        assert t.is_cross_chip(1, 2)
        assert not t.is_cross_chip(0, 1)
        with pytest.raises(TopologyError):
            t.is_cross_chip(0, 3)

    def test_edge_lists(self):
        t = line_topology(4, cross_at=2)
        assert t.cross_chip_edges() == ((2, 3),)
        assert len(t.on_chip_edges()) == 2
        assert len(t.edges()) == 3

    def test_invalid_indices_rejected(self):
        g = nx.Graph()
        g.add_node(0)
        g.add_node(5)
        with pytest.raises(TopologyError):
            Topology(g)
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_self_loops_rejected(self):
        g = nx.Graph([(0, 1), (1, 2), (1, 1)])
        with pytest.raises(TopologyError, match="self-loop"):
            Topology(g)
        with pytest.raises(TopologyError, match="self-loop"):
            Topology.from_edges({0: {}, 1: {}}, [(0, 1, False), (1, 1, False)])

    def test_positions_and_chiplets(self):
        arr = ChipletArray("square", 3, 1, 2)
        topo = arr.topology
        assert topo.position(0) == (0, 0)
        assert topo.chiplet_of(0) == (0, 0)
        assert topo.chiplets() == [(0, 0), (0, 1)]
        assert len(topo.qubits_in_chiplet((0, 1))) == 9

    def test_is_connected(self):
        assert line_topology(5).is_connected()


class TestDistances:
    def test_hop_distances(self):
        t = line_topology(5)
        assert t.distance(0, 4) == 4
        assert t.distance(2, 2) == 0

    def test_distance_matrix_symmetry(self):
        t = ChipletArray("square", 3, 1, 2).topology
        d = np.array(t.distance_rows())
        assert np.allclose(d, d.T)
        assert d.shape == (18, 18)

    def test_cross_chip_weighting(self):
        t = line_topology(4, cross_at=1)
        assert t.distance(0, 3) == 3
        assert t.distance(0, 3, cross_chip_weight=5.0) == 7  # 1 + 5 + 1

    def test_shortest_path_endpoints(self):
        t = line_topology(6)
        path = t.shortest_path(1, 4)
        assert path[0] == 1 and path[-1] == 4
        assert all(t.is_coupled(a, b) for a, b in zip(path, path[1:], strict=False))

    def test_weighted_shortest_path_avoids_cross_links_when_possible(self):
        g = nx.Graph()
        for q in range(4):
            g.add_node(q)
        # two routes 0->3: direct cross-chip edge, or 3 on-chip hops
        g.add_edge(0, 3, cross_chip=True)
        g.add_edge(0, 1, cross_chip=False)
        g.add_edge(1, 2, cross_chip=False)
        g.add_edge(2, 3, cross_chip=False)
        t = Topology(g)
        assert t.shortest_path(0, 3) == [0, 3]
        assert t.shortest_path(0, 3, cross_chip_weight=10.0) == [0, 1, 2, 3]


class TestDerived:
    def test_subtopology_relabels_and_tracks_originals(self):
        t = line_topology(5)
        sub = t.subtopology([1, 2, 4])
        assert sub.num_qubits == 3
        assert sub.is_coupled(0, 1)       # original 1-2
        assert not sub.is_coupled(1, 2)   # original 2-4 not coupled
        originals = [sub.node_data(q)["original"] for q in sub.qubits()]
        assert originals == [1, 2, 4]

    def test_copy_is_independent(self):
        t = line_topology(3)
        c = t.copy()
        assert c.adjacency() is not t.adjacency()
        assert c.edges() == t.edges()

    def test_wrapped_graph_is_frozen(self):
        # the invalidation-free query caches rely on graph immutability, so
        # a mutation attempt must fail loudly instead of staling the caches
        t = line_topology(3)
        with pytest.raises(TypeError):
            t.adjacency()[0][2] = False
        c = t.copy()
        with pytest.raises(TypeError):
            c.adjacency()[0][2] = False


class TestQueryCaches:
    """PR-5 satellite: query results are cached as tuples (graph immutable)."""

    def test_cached_tuples_are_stable_objects(self):
        t = line_topology(5)
        assert t.edges() is t.edges()
        assert t.qubits() is t.qubits()
        assert t.neighbors(2) is t.neighbors(2)
        assert t.cross_chip_edges() is t.cross_chip_edges()
        assert t.on_chip_edges() is t.on_chip_edges()

    def test_cached_values_match_graph(self):
        t = line_topology(6, cross_at=3)
        assert t.edges() == tuple((q, q + 1) for q in range(5))
        assert t.cross_chip_edges() == ((3, 4),)
        assert len(t.on_chip_edges()) == 4
        for q in range(6):
            assert t.neighbors(q) == tuple(sorted(t.adjacency()[q]))

    def test_adjacency_matrix_matches_is_coupled(self):
        t = line_topology(5, cross_at=2)
        adj = t.coupling_rows()
        assert adj is t.coupling_rows()
        for a in range(5):
            for b in range(5):
                assert bool(adj[a][b]) == t.is_coupled(a, b)
