"""Differential tests: the stdlib graph kernels against networkx.

``repro.hardware.graphs`` replaces networkx and scipy in the runtime.  Its
answers feed the routers' distance tables and the highway layout, so they
must match the reference exactly: distance matrices bit for bit, and shortest
paths and component order including every tie-break.  networkx breaks ties by
adjacency insertion order, so each oracle graph is built with the same
neighbour order as the topology it checks.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import COUPLING_STRUCTURES, ChipletArray, Topology, graphs

ARRAY_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
WEIGHTS = [1.5, 2.5, 5.0]


def same_order_graph(topology: Topology) -> nx.Graph:
    """A networkx graph whose neighbour iteration order equals ``topology``'s.

    Each node's neighbour order constrains the order its edges are added in;
    a topological sort of those constraints gives one valid add order.
    """
    adjacency = topology.adjacency()
    constraints = nx.DiGraph()
    for u, nbrs in adjacency.items():
        incident = [frozenset((u, v)) for v in nbrs]
        constraints.add_nodes_from(incident)
        nx.add_path(constraints, incident)
    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    for edge in nx.topological_sort(constraints):
        a, b = sorted(edge)
        graph.add_edge(a, b, cross_chip=adjacency[a][b])
    assert {u: list(graph.adj[u]) for u in graph} == {
        u: list(nbrs) for u, nbrs in adjacency.items()
    }
    return graph


def oracle_distances(graph: nx.Graph) -> np.ndarray:
    n = graph.number_of_nodes()
    matrix = np.full((n, n), np.inf)
    for source, lengths in nx.all_pairs_shortest_path_length(graph):
        for target, length in lengths.items():
            matrix[source, target] = length
    return matrix


def assert_distances_match(topology: Topology, graph: nx.Graph) -> None:
    rows = topology.distance_rows()
    ours = np.array(rows)
    assert ours.dtype == np.float64
    assert np.array_equal(ours, oracle_distances(graph))
    assert rows == ours.tolist()


def assert_paths_match(topology: Topology, graph: nx.Graph) -> None:
    """Hop paths through the topology, and paths under cross-chip weights
    through the bidirectional Dijkstra the highway layout uses."""
    adjacency = topology.adjacency()
    weights = {w: (lambda u, v, w=w: w if adjacency[u][v] else 1.0) for w in WEIGHTS}
    for a, b in itertools.permutations(topology.qubits(), 2):
        if not nx.has_path(graph, a, b):
            with pytest.raises(graphs.NoPathError):
                topology.shortest_path(a, b)
            for weight in weights.values():
                with pytest.raises(graphs.NoPathError):
                    graphs.shortest_path(adjacency, a, b, weight)
            continue
        assert topology.shortest_path(a, b) == nx.shortest_path(graph, a, b)
        for w, weight in weights.items():
            assert graphs.shortest_path(adjacency, a, b, weight) == nx.shortest_path(
                graph, a, b, weight=lambda u, v, data, w=w: w if data["cross_chip"] else 1.0
            )


def assert_components_match(topology: Topology, graph: nx.Graph) -> None:
    ours = graphs.connected_components(topology.adjacency())
    assert [set(c) for c in ours] == list(nx.connected_components(graph))
    assert sum(len(c) for c in ours) == topology.num_qubits
    assert topology.is_connected() == nx.is_connected(graph)


@pytest.mark.parametrize("structure", sorted(COUPLING_STRUCTURES))
@pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
def test_device_distances_and_components(structure, width):
    for rows, cols in ARRAY_SHAPES:
        topology = ChipletArray(structure, width, rows, cols).topology
        graph = same_order_graph(topology)
        assert_distances_match(topology, graph)
        assert_components_match(topology, graph)


@pytest.mark.parametrize("structure", sorted(COUPLING_STRUCTURES))
@pytest.mark.parametrize("shape", [(1, 1), (1, 2)])
def test_device_shortest_paths(structure, shape):
    topology = ChipletArray(structure, 3, *shape).topology
    assert_paths_match(topology, same_order_graph(topology))


@pytest.mark.parametrize("structure", sorted(COUPLING_STRUCTURES))
def test_layout_weighted_shortest_paths(structure):
    """Paths under a highway-layout style weight (row deviation, claimed reward)."""
    array = ChipletArray(structure, 4, 2, 1)
    topology = array.topology
    graph = same_order_graph(topology)
    target_row = 2
    claimed = set(topology.qubits()[::5])

    def weight(u, v):
        deviation = abs(array.coordinate_of(u)[0] - target_row) + abs(
            array.coordinate_of(v)[0] - target_row
        )
        penalty = 1.0 + 0.5 * deviation
        reward = -0.2 if (u in claimed or v in claimed) else 0.0
        return max(penalty + reward, 0.1)

    for a, b in itertools.permutations(topology.qubits(), 2):
        ours = graphs.shortest_path(topology.adjacency(), a, b, weight)
        assert ours == nx.shortest_path(graph, a, b, weight=lambda u, v, d: weight(u, v))


@st.composite
def random_graphs(draw):
    """Random simple graphs, connected or not, as (n, [(a, b, cross_chip)])."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(st.tuples(pairs, st.booleans()), max_size=3 * n))
    if draw(st.booleans()):
        # a spanning path (in random order) makes the graph connected
        order = draw(st.permutations(range(n)))
        edges += [((a, b), False) for a, b in zip(order, order[1:], strict=False)]
        edges = draw(st.permutations(edges))
    return n, [(a, b, cross) for (a, b), cross in edges]


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_networkx(case):
    n, edges = case
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for a, b, cross in edges:
        graph.add_edge(a, b, cross_chip=cross)
    topology = Topology(graph)
    built = Topology.from_edges({q: {} for q in range(n)}, edges)
    # both constructors keep networkx's neighbour insertion order
    expected_order = {u: list(graph.adj[u]) for u in graph}
    for t in (topology, built):
        assert {u: list(nbrs) for u, nbrs in t.adjacency().items()} == expected_order
        assert t.edges() == tuple((min(a, b), max(a, b)) for a, b in graph.edges())
    assert_distances_match(topology, graph)
    assert_paths_match(topology, graph)
    assert_components_match(topology, graph)
