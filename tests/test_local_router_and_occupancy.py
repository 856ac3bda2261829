"""Unit tests for local routing and highway occupancy management."""

import networkx as nx
import pytest

from repro.compiler import LocalRouter, RoutingError
from repro.hardware import ChipletArray
from repro.highway import HighwayLayout, HighwayManager

from helpers import nx_highway


@pytest.fixture(scope="module")
def array():
    return ChipletArray("square", 5, 2, 2)


@pytest.fixture(scope="module")
def layout(array):
    return HighwayLayout(array)


@pytest.fixture(scope="module")
def router(array, layout):
    return LocalRouter(array.topology, layout.highway_qubits)


@pytest.fixture()
def manager(layout):
    return HighwayManager(layout)


class TestLocalRouter:
    def test_paths_avoid_highway_qubits(self, router, layout):
        data = layout.data_qubits
        path = router.path(data[0], data[-1])
        assert path[0] == data[0] and path[-1] == data[-1]
        assert all(not layout.is_highway(q) for q in path)
        assert all(router.topology.is_coupled(a, b) for a, b in zip(path, path[1:], strict=False))

    def test_path_to_self(self, router, layout):
        q = layout.data_qubits[0]
        assert router.path(q, q) == [q]
        assert router.swaps_to_position(q, q) == []

    def test_data_distance_matches_path_length(self, router, layout):
        a, b = layout.data_qubits[0], layout.data_qubits[10]
        assert router.data_distance(a, b) == len(router.path(a, b)) - 1

    def test_highway_positions_rejected(self, router, layout):
        hw = next(iter(layout.highway_qubits))
        data = layout.data_qubits[0]
        with pytest.raises(RoutingError):
            router.path(hw, data)
        with pytest.raises(RoutingError):
            router.data_distance(data, hw)

    def test_swaps_to_adjacency(self, router, layout, array):
        topo = array.topology
        a, b = layout.data_qubits[0], layout.data_qubits[-1]
        swaps = router.swaps_to_adjacency(a, b)
        # replay the swaps: the qubit starting at a ends adjacent to b
        position = a
        for x, y in swaps:
            assert topo.is_coupled(x, y)
            assert position == x
            position = y
        assert topo.is_coupled(position, b)

    def test_swaps_to_adjacency_noop_when_coupled(self, router, layout, array):
        topo = array.topology
        for a in layout.data_qubits:
            for b in topo.neighbors(a):
                if not layout.is_highway(b):
                    assert router.swaps_to_adjacency(a, b) == []
                    return

    def test_nearest_parking(self, router, layout, array):
        topo = array.topology
        entrance = next(iter(layout.highway_qubits))
        source = layout.data_qubits[0]
        parking = router.nearest_parking(source, entrance)
        if parking is not None:
            assert topo.is_coupled(parking, entrance)
            assert not layout.is_highway(parking)

    def test_nearest_parking_respects_exclusions(self, router, layout, array):
        topo = array.topology
        entrance = next(
            h for h in layout.highway_qubits
            if sum(not layout.is_highway(n) for n in topo.neighbors(h)) >= 2
        )
        source = layout.data_qubits[0]
        first = router.nearest_parking(source, entrance)
        second = router.nearest_parking(source, entrance, exclude=[first])
        assert second != first

    def test_is_data(self, router, layout):
        assert router.is_data(layout.data_qubits[0])
        assert not router.is_data(next(iter(layout.highway_qubits)))

    def test_router_without_highway_uses_all_qubits(self, array):
        plain = LocalRouter(array.topology)
        assert plain.data_distance(0, array.num_qubits - 1) < float("inf")


class TestHighwayManager:
    def test_entrance_candidates_are_highway_qubits(self, manager, layout):
        data = layout.data_qubits[0]
        candidates = manager.entrance_candidates(data)
        assert candidates
        assert all(layout.is_highway(e) for e in candidates)

    def test_entrance_parking_excludes_highway(self, manager, layout):
        for entrance in list(layout.highway_qubits)[:10]:
            for parking in manager.entrance_parking(entrance):
                assert not layout.is_highway(parking)
                assert manager.topology.is_coupled(parking, entrance)

    def test_build_route_is_a_connected_tree_containing_targets(self, manager, layout):
        highway = sorted(layout.highway_qubits)
        control = highway[0]
        targets = highway[-4:]
        route = manager.build_route(control, targets)
        assert route.root == control
        assert set(targets) <= set(route.nodes)
        graph = nx.Graph()
        graph.add_nodes_from(route.nodes)
        for node, neighbours in route.adjacency.items():
            for nb in neighbours:
                graph.add_edge(node, nb)
        assert nx.is_connected(graph)
        assert graph.number_of_edges() == len(route.nodes) - 1  # tree
        # every route edge is a highway-graph edge
        highway = nx_highway(layout)
        for a, b in graph.edges:
            assert highway.has_edge(a, b)

    def test_build_route_reuses_nodes_for_nearby_targets(self, manager, layout):
        highway = sorted(layout.highway_qubits)
        control = highway[0]
        single = manager.build_route(control, [highway[-1]])
        double = manager.build_route(control, [highway[-1], highway[-2]])
        assert double.size <= single.size + 4

    def test_build_route_rejects_non_highway_endpoints(self, manager, layout):
        data = layout.data_qubits[0]
        highway = sorted(layout.highway_qubits)
        with pytest.raises(ValueError):
            manager.build_route(data, [highway[0]])
        with pytest.raises(ValueError):
            manager.build_route(highway[0], [data])

    def test_claims_and_release_times(self, manager, layout):
        nodes = sorted(layout.highway_qubits)[:5]
        assert manager.earliest_start(nodes, ready_time=3.0) == 3.0
        manager.claim(nodes, release_at=17.0)
        assert manager.next_free(nodes[0]) == 17.0
        assert manager.earliest_start(nodes, ready_time=3.0) == 17.0
        assert manager.num_claims == 1
        assert manager.average_occupancy() == 5.0
        # claims never move release times backwards
        manager.claim(nodes[:2], release_at=5.0)
        assert manager.next_free(nodes[0]) == 17.0

    def test_claim_rejects_non_highway_qubit(self, manager, layout):
        with pytest.raises(ValueError):
            manager.claim([layout.data_qubits[0]], release_at=1.0)

    def test_via_lookup_matches_layout_segments(self, manager, layout):
        lookup = manager.via_lookup()
        for segment in layout.segments:
            assert lookup(segment.a, segment.b) == segment.via
        # non-edges return None
        data = layout.data_qubits
        assert lookup(data[0], data[1]) is None


class TestNextHopTables:
    """PR-5: path() walks a per-destination next-hop table; the table must
    reproduce the historic per-hop ``min((distance, neighbour))`` descent."""

    def test_paths_match_historic_greedy_descent(self, router, layout):
        data = layout.data_qubits
        dist = router._distances
        for source in data[:6]:
            for destination in (data[-1], data[len(data) // 2]):
                if source == destination:
                    continue
                fast = router.path(source, destination)
                slow = [source]
                current = source
                while current != destination:
                    current = min(
                        router._neighbors[current],
                        key=lambda nb: (dist[nb][destination], nb),
                    )
                    slow.append(current)
                assert fast == slow

    def test_next_hop_table_is_cached(self, router, layout):
        destination = layout.data_qubits[-1]
        table = router._next_hop_table(destination)
        assert table is router._next_hop_table(destination)

    def test_nearest_parking_matches_historic_scan(self, router, layout, array):
        topo = array.topology
        import numpy as np

        for entrance in sorted(layout.highway_qubits)[:8]:
            for source in layout.data_qubits[:8]:
                best, best_cost = None, np.inf
                for nb in topo.neighbors(entrance):
                    if nb in router.highway_qubits:
                        continue
                    cost = router._distances[source][nb] if source != nb else 0.0
                    if cost < best_cost:
                        best_cost = cost
                        best = nb
                if best is None or not np.isfinite(best_cost):
                    best = None
                assert router.nearest_parking(source, entrance) == best

    def test_nearest_parking_exclusion_still_works(self, router, layout):
        entrance = next(
            h
            for h in sorted(layout.highway_qubits)
            if sum(not layout.is_highway(n) for n in router.topology.neighbors(h)) >= 2
        )
        source = layout.data_qubits[0]
        first = router.nearest_parking(source, entrance)
        second = router.nearest_parking(source, entrance, exclude=(first,))
        assert second is not None and second != first
