"""Unit tests for highway layout generation (repro.highway.layout)."""

import networkx as nx
import pytest

from repro.hardware import ChipletArray
from repro.highway import HighwayLayout

from helpers import nx_highway, nx_topology


@pytest.fixture(scope="module")
def small_array():
    return ChipletArray("square", 5, 2, 2)


@pytest.fixture(scope="module")
def small_layout(small_array):
    return HighwayLayout(small_array)


class TestBasicProperties:
    def test_partition_of_qubits(self, small_array, small_layout):
        highway = set(small_layout.highway_qubits)
        data = set(small_layout.data_qubits)
        assert highway | data == set(small_array.topology.qubits())
        assert not (highway & data)
        assert small_layout.num_data_qubits == len(data)

    def test_overhead_fraction(self, small_layout, small_array):
        assert small_layout.qubit_overhead() == pytest.approx(
            len(small_layout.highway_qubits) / small_array.num_qubits
        )
        assert 0.0 < small_layout.qubit_overhead() < 0.5

    def test_is_highway(self, small_layout):
        some_highway = next(iter(small_layout.highway_qubits))
        some_data = small_layout.data_qubits[0]
        assert small_layout.is_highway(some_highway)
        assert not small_layout.is_highway(some_data)

    def test_highway_graph_is_connected_and_spans_highway_qubits(self, small_layout):
        g = nx_highway(small_layout)
        assert set(g.nodes) == set(small_layout.highway_qubits)
        assert nx.is_connected(g)

    def test_segments_match_graph_edges(self, small_layout):
        graph = nx_highway(small_layout)
        for seg in small_layout.segments:
            assert graph.has_edge(seg.a, seg.b)
        for a, b in graph.edges:
            assert small_layout.segment_between(a, b) is not None
        assert small_layout.segment_between(*list(small_layout.data_qubits[:2])) is None

    def test_segment_endpoints_are_close_on_hardware(self, small_layout, small_array):
        topo = small_array.topology
        for seg in small_layout.segments:
            if seg.is_bridged:
                assert topo.is_coupled(seg.a, seg.via)
                assert topo.is_coupled(seg.via, seg.b)
                assert not small_layout.is_highway(seg.via)
            else:
                assert topo.is_coupled(seg.a, seg.b)

    def test_lines_cover_highway_qubits(self, small_layout):
        on_lines = set()
        for line in small_layout.lines:
            on_lines.update(line)
        # stitching may add off-line highway qubits, but the bulk comes from lines
        assert len(set(small_layout.highway_qubits) - on_lines) <= len(
            small_layout.highway_qubits
        ) // 2


class TestReachability:
    def test_every_data_qubit_has_nearby_entrance(self, small_layout):
        for q in small_layout.data_qubits:
            entrances = small_layout.entrances_near(q)
            assert entrances
            assert all(small_layout.is_highway(e) for e in entrances)
            assert small_layout.distance_to_highway(q) <= 4

    def test_data_subgraph_stays_connected(self, small_array, small_layout):
        """Local routing must be possible without crossing the highway."""
        data = set(small_layout.data_qubits)
        sub = nx_topology(small_array.topology).subgraph(data)
        assert nx.is_connected(sub)

    def test_entrances_have_parking(self, small_array, small_layout):
        topo = small_array.topology
        with_parking = [
            h
            for h in small_layout.highway_qubits
            if any(not small_layout.is_highway(nb) for nb in topo.neighbors(h))
        ]
        # the vast majority of highway qubits must be usable as entrances
        assert len(with_parking) >= 0.7 * len(small_layout.highway_qubits)


class TestDensityAndStructures:
    def test_density_increases_overhead(self):
        arr = ChipletArray("square", 7, 2, 2)
        fractions = [
            HighwayLayout(arr, density=d).qubit_overhead() for d in (1, 2, 3)
        ]
        assert fractions[0] < fractions[1] < fractions[2]

    def test_interleaving_reduces_overhead(self):
        arr = ChipletArray("square", 7, 2, 2)
        sparse = HighwayLayout(arr, interleave=True)
        dense = HighwayLayout(arr, interleave=False)
        assert sparse.qubit_overhead() < dense.qubit_overhead()

    def test_overhead_decreases_with_chiplet_size(self):
        fractions = []
        for width in (5, 7, 9):
            arr = ChipletArray("square", width, 2, 2)
            fractions.append(HighwayLayout(arr).qubit_overhead())
        assert fractions[0] > fractions[-1]

    @pytest.mark.parametrize("structure", ["square", "hexagon", "heavy_square", "heavy_hexagon"])
    def test_all_coupling_structures_supported(self, structure):
        arr = ChipletArray(structure, 6, 2, 2)
        layout = HighwayLayout(arr)
        assert nx.is_connected(nx_highway(layout))
        assert layout.num_data_qubits > arr.num_qubits // 2

    def test_crossroads_exist_on_multi_chiplet_meshes(self, small_layout):
        assert len(small_layout.crossroads) >= 1
        assert small_layout.crossroads <= small_layout.highway_qubits

    def test_sparse_cross_links_still_give_connected_highway(self):
        arr = ChipletArray("square", 7, 2, 2, cross_links_per_edge=1)
        layout = HighwayLayout(arr)
        assert nx.is_connected(nx_highway(layout))

    def test_invalid_density_rejected(self, small_array):
        with pytest.raises(ValueError):
            HighwayLayout(small_array, density=0)
