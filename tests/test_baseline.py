"""Unit and integration tests for the SABRE-style baseline compiler."""

import pytest

from repro.baseline import BaselineCompiler, SabreRouter, compact_layout, initial_layout, trivial_layout
from repro.circuits import Circuit
from repro.hardware import ChipletArray
from repro.programs import qft_circuit, random_two_qubit_circuit

from helpers import assert_all_two_qubit_ops_coupled, assert_semantically_equivalent, nx_topology


@pytest.fixture(scope="module")
def small_array():
    return ChipletArray("square", 3, 1, 2)


class TestLayouts:
    def test_trivial_layout(self, small_array):
        layout = trivial_layout(5, small_array.topology)
        assert layout == {i: i for i in range(5)}

    def test_compact_layout_is_injective_and_connected(self, small_array):
        topo = small_array.topology
        layout = compact_layout(10, topo)
        positions = list(layout.values())
        assert len(set(positions)) == 10
        import networkx as nx

        sub = nx_topology(topo).subgraph(positions)

        assert nx.is_connected(sub)

    def test_layout_too_large_rejected(self, small_array):
        with pytest.raises(ValueError):
            trivial_layout(small_array.num_qubits + 1, small_array.topology)
        with pytest.raises(ValueError):
            initial_layout(3, small_array.topology, "fancy")


class TestSabreRouting:
    def test_already_routable_circuit_gets_no_swaps(self, small_array):
        topo = small_array.topology
        a, b = topo.on_chip_edges()[0]
        circuit = Circuit(2).cx(0, 1)
        result = SabreRouter(topo).run(circuit, layout={0: a, 1: b})
        assert result.stats["swaps_inserted"] == 0
        assert result.circuit.count_ops() == {"cx": 1}

    def test_all_operations_on_couplers(self, small_array):
        circuit = random_two_qubit_circuit(6, 40, seed=2)
        result = BaselineCompiler(small_array.topology).compile(circuit)
        assert_all_two_qubit_ops_coupled(result)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_routing_preserves_semantics(self, small_array, seed):
        circuit = random_two_qubit_circuit(5, 25, seed=seed)
        result = BaselineCompiler(small_array.topology).compile(circuit)
        assert_semantically_equivalent(circuit, result)

    def test_measurements_and_one_qubit_gates_pass_through(self, small_array):
        circuit = Circuit(3).h(0).cx(0, 2).measure(2).rz(0.3, 1)
        result = BaselineCompiler(small_array.topology).compile(circuit)
        counts = result.circuit.count_ops()
        assert counts["measure"] == 1
        assert counts["h"] == 1
        assert counts["rz"] == 1

    def test_final_layout_tracks_swaps(self, small_array):
        circuit = random_two_qubit_circuit(5, 30, seed=3)
        result = BaselineCompiler(small_array.topology).compile(circuit)
        assert set(result.final_layout) == set(result.initial_layout)
        assert len(set(result.final_layout.values())) == 5

    def test_multi_qubit_ops_rejected(self, small_array):
        from repro.circuits import gates as g

        circuit = Circuit(4)
        circuit.append(g.multi_target_cx(0, [1, 2]))
        with pytest.raises(ValueError):
            SabreRouter(small_array.topology).run(circuit)

    def test_duplicate_layout_rejected(self, small_array):
        circuit = Circuit(2).cx(0, 1)
        with pytest.raises(ValueError):
            SabreRouter(small_array.topology).run(circuit, layout={0: 3, 1: 3})

    def test_commutation_aware_mode_runs(self, small_array):
        circuit = qft_circuit(6, measure=False)
        strict = BaselineCompiler(small_array.topology).compile(circuit)
        relaxed = BaselineCompiler(
            small_array.topology, respect_commutation=True
        ).compile(circuit)
        assert_all_two_qubit_ops_coupled(relaxed)
        assert relaxed.circuit.num_ops("cx", "cp", "swap") > 0
        assert strict.compiler == relaxed.compiler == "baseline"

    def test_trials_keep_best_result(self, small_array):
        circuit = random_two_qubit_circuit(6, 40, seed=4)
        single = BaselineCompiler(small_array.topology, trials=1).compile(circuit)
        multi = BaselineCompiler(small_array.topology, trials=3).compile(circuit)
        assert multi.eff_cnots <= single.eff_cnots + 1e-9
        assert multi.stats["trials"] == 3.0

    def test_invalid_trials(self, small_array):
        with pytest.raises(ValueError):
            BaselineCompiler(small_array.topology, trials=0)

    def test_depth_grows_with_distance(self):
        """Routing a CNOT between far corners costs more than between neighbours."""
        array = ChipletArray("square", 4, 1, 2)
        topo = array.topology
        near = Circuit(2).cx(0, 1)
        far = Circuit(2).cx(0, 1)
        r_near = SabreRouter(topo).run(near, layout={0: 0, 1: 1})
        corner = array.qubit_at((3, 7))
        r_far = SabreRouter(topo).run(far, layout={0: 0, 1: corner})
        assert r_far.metrics().depth > r_near.metrics().depth
        assert r_far.stats["swaps_inserted"] >= 4
