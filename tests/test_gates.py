"""Unit tests for the gate vocabulary (repro.circuits.gates)."""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.circuits import gates as g
from repro.circuits.gates import Barrier, Gate, GateError, Measurement


class TestGateConstruction:
    def test_one_qubit_gate_properties(self):
        gate = g.h(3)
        assert gate.name == "h"
        assert gate.qubits == (3,)
        assert gate.is_one_qubit
        assert not gate.is_two_qubit
        assert not gate.is_measurement
        assert not gate.is_barrier
        assert gate.num_qubits == 1

    def test_two_qubit_gate_properties(self):
        gate = g.cx(1, 2)
        assert gate.is_two_qubit
        assert gate.is_controlled
        assert gate.control == 1
        assert gate.target == 2
        assert gate.targets == (2,)

    def test_parameterised_gate_stores_params(self):
        gate = g.cp(0.25, 0, 1)
        assert gate.params == (0.25,)
        gate = g.rz(1.5, 4)
        assert gate.params == (1.5,)

    def test_repeated_qubits_rejected(self):
        with pytest.raises(GateError):
            g.cx(2, 2)
        with pytest.raises(GateError):
            Gate("swap", (1, 1))

    def test_wrong_arity_rejected(self):
        with pytest.raises(GateError):
            Gate("h", (0, 1))
        with pytest.raises(GateError):
            Gate("cx", (0,))

    def test_empty_name_rejected(self):
        with pytest.raises(GateError):
            Gate("", (0,))

    def test_qubits_are_coerced_to_int_tuple(self):
        gate = Gate("cx", [np.int64(0), np.int64(5)])
        assert gate.qubits == (0, 5)
        assert all(isinstance(q, int) for q in gate.qubits)

    def test_multi_target_gate(self):
        gate = g.multi_target_cx(0, [2, 4, 6])
        assert gate.is_multi_target
        assert gate.control == 0
        assert gate.targets == (2, 4, 6)
        components = gate.components()
        assert [c.qubits for c in components] == [(0, 2), (0, 4), (0, 6)]
        assert all(c.name == "cx" for c in components)

    def test_multi_target_cp_components_keep_params(self):
        gate = g.multi_target_cp(0.5, 1, [2, 3])
        assert all(c.name == "cp" and c.params == (0.5,) for c in gate.components())

    def test_multi_target_needs_targets(self):
        with pytest.raises(GateError):
            Gate("mcx", (0,))

    def test_plain_gate_components_is_itself(self):
        gate = g.cz(0, 1)
        assert gate.components() == (gate,)

    def test_control_accessor_requires_controlled_gate(self):
        with pytest.raises(GateError):
            _ = g.h(0).control
        with pytest.raises(GateError):
            _ = g.swap(0, 1).target


class TestMeasurementAndBarrier:
    def test_measurement_defaults_cbit_to_qubit(self):
        m = g.measure(7)
        assert isinstance(m, Measurement)
        assert m.is_measurement
        assert m.cbit == 7

    def test_measurement_explicit_cbit(self):
        m = g.measure(3, cbit=11)
        assert m.cbit == 11
        assert m.qubits == (3,)

    def test_measurement_has_no_matrix(self):
        with pytest.raises(GateError):
            g.measure(0).matrix()

    def test_barrier_spans_qubits(self):
        b = g.barrier([0, 2, 4])
        assert isinstance(b, Barrier)
        assert b.is_barrier
        assert b.qubits == (0, 2, 4)
        with pytest.raises(GateError):
            g.barrier([])

    def test_barrier_has_no_matrix(self):
        with pytest.raises(GateError):
            g.barrier([0]).matrix()


class TestConditions:
    def test_with_condition_builds_parity_condition(self):
        gate = g.x(2).with_condition([4, 5], 1)
        assert gate.condition == ((4, 5), 1)
        assert gate.qubits == (2,)

    def test_condition_value_normalised_mod_two(self):
        gate = g.z(0).with_condition([1], 3)
        assert gate.condition == ((1,), 1)


class TestValueSemantics:
    """Gates are immutable values: compared, hashed and copied by their fields."""

    SAMPLES = [
        g.h(0),
        g.cp(0.25, 1, 2),
        g.multi_target_cx(0, [1, 3]),
        g.x(4).with_condition([2, 5], 1),
        g.measure(3, cbit=9),
        g.barrier([0, 1, 2]),
    ]

    def test_equal_fields_make_equal_gates_with_equal_hashes(self):
        assert Gate("cx", (0, 1)) == g.cx(0, 1)
        assert hash(Gate("cx", (0, 1))) == hash(g.cx(0, 1))
        assert g.measure(2, cbit=5) == Measurement("measure", (2,), cbit=5)
        assert hash(g.measure(2, cbit=5)) == hash(Measurement("measure", (2,), cbit=5))
        assert g.barrier([1, 2]) == Barrier("barrier", (1, 2))
        assert len({g.cx(0, 1), Gate("cx", [0, 1]), g.cx(1, 0)}) == 2

    def test_different_fields_differ(self):
        assert g.cx(0, 1) != g.cx(1, 0)
        assert g.rz(0.5, 0) != g.rz(0.25, 0)
        assert g.x(0) != g.x(0).with_condition([1], 1)
        assert g.measure(0, cbit=1) != g.measure(0, cbit=2)
        assert g.h(0) != ("h", (0,), (), None)

    def test_equality_holds_only_within_one_class(self):
        gate = Gate("measure", (0,))
        measurement = Measurement("measure", (0,), cbit=0)
        assert gate != measurement and measurement != gate
        assert Gate("barrier", (0, 1)) != Barrier("barrier", (0, 1))
        assert len({Gate("barrier", (0, 1)), Barrier("barrier", (0, 1))}) == 2

    @pytest.mark.parametrize("gate", SAMPLES, ids=repr)
    def test_assignment_raises_attribute_error(self, gate):
        for name in ("name", "qubits", "params", "condition"):
            with pytest.raises(AttributeError):
                setattr(gate, name, getattr(gate, name))
        with pytest.raises(AttributeError):
            gate.extra = 1
        with pytest.raises(AttributeError):
            del gate.qubits

    def test_measurement_cbit_is_read_only(self):
        with pytest.raises(AttributeError):
            g.measure(0).cbit = 3

    @pytest.mark.parametrize("gate", SAMPLES, ids=repr)
    def test_pickle_and_deepcopy_round_trip(self, gate):
        for copied in (pickle.loads(pickle.dumps(gate)), copy.deepcopy(gate), copy.copy(gate)):
            assert type(copied) is type(gate)
            assert copied == gate and hash(copied) == hash(gate)
            assert copied.condition == gate.condition
        assert pickle.loads(pickle.dumps(g.measure(3, cbit=9))).cbit == 9
        assert copy.deepcopy(g.measure(3, cbit=9)).cbit == 9

    def test_trusted_equals_the_validating_constructor(self):
        assert Gate.trusted("cx", (0, 1)) == Gate("cx", (0, 1))
        assert Gate.trusted("rz", (2,), (0.5,)) == Gate("rz", (2,), (0.5,))
        condition = ((1, 2), 1)
        assert Gate.trusted("x", (0,), (), condition) == Gate("x", (0,), (), condition)
        assert type(Gate.trusted("h", (0,))) is Gate
        assert hash(Gate.trusted("swap", (3, 4))) == hash(g.swap(3, 4))

    def test_constructor_coerces_fields(self):
        gate = Gate("cp", [np.int64(1), 2], [np.float32(0.5)], ([np.int64(3)], 5))
        assert gate.qubits == (1, 2) and gate.params == (0.5,)
        assert type(gate.params[0]) is float
        assert gate.condition == ((3,), 1)
        assert all(type(q) is int for q in (*gate.qubits, *gate.condition[0]))

    def test_measurement_and_barrier_validation(self):
        with pytest.raises(GateError):
            Measurement("m", (0,))
        with pytest.raises(GateError):
            Measurement("measure", (0, 1))
        with pytest.raises(GateError):
            Barrier("fence", (0,))
        with pytest.raises(GateError):
            Barrier("barrier", ())
        assert Measurement("measure", (4,)).cbit == 4

    def test_kind_flags(self):
        assert not g.h(0).is_measurement and not g.h(0).is_barrier
        assert g.measure(0).is_measurement and not g.measure(0).is_barrier
        assert g.barrier([0]).is_barrier and not g.barrier([0]).is_measurement

    def test_with_condition_normalises_and_keeps_the_gate(self):
        base = g.rz(0.5, 3)
        gate = base.with_condition([np.int64(1), 2.0], 5)
        assert gate.condition == ((1, 2), 1)
        assert all(type(c) is int for c in gate.condition[0])
        assert (gate.name, gate.qubits, gate.params) == (base.name, base.qubits, base.params)
        assert type(gate) is Gate
        assert gate == Gate("rz", (3,), (0.5,), ((1, 2), 1))
        assert base.condition is None  # the original is untouched
        assert g.x(0).with_condition([4], 0).condition == ((4,), 0)


class TestDiagonality:
    @pytest.mark.parametrize("gate", [g.z(0), g.s(0), g.t(0), g.rz(0.3, 0), g.p(0.2, 0)])
    def test_diagonal_one_qubit_gates(self, gate):
        assert gate.is_diagonal
        assert gate.diagonal_on(0)

    @pytest.mark.parametrize("gate", [g.h(0), g.x(0), g.rx(0.1, 0), g.ry(0.1, 0)])
    def test_non_diagonal_one_qubit_gates(self, gate):
        assert not gate.is_diagonal

    def test_cx_diagonal_on_control_only(self):
        gate = g.cx(3, 5)
        assert gate.diagonal_on(3)
        assert not gate.diagonal_on(5)

    def test_cz_diagonal_on_both(self):
        gate = g.cz(3, 5)
        assert gate.diagonal_on(3)
        assert gate.diagonal_on(5)

    def test_diagonal_on_unrelated_qubit_is_true(self):
        assert g.cx(0, 1).diagonal_on(9)


class TestMatrices:
    def test_hadamard_matrix(self):
        m = g.h(0).matrix()
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(m, expected)

    def test_cnot_matrix(self):
        m = g.cx(0, 1).matrix()
        expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.allclose(m, expected)

    @pytest.mark.parametrize(
        "gate",
        [
            g.h(0), g.x(0), g.y(0), g.z(0), g.s(0), g.sdg(0), g.t(0), g.tdg(0),
            g.rx(0.7, 0), g.ry(0.7, 0), g.rz(0.7, 0), g.p(0.7, 0),
            g.cx(0, 1), g.cz(0, 1), g.cp(0.7, 0, 1), g.crz(0.7, 0, 1), g.swap(0, 1),
        ],
    )
    def test_all_matrices_are_unitary(self, gate):
        m = gate.matrix()
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)

    def test_inverse_pairs_multiply_to_identity(self):
        assert np.allclose(g.s(0).matrix() @ g.sdg(0).matrix(), np.eye(2))
        assert np.allclose(g.t(0).matrix() @ g.tdg(0).matrix(), np.eye(2))

    def test_rz_p_phase_relation(self):
        theta = 0.9
        rz = g.rz(theta, 0).matrix()
        p = g.p(theta, 0).matrix()
        # RZ equals P up to a global phase of exp(-i theta / 2)
        assert np.allclose(rz * np.exp(1j * theta / 2), p)

    def test_unknown_gate_matrix_raises(self):
        with pytest.raises(GateError):
            Gate("mcx", (0, 1, 2)).matrix()
