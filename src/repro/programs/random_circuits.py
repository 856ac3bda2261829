"""Random circuit generators for stress tests and property-based testing."""

from __future__ import annotations

import math

from ..circuits.circuit import Circuit
from ..rng import default_rng

__all__ = ["random_two_qubit_circuit", "random_commuting_layer_circuit"]


def random_two_qubit_circuit(
    num_qubits: int,
    num_gates: int,
    *,
    seed: int = 0,
    one_qubit_fraction: float = 0.3,
    measure: bool = False,
) -> Circuit:
    """Random circuit of CNOT/CZ/CP gates interspersed with 1-qubit rotations."""
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    if num_gates < 0:
        raise ValueError("num_gates must be non-negative")
    rng = default_rng(seed)
    circuit = Circuit(num_qubits, name=f"random-{num_qubits}x{num_gates}")
    for _ in range(num_gates):
        if rng.random() < one_qubit_fraction:
            q = rng.integers(num_qubits)
            choice = rng.random()
            if choice < 0.4:
                circuit.h(q)
            elif choice < 0.7:
                circuit.rz(rng.uniform(0, 2 * math.pi), q)
            else:
                circuit.rx(rng.uniform(0, 2 * math.pi), q)
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            choice = rng.random()
            if choice < 0.5:
                circuit.cx(a, b)
            elif choice < 0.8:
                circuit.cz(a, b)
            else:
                circuit.cp(rng.uniform(0, math.pi), a, b)
    if measure:
        circuit.measure_all()
    return circuit


def random_commuting_layer_circuit(
    num_qubits: int,
    num_layers: int,
    *,
    fanout: int = 4,
    seed: int = 0,
) -> Circuit:
    """Layers of CNOTs fanning out from random control qubits.

    Each layer picks a control qubit and applies CNOTs to ``fanout`` random
    targets — the ideal aggregation pattern for the highway protocol, used by
    tests that check the MECH scheduler actually forms multi-target gates.
    """
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    rng = default_rng(seed)
    circuit = Circuit(num_qubits, name=f"fanout-{num_qubits}x{num_layers}")
    for _ in range(num_layers):
        control = rng.integers(num_qubits)
        others = [q for q in range(num_qubits) if q != control]
        size = min(fanout, len(others))
        targets = rng.choice(others, size=size, replace=False)
        for t in targets:
            circuit.cx(control, t)
    return circuit
