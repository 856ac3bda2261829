"""VQE full-entanglement ansatz benchmark circuit (paper Section 7.1).

The paper uses "the commonly used full-entanglement ansatz": alternating
layers of single-qubit rotations and an entangling block containing a CNOT
from every qubit to every later qubit.  The CNOTs that share a control qubit
commute with each other, so a full-entanglement block is an ideal consumer of
the highway protocol.
"""

from __future__ import annotations

from collections.abc import Sequence

import math

from ..circuits.circuit import Circuit
from ..rng import default_rng

__all__ = ["vqe_full_entanglement_circuit"]


def vqe_full_entanglement_circuit(
    num_qubits: int,
    *,
    layers: int = 1,
    parameters: Sequence[float] | None = None,
    seed: int = 0,
    measure: bool = True,
) -> Circuit:
    """Build a hardware-efficient VQE ansatz with full entanglement.

    Each layer applies ``RY`` and ``RZ`` rotations on every qubit followed by
    CNOT(i, j) for all ``i < j``; a final rotation layer closes the ansatz.

    Parameters
    ----------
    num_qubits:
        Number of data qubits.
    layers:
        Number of entangling layers.
    parameters:
        Optional flat list of rotation angles, length
        ``2 * num_qubits * (layers + 1)``; random angles are drawn otherwise.
    seed:
        Seed for the random rotation angles.
    measure:
        Append a final measurement of every qubit.
    """
    if num_qubits < 2:
        raise ValueError("the full-entanglement ansatz needs at least two qubits")
    if layers < 1:
        raise ValueError("the ansatz needs at least one layer")
    needed = 2 * num_qubits * (layers + 1)
    if parameters is not None:
        params = list(parameters)
        if len(params) != needed:
            raise ValueError(f"expected {needed} parameters, got {len(params)}")
    else:
        params = default_rng(seed).uniform(0.0, 2.0 * math.pi, size=needed)

    circuit = Circuit(num_qubits, name=f"vqe-{num_qubits}")
    index = 0

    def rotation_layer() -> None:
        nonlocal index
        for q in range(num_qubits):
            circuit.ry(params[index], q)
            circuit.rz(params[index + 1], q)
            index += 2

    rotation_layer()
    for _ in range(layers):
        for control in range(num_qubits):
            for target in range(control + 1, num_qubits):
                circuit.cx(control, target)
        rotation_layer()
    if measure:
        circuit.measure_all()
    return circuit
