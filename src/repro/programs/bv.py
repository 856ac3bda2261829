"""Bernstein-Vazirani benchmark circuit (paper Section 7.1).

The BV circuit recovers a secret bit-string with one oracle query: Hadamards
on every qubit, an oracle consisting of a CNOT from every data qubit whose
secret bit is 1 onto a shared ancilla prepared in ``|->``, and final
Hadamards plus measurement.  All oracle CNOTs share the same *target* qubit,
so under the MECH framework they collapse into a single highway gate — which
is why the paper reports >90% depth improvements on BV.

Following the paper, the secret string has "approximately half of the digits
being 0 and half being 1", drawn uniformly at random per seed.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..rng import default_rng

__all__ = ["random_secret", "bernstein_vazirani_circuit"]


def random_secret(num_bits: int, *, seed: int = 0) -> str:
    """Secret string with (approximately) half ones, shuffled uniformly."""
    if num_bits < 1:
        raise ValueError("the secret must have at least one bit")
    rng = default_rng(seed)
    ones = num_bits // 2
    bits = [1] * ones + [0] * (num_bits - ones)
    rng.shuffle(bits)
    return "".join(str(b) for b in bits)


def bernstein_vazirani_circuit(
    num_data_qubits: int,
    *,
    secret: str | None = None,
    seed: int = 0,
    measure: bool = True,
) -> Circuit:
    """Build a Bernstein-Vazirani circuit over ``num_data_qubits`` + 1 qubits.

    Parameters
    ----------
    num_data_qubits:
        Number of secret bits (the circuit uses one extra ancilla qubit).
    secret:
        Explicit secret bit-string; a balanced random one is drawn otherwise.
    seed:
        Seed for the random secret.
    measure:
        Append the final measurement of the data qubits.
    """
    if secret is None:
        secret = random_secret(num_data_qubits, seed=seed)
    if len(secret) != num_data_qubits or any(c not in "01" for c in secret):
        raise ValueError("secret must be a bit-string of length num_data_qubits")

    total = num_data_qubits + 1
    ancilla = num_data_qubits
    circuit = Circuit(total, name=f"bv-{num_data_qubits}")
    for q in range(num_data_qubits):
        circuit.h(q)
    circuit.x(ancilla)
    circuit.h(ancilla)
    for q, bit in enumerate(secret):
        if bit == "1":
            circuit.cx(q, ancilla)
    for q in range(num_data_qubits):
        circuit.h(q)
    if measure:
        for q in range(num_data_qubits):
            circuit.measure(q)
    return circuit
