"""QAOA MaxCut benchmark circuit (paper Section 7.1).

The paper evaluates QAOA on MaxCut over random graphs in which "half of all
possible edges" are present.  One QAOA layer applies, for every edge
``(i, j)``, the phase-separation unitary ``exp(-i * gamma * Z_i Z_j)`` followed
by the transverse-field mixer ``RX`` on every qubit.

By default each ZZ phase term is emitted as the textbook CX-RZ-CX ladder —
the form mainstream transpilers (and the paper's Qiskit baseline) receive.
Passing ``use_cx_ladder=False`` emits the mathematically equivalent *diagonal*
form instead (``exp(-i g ZZ) ∝ CP(-4g) · RZ(2g) ⊗ RZ(2g)``), which costs one
2-qubit operation instead of two; the MECH compiler performs that rewrite
itself (see :mod:`repro.compiler.rewrite`), so both compilers can be fed the
same ladder-form circuit as in the paper's evaluation.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..circuits.circuit import Circuit
from ..rng import default_rng

__all__ = ["random_maxcut_graph", "qaoa_maxcut_circuit"]


def random_maxcut_graph(
    num_qubits: int, *, edge_fraction: float = 0.5, seed: int = 0
) -> list[tuple[int, int]]:
    """Random graph with ``edge_fraction`` of all possible edges (paper setup)."""
    if num_qubits < 2:
        raise ValueError("MaxCut needs at least two vertices")
    if not 0.0 < edge_fraction <= 1.0:
        raise ValueError("edge_fraction must be in (0, 1]")
    rng = default_rng(seed)
    all_edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    count = max(1, int(round(edge_fraction * len(all_edges))))
    chosen = rng.choice(len(all_edges), size=count, replace=False)
    return [all_edges[k] for k in sorted(chosen)]


def qaoa_maxcut_circuit(
    num_qubits: int,
    *,
    layers: int = 1,
    edge_fraction: float = 0.5,
    edges: Sequence[tuple[int, int]] | None = None,
    gammas: Sequence[float] | None = None,
    betas: Sequence[float] | None = None,
    seed: int = 0,
    measure: bool = True,
    use_cx_ladder: bool = True,
) -> Circuit:
    """Build a QAOA MaxCut circuit.

    Parameters
    ----------
    num_qubits:
        Number of graph vertices / data qubits.
    layers:
        Number of QAOA layers ``p``.
    edge_fraction:
        Fraction of all possible edges in the random problem graph (the paper
        uses one half).
    edges:
        Explicit edge list; overrides the random graph when given.
    gammas, betas:
        Per-layer phase and mixer angles (defaults spread over ``(0, pi)``).
    seed:
        Random-graph seed.
    measure:
        Append a final measurement of every qubit.
    use_cx_ladder:
        Emit the textbook CX-RZ-CX decomposition of each ZZ term (default);
        ``False`` emits the equivalent controlled-phase form directly.
    """
    if layers < 1:
        raise ValueError("QAOA needs at least one layer")
    problem_edges = list(edges) if edges is not None else random_maxcut_graph(
        num_qubits, edge_fraction=edge_fraction, seed=seed
    )
    for a, b in problem_edges:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
            raise ValueError(f"invalid edge ({a}, {b})")
    gammas = list(gammas) if gammas is not None else [
        0.3 + 0.4 * (k + 1) / layers for k in range(layers)
    ]
    betas = list(betas) if betas is not None else [
        0.2 + 0.5 * (k + 1) / layers for k in range(layers)
    ]
    if len(gammas) != layers or len(betas) != layers:
        raise ValueError("need one gamma and one beta per layer")

    circuit = Circuit(num_qubits, name=f"qaoa-{num_qubits}")
    for q in range(num_qubits):
        circuit.h(q)
    for layer in range(layers):
        gamma = gammas[layer]
        for a, b in problem_edges:
            if use_cx_ladder:
                circuit.cx(a, b)
                circuit.rz(2.0 * gamma, b)
                circuit.cx(a, b)
            else:
                circuit.rz(2.0 * gamma, a)
                circuit.rz(2.0 * gamma, b)
                circuit.cp(-4.0 * gamma, a, b)
        beta = betas[layer]
        for q in range(num_qubits):
            circuit.rx(2.0 * beta, q)
    if measure:
        circuit.measure_all()
    return circuit
