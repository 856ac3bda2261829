"""Shared verification helpers for the test suite.

The most important one is :func:`assert_semantically_equivalent`: it checks
that a *compiled physical circuit* (possibly containing SWAPs, highway GHZ
preparations, mid-circuit measurements and classically conditioned
corrections) implements the same unitary on the data qubits as the original
logical circuit, up to the final logical-to-physical permutation.  It does so
by simulating both circuits from a non-trivial product input state and
comparing the reduced state on the data qubits, after slicing out the
(measured, hence product-state) ancilla qubits.

:func:`nx_topology` and :func:`nx_highway` rebuild a device or its highway
as a ``networkx.Graph``, the oracle the graph tests check against.

:func:`set_chaos_spec` sets or clears the ``REPRO_CHAOS`` scenario for an
in-process test, e.g. ``job-fail:QFT`` to make every QFT job fail.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx
import numpy as np

from repro.chaos import CHAOS_ENV, reset_chaos
from repro.circuits import Circuit, Simulator, statevectors_equal
from repro.compiler.result import CompilationResult
from repro.hardware import Topology
from repro.highway import HighwayLayout

__all__ = [
    "product_input",
    "assert_semantically_equivalent",
    "assert_all_two_qubit_ops_coupled",
    "set_chaos_spec",
    "nx_topology",
    "nx_highway",
]


def product_input(num_qubits: int, qubits: Sequence[int], *, scale: float = 0.37) -> Circuit:
    """A layer of distinct single-qubit rotations marking each listed qubit.

    Distinct RX/RZ angles per qubit make the input state generic enough that
    permutation or semantics bugs show up as state mismatches.
    """
    circuit = Circuit(num_qubits, name="input")
    for rank, q in enumerate(qubits):
        circuit.rx(scale * (rank + 1), q)
        circuit.rz(0.21 * (rank + 2), q)
    return circuit


def assert_semantically_equivalent(
    logical: Circuit,
    result: CompilationResult,
    *,
    seeds: Iterable[int] = (0, 1, 2),
    atol: float = 1e-7,
) -> None:
    """Check the compiled circuit acts on data qubits like the logical one.

    The logical circuit must be measurement-free (measurements would make the
    comparison stochastic).  The compiled circuit may contain measurements on
    ancilla (highway) qubits; after execution those qubits are in computational
    basis states, so the joint state factorises and the data-qubit state can be
    extracted by slicing at the measured values.
    """
    if any(op.is_measurement for op in logical):
        raise ValueError("semantic comparison needs a measurement-free logical circuit")
    n_logical = logical.num_qubits
    n_physical = result.circuit.num_qubits

    reference_prep = product_input(n_logical, list(range(n_logical)))
    reference = Simulator(n_logical, seed=0).run(reference_prep.compose(logical)).statevector

    for seed in seeds:
        prep = Circuit(n_physical, name="physical-input")
        for logical_q in range(n_logical):
            phys = result.initial_layout[logical_q]
            prep.rx(0.37 * (logical_q + 1), phys)
            prep.rz(0.21 * (logical_q + 2), phys)
        sim = Simulator(n_physical, seed=seed)
        sim.run(prep)
        outcome = sim.run(result.circuit)

        state = outcome.statevector.reshape((2,) * n_physical)
        data_positions = [result.final_layout[q] for q in range(n_logical)]
        others = [q for q in range(n_physical) if q not in data_positions]

        # ancilla qubits must be unentangled from the data: they are either
        # untouched (|0>) or measured; verify each has a definite value and
        # slice the state at it.
        index = [slice(None)] * n_physical
        for q in others:
            expectation = _z_expectation(state, q)
            assert abs(abs(expectation) - 1.0) < 1e-6, (
                f"ancilla/physical qubit {q} is not in a computational basis state "
                f"(<Z> = {expectation:.6f}); the compiled circuit leaks entanglement"
            )
            index[q] = 0 if expectation > 0 else 1
        reduced = state[tuple(index)]

        remaining = sorted(data_positions)
        permutation = [remaining.index(result.final_layout[q]) for q in range(n_logical)]
        reduced = np.transpose(reduced, permutation).reshape(-1)
        assert statevectors_equal(reduced, reference, atol=atol), (
            f"compiled circuit is not equivalent to the logical circuit (seed {seed})"
        )


def _z_expectation(state: np.ndarray, qubit: int) -> float:
    moved = np.moveaxis(state, qubit, 0)
    p0 = float(np.sum(np.abs(moved[0]) ** 2))
    p1 = float(np.sum(np.abs(moved[1]) ** 2))
    return p0 - p1


def assert_all_two_qubit_ops_coupled(result: CompilationResult) -> None:
    """Every 2-qubit operation of the compiled circuit must use a real coupler."""
    from repro.circuits.library import expand_macros

    expanded = expand_macros(result.circuit)
    for op in expanded:
        if op.num_qubits == 2 and not op.is_barrier:
            assert result.topology.is_coupled(*op.qubits), (
                f"operation {op} acts on uncoupled physical qubits"
            )


def set_chaos_spec(monkeypatch, spec: str | None) -> None:
    """Set ``REPRO_CHAOS`` to ``spec`` (None clears it) and drop the cached
    controller, so the next hook call in this process reads the new spec.
    Forked workers reset on their own and inherit the environment."""
    if spec is None:
        monkeypatch.delenv(CHAOS_ENV, raising=False)
    else:
        monkeypatch.setenv(CHAOS_ENV, spec)
    reset_chaos()


def nx_topology(topology: Topology) -> nx.Graph:
    """The device coupling graph as a ``networkx.Graph`` (every qubit a node)."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.qubits())
    graph.add_edges_from(topology.edges())
    return graph


def nx_highway(layout: HighwayLayout) -> nx.Graph:
    """The highway graph as a ``networkx.Graph`` (every highway qubit a node)."""
    return nx.Graph({q: list(nbrs) for q, nbrs in layout.highway_adjacency.items()})
