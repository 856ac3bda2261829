"""Evaluation metrics from the paper's Section 7.1.

Two quantities are reported for every compiled circuit:

* the **weighted depth** — only 2-qubit gates and measurements count, with a
  measurement weighted by its latency relative to a 2-qubit gate (default 2);
* the **effective CNOT count** —
  ``#on_chip + (p_cross/p_on) * #cross_chip + (p_meas/p_on) * #measurements``,
  which folds the error-rate disparity between operation types into a single
  error-proportional number.

Improvements are reported as the paper does: ``1 - ours / baseline`` (positive
is better), and summaries across benchmarks use the geometric mean of the
ratio, matching the "average (geomean)" language in Section 7.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .experiments.records import improvement, normalized_ratio
from .hardware.noise import DEFAULT_NOISE, NoiseModel

if TYPE_CHECKING:  # annotations only: importing the metrics loads no circuit IR
    from .circuits.circuit import Circuit
    from .hardware.topology import Topology

__all__ = [
    "OperationCounts",
    "CircuitMetrics",
    "count_operations",
    "circuit_metrics",
    "improvement",
    "normalized_ratio",
    "geometric_mean",
]

#: 2-qubit gate names counted as "CNOT-equivalent" operations.
_TWO_QUBIT_NAMES = frozenset({"cx", "cz", "cp", "crz"})


@dataclass(frozen=True)
class OperationCounts:
    """Counts of the error-prone operations in a physical circuit."""

    on_chip_cnots: int = 0
    cross_chip_cnots: int = 0
    measurements: int = 0
    one_qubit_gates: int = 0

    @property
    def total_cnots(self) -> int:
        return self.on_chip_cnots + self.cross_chip_cnots

    def effective_cnots(self, noise: NoiseModel = DEFAULT_NOISE) -> float:
        """The paper's #eff_CNOTs metric under ``noise``."""
        return noise.effective_cnots(
            self.on_chip_cnots, self.cross_chip_cnots, self.measurements
        )

    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        return OperationCounts(
            self.on_chip_cnots + other.on_chip_cnots,
            self.cross_chip_cnots + other.cross_chip_cnots,
            self.measurements + other.measurements,
            self.one_qubit_gates + other.one_qubit_gates,
        )


@dataclass(frozen=True)
class CircuitMetrics:
    """Depth and operation counts of one compiled circuit."""

    depth: float
    counts: OperationCounts
    eff_cnots: float
    num_physical_qubits: int
    num_operations: int

    def as_dict(self) -> dict[str, float]:
        return {
            "depth": self.depth,
            "on_chip_cnots": self.counts.on_chip_cnots,
            "cross_chip_cnots": self.counts.cross_chip_cnots,
            "measurements": self.counts.measurements,
            "eff_cnots": self.eff_cnots,
            "num_physical_qubits": self.num_physical_qubits,
            "num_operations": self.num_operations,
        }


def count_operations(
    circuit: Circuit,
    topology: Topology | None = None,
    *,
    strict: bool = True,
) -> OperationCounts:
    """Count on-chip CNOTs, cross-chip CNOTs and measurements.

    ``circuit`` should be a *physical* circuit; SWAPs count as three CNOTs and
    multi-target gates as one 2-qubit gate per target.  When ``topology`` is
    given, each 2-qubit operation is classified as on-chip or cross-chip by
    the edge it uses; with ``strict=True`` an operation on an uncoupled pair
    raises, which doubles as a routing-correctness check.
    """
    return _tally(circuit, topology, strict=strict)[0]


def _tally(
    circuit: Circuit,
    topology: Topology | None,
    *,
    strict: bool,
    meas_latency: float = 2.0,
) -> tuple[OperationCounts, float, int]:
    """Counts, weighted depth and expanded operation count in one pass.

    Equivalent to counting and timing ``expand_macros(circuit)`` without
    building it: a ``swap`` is three CNOTs on its pair, each advancing both
    qubit clocks by one 2-qubit weight, and a multi-target gate is its
    per-target components in order.  1-qubit gates weigh nothing in the
    depth; barriers synchronise their qubits; measurements weigh
    ``meas_latency``.
    """
    on_chip = 0
    cross_chip = 0
    measurements = 0
    one_qubit = 0
    num_operations = 0
    clock = [0.0] * circuit.num_qubits
    meas_weight = float(meas_latency)
    # set-based coupling lookups: routed circuits classify hundreds of
    # thousands of CNOTs, and frozensets of the edge tuples make both
    # membership tests O(1) per operation
    if topology is not None:
        coupled_edges = frozenset(topology.edges())
        cross_edges = frozenset(topology.cross_chip_edges())
    for op in circuit:
        qubits = op.qubits
        if op.is_barrier:
            num_operations += 1
            sync = max((clock[q] for q in qubits), default=0.0)
            for q in qubits:
                clock[q] = sync
            continue
        if op.is_measurement:
            num_operations += 1
            measurements += 1
            finish = max(clock[q] for q in qubits) + meas_weight
            for q in qubits:
                clock[q] = finish
            continue
        name = op.name
        if name == "swap":
            repeats = 3
            pairs: tuple[tuple[int, ...], ...] = (qubits,)
        elif op.is_multi_target:
            repeats = 1
            pairs = tuple((qubits[0], target) for target in qubits[1:])
        elif name in _TWO_QUBIT_NAMES:
            repeats = 1
            pairs = (qubits,)
        elif len(qubits) == 1:
            num_operations += 1
            one_qubit += 1
            continue
        else:
            raise ValueError(f"unexpected operation {op} in physical circuit")
        for a, b in pairs:
            num_operations += repeats
            if topology is None:
                on_chip += repeats
            else:
                edge = (a, b) if a < b else (b, a)
                if edge in coupled_edges:
                    if edge in cross_edges:
                        cross_chip += repeats
                    else:
                        on_chip += repeats
                elif strict:
                    raise ValueError(
                        f"2-qubit operation {op} acts on uncoupled qubits {(a, b)}"
                    )
                else:
                    on_chip += repeats
            finish = (clock[a] if clock[a] > clock[b] else clock[b]) + 1.0
            if repeats == 3:
                # three sequential CNOTs, accumulated one weight at a time
                finish = finish + 1.0 + 1.0
            clock[a] = clock[b] = finish
    counts = OperationCounts(on_chip, cross_chip, measurements, one_qubit)
    return counts, max(clock, default=0.0), num_operations


def circuit_metrics(
    circuit: Circuit,
    topology: Topology | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    *,
    strict: bool = True,
) -> CircuitMetrics:
    """Compute the paper's depth and eff_CNOT metrics for a physical circuit."""
    counts, depth, num_operations = _tally(
        circuit, topology, strict=strict, meas_latency=noise.meas_latency
    )
    return CircuitMetrics(
        depth=depth,
        counts=counts,
        eff_cnots=counts.effective_cnots(noise),
        num_physical_qubits=circuit.num_qubits,
        num_operations=num_operations,
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's summary statistic)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
