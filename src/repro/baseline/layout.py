"""Initial layout (logical-to-physical placement) strategies for the baseline.

The baseline compiler mimics a mainstream SWAP-insertion transpiler.  Its
initial placement matters mostly through the total routing distance, so three
simple strategies are provided:

* ``trivial`` — logical qubit ``i`` on physical qubit ``i`` (row-major over
  the device); this is what Qiskit uses before its layout passes refine it.
* ``compact`` — logical qubits packed chiplet by chiplet in a breadth-first
  order from a corner, which keeps interacting qubits of shallow circuits on
  nearby chiplets and is a reasonable stand-in for a density-aware layout
  pass.
* ``noise`` — a noise-adaptive packing: each physical qubit is scored by the
  summed relative error of its incident couplers (a cross-chip link costs
  ``cross_on_ratio``, an on-chip link 1), and logical qubits are packed into
  a connected region grown lowest-score-first, so shallow circuits sit away
  from the error-prone chiplet boundaries.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..hardware.topology import Topology

__all__ = ["trivial_layout", "compact_layout", "noise_adaptive_layout", "initial_layout"]


def trivial_layout(num_logical: int, topology: Topology) -> dict[int, int]:
    """Place logical qubit ``i`` on physical qubit ``i``."""
    _check_size(num_logical, topology)
    return {i: i for i in range(num_logical)}


def compact_layout(num_logical: int, topology: Topology) -> dict[int, int]:
    """Pack logical qubits in BFS order from physical qubit 0.

    A breadth-first ordering keeps the used region of the device connected and
    compact, which reduces worst-case routing distances for the baseline.
    """
    _check_size(num_logical, topology)
    order: list[int] = []
    seen = {0}
    queue = deque([0])
    while queue:
        q = queue.popleft()
        order.append(q)
        for nb in topology.neighbors(q):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    # devices are connected, but guard against isolated qubits anyway
    for q in topology.qubits():
        if q not in seen:
            order.append(q)
    return {i: order[i] for i in range(num_logical)}


def noise_adaptive_layout(
    num_logical: int, topology: Topology, noise: NoiseModel | None = None
) -> dict[int, int]:
    """Pack logical qubits into the lowest-noise connected region.

    Every physical qubit is scored by the summed relative error rate of its
    incident couplers under ``noise`` (cross-chip links weigh
    ``cross_on_ratio``, on-chip links 1).  The region is grown greedily from
    the best-scored qubit, always extending by the lowest-scored frontier
    qubit (ties broken by index, so the layout is deterministic): the result
    stays connected like ``compact`` but hugs the chip interior instead of
    radiating from a fixed corner across chiplet boundaries.
    """
    noise = DEFAULT_NOISE if noise is None else noise
    _check_size(num_logical, topology)
    score: dict[int, float] = {
        q: sum(
            noise.cross_on_ratio if topology.is_cross_chip(q, nb) else 1.0
            for nb in topology.neighbors(q)
        )
        for q in topology.qubits()
    }
    start = min(topology.qubits(), key=lambda q: (score[q], q))
    order: list[int] = []
    seen = {start}
    frontier = [(score[start], start)]
    while frontier:
        _, q = heapq.heappop(frontier)
        order.append(q)
        for nb in topology.neighbors(q):
            if nb not in seen:
                seen.add(nb)
                heapq.heappush(frontier, (score[nb], nb))
    # devices are connected, but guard against isolated qubits anyway
    for q in sorted(topology.qubits(), key=lambda q: (score[q], q)):
        if q not in seen:
            order.append(q)
    return {i: order[i] for i in range(num_logical)}


def initial_layout(
    num_logical: int,
    topology: Topology,
    strategy: str = "compact",
    *,
    noise: NoiseModel | None = None,
) -> dict[int, int]:
    """Dispatch on the layout ``strategy`` name."""
    if strategy == "trivial":
        return trivial_layout(num_logical, topology)
    if strategy == "compact":
        return compact_layout(num_logical, topology)
    if strategy == "noise":
        return noise_adaptive_layout(num_logical, topology, noise)
    raise ValueError(f"unknown layout strategy {strategy!r}")


def _check_size(num_logical: int, topology: Topology) -> None:
    if num_logical > topology.num_qubits:
        raise ValueError(
            f"circuit needs {num_logical} qubits but the device has only "
            f"{topology.num_qubits}"
        )
