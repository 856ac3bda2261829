"""Local routing of data qubits (paper Section 6.1, "local routing").

Data qubits involved in highway gates must be brought next to their chosen
highway entrance, and data qubits of regular (off-highway) 2-qubit gates must
be brought next to each other.  Both movements are realised by chains of SWAP
gates that stay on *data* qubits: highway qubits hold (or are about to hold)
entangled highway state, so routing never swaps through them.  Interval qubits
of the interleaved highway sections are ordinary data qubits and remain
available for routing, which keeps the data subgraph connected.

The router pre-computes an all-pairs distance matrix over the data subgraph
(one breadth-first search per position over the data-neighbour lists) so
path extraction is cheap; per-destination next-hop tables are derived lazily
from the distance matrix, turning the former sort-all-neighbours-per-hop
descent of :meth:`path` into a table walk.
It returns SWAP pair lists and leaves the mapping bookkeeping to the
scheduler.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..hardware import graphs
from ..hardware.topology import Topology

__all__ = ["LocalRouter", "RoutingError"]


class RoutingError(RuntimeError):
    """Raised when no data-qubit path exists between the requested positions."""


#: Sentinel distinguishing "memoized None" from "not memoized yet".
_MISS = object()


class LocalRouter:
    """Shortest-path SWAP routing restricted to the data-qubit subgraph."""

    def __init__(self, topology: Topology, highway_qubits: Iterable[int] = ()) -> None:
        self.topology = topology
        self.highway_qubits = frozenset(highway_qubits)
        self._neighbors: dict[int, list[int]] = {}
        for q in topology.qubits():
            if q in self.highway_qubits:
                continue
            self._neighbors[q] = [
                nb for nb in topology.neighbors(q) if nb not in self.highway_qubits
            ]
        self._distances = self._compute_distances()
        # per-destination greedy next hop, derived lazily from the distance
        # matrix; replaces the per-hop neighbour re-sort of the historic path()
        self._next_hop: dict[int, np.ndarray] = {}
        # padded (n, max_degree) data-neighbour matrix backing the next-hop
        # derivation; -1 marks padding
        self._padded_neighbors: np.ndarray | None = None
        # per-anchor parking candidates (data neighbours in ascending order),
        # shared by nearest_parking / swaps_to_adjacency
        self._parking: dict[int, np.ndarray] = {}
        # nearest_parking is a pure function of the static distance matrix
        # when nothing is excluded; the scheduler probes it once per entrance
        # candidate per gate component, so memoize those answers
        self._nearest_memo: dict[tuple[int, int], int | None] = {}

    # ------------------------------------------------------------------ #
    # distances and paths
    # ------------------------------------------------------------------ #
    def _compute_distances(self) -> np.ndarray:
        # highway positions have no data neighbours: their rows stay
        # unreachable apart from the zero diagonal
        neighbors = [self._neighbors.get(q, ()) for q in self.topology.qubits()]
        return np.array(graphs.bfs_distance_rows(neighbors), dtype=float)

    def data_distance(self, a: int, b: int) -> float:
        """Hop distance between two positions through data qubits only."""
        self._check_data(a)
        self._check_data(b)
        return float(self._distances[a, b])

    def is_data(self, qubit: int) -> bool:
        """Whether ``qubit`` is a data (non-highway) position."""
        return qubit not in self.highway_qubits

    def _next_hop_table(self, destination: int) -> np.ndarray:
        """Greedy next hop towards ``destination`` for every data position.

        ``table[q]`` is the data neighbour of ``q`` minimising
        ``(distance to destination, neighbour index)`` — exactly the key the
        historic per-hop ``min`` used — or ``-1`` where no neighbour leads
        anywhere.  Hop distances are small integers, so packing the pair into
        ``distance * n + neighbour`` keeps the lexicographic order exact.
        """
        table = self._next_hop.get(destination)
        if table is not None:
            return table
        n = self.topology.num_qubits
        padded = self._padded_neighbors
        if padded is None:
            width = max((len(nbs) for nbs in self._neighbors.values()), default=1)
            padded = np.full((n, max(width, 1)), -1, dtype=np.int64)
            for q, nbs in self._neighbors.items():
                padded[q, : len(nbs)] = nbs
            self._padded_neighbors = padded
        valid = padded >= 0
        dist = np.where(
            valid, self._distances[padded.clip(min=0), destination], np.inf
        )
        key = np.where(np.isfinite(dist), dist * n + padded, np.inf)
        best = key.argmin(axis=1)
        table = padded[np.arange(n), best]
        table[~np.isfinite(key[np.arange(n), best])] = -1
        self._next_hop[destination] = table
        return table

    def path(self, source: int, destination: int) -> list[int]:
        """A shortest data-qubit path from ``source`` to ``destination`` (inclusive).

        Raises :class:`RoutingError` when the two positions are not connected
        through data qubits.
        """
        self._check_data(source)
        self._check_data(destination)
        if source == destination:
            return [source]
        if not np.isfinite(self._distances[source, destination]):
            raise RoutingError(
                f"no data-qubit path between {source} and {destination}"
            )
        table = self._next_hop_table(destination)
        path = [source]
        current = source
        while current != destination:
            current = int(table[current])
            path.append(current)
        return path

    # ------------------------------------------------------------------ #
    # SWAP plans
    # ------------------------------------------------------------------ #
    def swaps_to_position(self, source: int, destination: int) -> list[tuple[int, int]]:
        """SWAPs moving the qubit at ``source`` onto ``destination``."""
        route = self.path(source, destination)
        return [(a, b) for a, b in zip(route, route[1:], strict=False)]

    def _parking_spots(self, anchor: int) -> np.ndarray:
        """Data neighbours of ``anchor`` in ascending order (cached)."""
        spots = self._parking.get(anchor)
        if spots is None:
            spots = np.asarray(
                [
                    nb
                    for nb in self.topology.neighbors(anchor)
                    if nb not in self.highway_qubits
                ],
                dtype=np.int64,
            )
            self._parking[anchor] = spots
        return spots

    def swaps_to_adjacency(self, mover: int, anchor: int) -> list[tuple[int, int]]:
        """SWAPs moving the qubit at ``mover`` until it is coupled to ``anchor``.

        Adjacency is checked against the *full* topology (a cross-chip coupler
        is fine for executing the gate); only the movement stays on data
        qubits.  The SWAP chain stops as soon as adjacency is reached, which in
        particular guarantees the ``anchor`` qubit itself is never displaced.
        """
        if self.topology.is_coupled(mover, anchor):
            return []
        self._check_data(mover)
        spots = self._parking_spots(anchor)
        best_target: int | None = None
        best_cost = np.inf
        if len(spots):
            costs = self._distances[mover, spots]
            costs = np.where(spots == mover, np.inf, costs)
            index = int(costs.argmin())
            if np.isfinite(costs[index]):
                best_target = int(spots[index])
                best_cost = costs[index]
        if best_target is None or not np.isfinite(best_cost):
            raise RoutingError(
                f"cannot bring position {mover} adjacent to {anchor} through data qubits"
            )
        swaps: list[tuple[int, int]] = []
        for a, b in self.swaps_to_position(mover, best_target):
            if self.topology.is_coupled(a, anchor):
                break
            swaps.append((a, b))
        return swaps

    def nearest_parking(
        self, source: int, entrance: int, *, exclude: Iterable[int] = ()
    ) -> int | None:
        """The data-qubit neighbour of ``entrance`` closest to ``source``.

        ``exclude`` removes parking spots already reserved by other components
        of the same highway gate.  Returns ``None`` when the entrance has no
        usable parking spot.
        """
        excluded = set(exclude)
        if not excluded:
            key = (source, entrance)
            cached = self._nearest_memo.get(key, _MISS)
            if cached is not _MISS:
                return cached
            result = self._nearest_parking_uncached(source, entrance, excluded)
            self._nearest_memo[key] = result
            return result
        return self._nearest_parking_uncached(source, entrance, excluded)

    def _nearest_parking_uncached(
        self, source: int, entrance: int, excluded: set
    ) -> int | None:
        spots = self._parking_spots(entrance)
        if not len(spots):
            return None
        costs = self._distances[source, spots]
        if excluded:
            mask = np.asarray([int(s) in excluded for s in spots])
            costs = np.where(mask, np.inf, costs)
        index = int(costs.argmin())
        if not np.isfinite(costs[index]):
            return None
        return int(spots[index])

    def _check_data(self, qubit: int) -> None:
        if qubit in self.highway_qubits:
            raise RoutingError(f"position {qubit} is a highway qubit, not a data qubit")
        if not 0 <= qubit < self.topology.num_qubits:
            raise RoutingError(f"position {qubit} is out of range")
