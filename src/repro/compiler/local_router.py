"""Local routing of data qubits (paper Section 6.1, "local routing").

Data qubits involved in highway gates must be brought next to their chosen
highway entrance, and data qubits of regular (off-highway) 2-qubit gates must
be brought next to each other.  Both movements are realised by chains of SWAP
gates that stay on *data* qubits: highway qubits hold (or are about to hold)
entangled highway state, so routing never swaps through them.  Interval qubits
of the interleaved highway sections are ordinary data qubits and remain
available for routing, which keeps the data subgraph connected.

The router pre-computes all-pairs distance rows over the data subgraph (one
breadth-first search per position over the data-neighbour lists) so path
extraction is cheap; per-destination next-hop tables are derived lazily from
those rows, turning the former sort-all-neighbours-per-hop descent of
:meth:`path` into a table walk.
It returns SWAP pair lists and leaves the mapping bookkeeping to the
scheduler.
"""

from __future__ import annotations

from collections.abc import Container, Iterable

from ..hardware import graphs
from ..hardware.graphs import INF
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
        # rows; replaces the per-hop neighbour re-sort of the historic path()
        self._next_hop: dict[int, list[int]] = {}
        # per-anchor parking candidates (data neighbours in ascending order),
        # shared by nearest_parking / swaps_to_adjacency
        self._parking: dict[int, list[int]] = {}
        # nearest_parking is a pure function of the static distance rows
        # when nothing is excluded; the scheduler probes it once per entrance
        # candidate per gate component, so memoize those answers
        self._nearest_memo: dict[tuple[int, int], int | None] = {}

    # ------------------------------------------------------------------ #
    # distances and paths
    # ------------------------------------------------------------------ #
    def _compute_distances(self) -> list[list[float]]:
        # highway positions have no data neighbours: their rows stay
        # unreachable apart from the zero diagonal
        neighbors = [self._neighbors.get(q, ()) for q in self.topology.qubits()]
        return graphs.bfs_distance_rows(neighbors)

    def data_distance(self, a: int, b: int) -> float:
        """Hop distance between two positions through data qubits only."""
        self._check_data(a)
        self._check_data(b)
        return self._distances[a][b]

    def is_data(self, qubit: int) -> bool:
        """Whether ``qubit`` is a data (non-highway) position."""
        return qubit not in self.highway_qubits

    def _next_hop_table(self, destination: int) -> list[int]:
        """Greedy next hop towards ``destination`` for every data position.

        ``table[q]`` is the data neighbour of ``q`` minimising
        ``(distance to destination, neighbour index)`` — exactly the key the
        historic per-hop ``min`` used — or ``-1`` where no neighbour leads
        anywhere.
        """
        table = self._next_hop.get(destination)
        if table is not None:
            return table
        # the data subgraph is undirected, so the destination's own row holds
        # every position's distance to it; neighbour lists ascend, so the
        # first nearest neighbour is the smallest index among the nearest
        distance = self._distances[destination].__getitem__
        table = [-1] * self.topology.num_qubits
        for q, nbs in self._neighbors.items():
            if nbs:
                hop = min(nbs, key=distance)
                if distance(hop) != INF:
                    table[q] = hop
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
        if self._distances[source][destination] == INF:
            raise RoutingError(
                f"no data-qubit path between {source} and {destination}"
            )
        table = self._next_hop_table(destination)
        path = [source]
        current = source
        while current != destination:
            current = table[current]
            path.append(current)
        return path

    # ------------------------------------------------------------------ #
    # SWAP plans
    # ------------------------------------------------------------------ #
    def swaps_to_position(self, source: int, destination: int) -> list[tuple[int, int]]:
        """SWAPs moving the qubit at ``source`` onto ``destination``."""
        route = self.path(source, destination)
        return [(a, b) for a, b in zip(route, route[1:], strict=False)]

    def _parking_spots(self, anchor: int) -> list[int]:
        """Data neighbours of ``anchor`` in ascending order (cached)."""
        spots = self._parking.get(anchor)
        if spots is None:
            spots = [
                nb for nb in self.topology.neighbors(anchor) if nb not in self.highway_qubits
            ]
            self._parking[anchor] = spots
        return spots

    def _closest(self, source: int, spots: list[int], excluded: Container[int]) -> int | None:
        """The first of ``spots`` nearest to ``source`` through data qubits.

        ``None`` when every spot outside ``excluded`` is unreachable.
        """
        row = self._distances[source]
        best, best_cost = None, INF
        for spot in spots:
            if row[spot] < best_cost and spot not in excluded:
                best, best_cost = spot, row[spot]
        return best

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
        best_target = self._closest(mover, self._parking_spots(anchor), (mover,))
        if best_target is None:
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
            result = self._closest(source, self._parking_spots(entrance), excluded)
            self._nearest_memo[key] = result
            return result
        return self._closest(source, self._parking_spots(entrance), excluded)

    def _check_data(self, qubit: int) -> None:
        if qubit in self.highway_qubits:
            raise RoutingError(f"position {qubit} is a highway qubit, not a data qubit")
        if not 0 <= qubit < self.topology.num_qubits:
            raise RoutingError(f"position {qubit} is out of range")
