"""Coupling-graph model of a (multi-chip) superconducting device.

A :class:`Topology` holds an undirected coupling graph as insertion-ordered
adjacency dicts: nodes are physical qubits, edges are 2-qubit couplers.  Each
node carries its grid coordinate and the chiplet it belongs to; each edge is
labelled on-chip or cross-chip.  The class pre-computes all-pairs
shortest-path hop counts because both the baseline SABRE-style router and
the MECH scheduler consult distances in their inner loops.  The graph
kernels live in :mod:`repro.hardware.graphs`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import Any

from . import graphs

__all__ = ["Topology", "TopologyError"]

Coordinate = tuple[int, int]

#: ``(edge_u, edge_v, edge_ids, neighbours)``: see :meth:`Topology.edge_tables`.
EdgeTables = tuple[list[int], list[int], list[list[int]], list[list[int]]]

_NO_NEIGHBOURS: Mapping[int, bool] = MappingProxyType({})


class TopologyError(ValueError):
    """Raised for invalid topology construction or queries."""


class Topology:
    """A device coupling graph with on-chip / cross-chip edge labels.

    Parameters
    ----------
    graph:
        Undirected graph over integer qubit indices ``0..n-1``, given as any
        object with networkx's ``nodes(data=True)`` and ``adjacency()``
        views (a ``networkx.Graph`` works).  Edges may have a boolean
        ``cross_chip`` attribute (default ``False``); nodes may have ``pos``
        (a ``(row, col)`` coordinate) and ``chiplet`` (a ``(ci, cj)``
        chiplet index) attributes.  Self-loops are rejected.  The graph is
        copied, so later changes to it do not reach the topology.
    name:
        Human-readable description, e.g. ``"square-7x7-3x3"``.

    :meth:`from_edges` builds a topology from plain node and edge lists.
    """

    def __init__(self, graph: Any, name: str = "device") -> None:
        adjacency = {
            u: {v: bool(data.get("cross_chip", False)) for v, data in nbrs.items()}
            for u, nbrs in graph.adjacency()
        }
        self._setup(dict(graph.nodes(data=True)), adjacency, name)

    @classmethod
    def from_edges(
        cls,
        nodes: Mapping[int, Mapping[str, Any]],
        edges: Iterable[tuple[int, int, bool]],
        name: str = "device",
    ) -> "Topology":
        """A topology over ``nodes`` (qubit -> attributes) and ``(a, b, cross_chip)`` edges.

        Adjacency order follows the order of ``nodes`` and ``edges``, as it
        would in a ``networkx.Graph`` built with the same calls; shortest
        paths break ties by that order.
        """
        adjacency: dict[int, dict[int, bool]] = {q: {} for q in nodes}
        for a, b, cross in edges:
            if a == b:
                raise TopologyError(f"self-loop on qubit {a}")
            adjacency.setdefault(a, {})[b] = cross
            adjacency.setdefault(b, {})[a] = cross
        topology = cls.__new__(cls)
        topology._setup(nodes, adjacency, name)
        return topology

    def _setup(
        self,
        nodes: Mapping[int, Mapping[str, Any]],
        adjacency: dict[int, dict[int, bool]],
        name: str,
    ) -> None:
        if not adjacency:
            raise TopologyError("topology must contain at least one qubit")
        if sorted(adjacency) != list(range(len(adjacency))):
            raise TopologyError("qubit indices must be 0..n-1 without gaps")
        for q, nbrs in adjacency.items():
            if q in nbrs:
                raise TopologyError(f"self-loop on qubit {q}")
        self.name = name
        # The graph never changes after construction (derived topologies go
        # through subtopology()/copy(), which build fresh objects), so every
        # query result is computed once here and distances are cached
        # without any invalidation protocol.
        self._adj = adjacency
        self._nodes = {q: dict(nodes.get(q, {})) for q in adjacency}
        self._adjacency_view = MappingProxyType(
            {q: MappingProxyType(nbrs) for q, nbrs in adjacency.items()}
        )
        # edges in networkx's iteration order: each node's neighbours in
        # insertion order, skipping nodes already visited
        visited: set[int] = set()
        ordered: list[tuple[int, int]] = []
        for u, nbrs in adjacency.items():
            ordered.extend((u, v) for v in nbrs if v not in visited)
            visited.add(u)
        self._ordered_edges = ordered
        self._qubits = tuple(range(len(adjacency)))
        self._edges = tuple((min(a, b), max(a, b)) for a, b in ordered)
        self._cross_chip_edges = tuple(
            e for e, (a, b) in zip(self._edges, ordered, strict=False) if adjacency[a][b]
        )
        self._on_chip_edges = tuple(
            e for e, (a, b) in zip(self._edges, ordered, strict=False) if not adjacency[a][b]
        )
        self._neighbors = {q: tuple(sorted(nbrs)) for q, nbrs in adjacency.items()}
        self._dist_rows: list[list[float]] | None = None
        self._coupling_rows: list[list[bool]] | None = None
        self._edge_tables: EdgeTables | None = None

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def qubits(self) -> tuple[int, ...]:
        return self._qubits

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        return self._neighbors[qubit]

    def degree(self, qubit: int) -> int:
        return len(self._adj[qubit])

    def is_coupled(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, _NO_NEIGHBOURS)

    def adjacency(self) -> Mapping[int, Mapping[int, bool]]:
        """Read-only ``{qubit: {neighbour: cross_chip}}`` in insertion order."""
        return self._adjacency_view

    def node_data(self, qubit: int) -> Mapping[str, Any]:
        """Read-only attributes of ``qubit`` (``pos``, ``chiplet``, ``original``)."""
        return MappingProxyType(self._nodes[qubit])

    def coupling_rows(self) -> list[list[bool]]:
        """Dense coupling table: ``rows[a][b]`` iff ``a`` and ``b`` are coupled.

        Routers use it for O(1) coupling checks in their inner loops; like
        every other query result it is cached forever (the graph never
        mutates).
        """
        if self._coupling_rows is None:
            n = self.num_qubits
            rows = [[False] * n for _ in range(n)]
            for a, b in self._edges:
                rows[a][b] = rows[b][a] = True
            self._coupling_rows = rows
        return self._coupling_rows

    def edge_tables(self) -> EdgeTables:
        """Every edge once as flat tables for routers' inner loops, cached.

        Edge ``i`` is ``(edge_u[i], edge_v[i])``, the edges ascending
        lexicographically; ``edge_ids[q]`` lists the ids of ``q``'s edges in
        that order and ``neighbours[q]`` their far endpoints.  Read-only.
        """
        if self._edge_tables is None:
            n = self.num_qubits
            edges = sorted(self._edges)
            edge_ids: list[list[int]] = [[] for _ in range(n)]
            neighbours: list[list[int]] = [[] for _ in range(n)]
            for index, (u, v) in enumerate(edges):
                edge_ids[u].append(index)
                edge_ids[v].append(index)
                neighbours[u].append(v)
                neighbours[v].append(u)
            self._edge_tables = ([u for u, _ in edges], [v for _, v in edges], edge_ids, neighbours)
        return self._edge_tables

    def is_cross_chip(self, a: int, b: int) -> bool:
        """Whether the coupler between ``a`` and ``b`` is a cross-chip link."""
        cross = self._adj.get(a, _NO_NEIGHBOURS).get(b)
        if cross is None:
            raise TopologyError(f"qubits {a} and {b} are not coupled")
        return cross

    def cross_chip_edges(self) -> tuple[tuple[int, int], ...]:
        return self._cross_chip_edges

    def on_chip_edges(self) -> tuple[tuple[int, int], ...]:
        return self._on_chip_edges

    def position(self, qubit: int) -> Coordinate | None:
        """Grid coordinate of ``qubit``, if known."""
        return self._nodes[qubit].get("pos")

    def chiplet_of(self, qubit: int) -> Coordinate | None:
        """Chiplet index ``(ci, cj)`` of ``qubit``, if known."""
        return self._nodes[qubit].get("chiplet")

    def chiplets(self) -> list[Coordinate]:
        """Sorted list of distinct chiplet indices present in the device."""
        found = {
            data.get("chiplet")
            for data in self._nodes.values()
            if data.get("chiplet") is not None
        }
        return sorted(found)

    def qubits_in_chiplet(self, chiplet: Coordinate) -> list[int]:
        return sorted(q for q, data in self._nodes.items() if data.get("chiplet") == chiplet)

    def is_connected(self) -> bool:
        return len(graphs.connected_components(self._adj)) == 1

    # ------------------------------------------------------------------ #
    # distances and paths
    # ------------------------------------------------------------------ #
    def distance_rows(self) -> list[list[float]]:
        """All-pairs hop distances ``rows[a][b]``, cached; disconnected pairs
        are ``inf``."""
        if self._dist_rows is None:
            self._dist_rows = graphs.bfs_distance_rows(
                [list(self._adj[q]) for q in self._qubits]
            )
        return self._dist_rows

    def distance(self, a: int, b: int) -> float:
        return self.distance_rows()[a][b]

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path from ``a`` to ``b`` (inclusive of both endpoints)."""
        for q in (a, b):
            if q not in self._adj:
                raise TopologyError(f"qubit {q} is not in the topology")
        return graphs.shortest_path(self._adj, a, b)

    # ------------------------------------------------------------------ #
    # derived topologies
    # ------------------------------------------------------------------ #
    def subtopology(self, qubits: Iterable[int], name: str | None = None) -> "Topology":
        """Induced subgraph over ``qubits``, relabelled to ``0..k-1``.

        Each node of the returned topology keeps its attributes plus
        ``original``, its index here (see :meth:`node_data`).
        """
        keep = sorted(set(qubits))
        mapping = {q: i for i, q in enumerate(keep)}
        nodes = {mapping[q]: {**self._nodes[q], "original": q} for q in keep}
        edges = [
            (mapping[a], mapping[b], self._adj[a][b])
            for a, b in self._ordered_edges
            if a in mapping and b in mapping
        ]
        return Topology.from_edges(nodes, edges, name or f"{self.name}-sub")

    def copy(self) -> "Topology":
        topology = Topology.__new__(Topology)
        topology._setup(self._nodes, {q: dict(nbrs) for q, nbrs in self._adj.items()}, self.name)
        return topology

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={self.num_edges}, cross_chip={len(self.cross_chip_edges())})"
        )

