"""Coupling-graph model of a (multi-chip) superconducting device.

A :class:`Topology` wraps a ``networkx`` graph whose nodes are physical qubits
and whose edges are 2-qubit couplers.  Each node carries its grid coordinate
and the chiplet it belongs to; each edge is labelled on-chip or cross-chip.
The class pre-computes all-pairs shortest-path distances (hop counts, and a
weighted variant where cross-chip edges are more expensive) because both the
baseline SABRE-style router and the MECH local router consult distances in
their inner loops.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

__all__ = ["Topology", "TopologyError"]

Coordinate = tuple[int, int]


class TopologyError(ValueError):
    """Raised for invalid topology construction or queries."""


class Topology:
    """A device coupling graph with on-chip / cross-chip edge labels.

    Parameters
    ----------
    graph:
        Undirected graph over integer qubit indices ``0..n-1``.  Edges may have
        a boolean ``cross_chip`` attribute (default ``False``); nodes may have
        ``pos`` (a ``(row, col)`` coordinate) and ``chiplet`` (a ``(ci, cj)``
        chiplet index) attributes.
    name:
        Human-readable description, e.g. ``"square-7x7-3x3"``.
    """

    def __init__(self, graph: nx.Graph, name: str = "device") -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("topology must contain at least one qubit")
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise TopologyError("qubit indices must be 0..n-1 without gaps")
        # The graph is immutable once wrapped (derived topologies go through
        # subtopology()/copy(), which build fresh Topology objects), so query
        # results are cached as tuples with no invalidation protocol at all;
        # freezing makes a violating add_edge/add_node fail loudly instead of
        # silently invalidating the caches.
        self.graph = nx.freeze(graph)
        self.name = name
        self._dist_cache: dict[float, np.ndarray] = {}
        self._dist_rows: dict[float, list[list[float]]] = {}
        self._qubits: tuple[int, ...] | None = None
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._cross_chip_edges: tuple[tuple[int, int], ...] | None = None
        self._on_chip_edges: tuple[tuple[int, int], ...] | None = None
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._adjacency: np.ndarray | None = None
        self._coupling_rows: list[list[bool]] | None = None

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def qubits(self) -> tuple[int, ...]:
        if self._qubits is None:
            self._qubits = tuple(sorted(self.graph.nodes()))
        return self._qubits

    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                (min(a, b), max(a, b)) for a, b in self.graph.edges()
            )
        return self._edges

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        cached = self._neighbors.get(qubit)
        if cached is None:
            cached = tuple(sorted(self.graph.neighbors(qubit)))
            self._neighbors[qubit] = cached
        return cached

    def degree(self, qubit: int) -> int:
        return self.graph.degree(qubit)

    def is_coupled(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean coupling matrix (``adj[a, b]`` iff a and b are coupled).

        Routers use this for O(1) numpy coupling checks in their inner loops;
        like every other query result it is cached forever (the graph never
        mutates).
        """
        if self._adjacency is None:
            n = self.num_qubits
            adjacency = np.zeros((n, n), dtype=bool)
            for a, b in self.graph.edges():
                adjacency[a, b] = True
                adjacency[b, a] = True
            self._adjacency = adjacency
        return self._adjacency

    def coupling_rows(self) -> list[list[bool]]:
        """:meth:`adjacency_matrix` as nested lists (``rows[a][b]``), cached.

        Plain-Python inner loops index lists several times faster than they
        index numpy arrays element by element.
        """
        if self._coupling_rows is None:
            self._coupling_rows = self.adjacency_matrix().tolist()
        return self._coupling_rows

    def is_cross_chip(self, a: int, b: int) -> bool:
        """Whether the coupler between ``a`` and ``b`` is a cross-chip link."""
        if not self.graph.has_edge(a, b):
            raise TopologyError(f"qubits {a} and {b} are not coupled")
        return bool(self.graph.edges[a, b].get("cross_chip", False))

    def cross_chip_edges(self) -> tuple[tuple[int, int], ...]:
        if self._cross_chip_edges is None:
            self._cross_chip_edges = tuple(
                (min(a, b), max(a, b))
                for a, b, data in self.graph.edges(data=True)
                if data.get("cross_chip", False)
            )
        return self._cross_chip_edges

    def on_chip_edges(self) -> tuple[tuple[int, int], ...]:
        if self._on_chip_edges is None:
            self._on_chip_edges = tuple(
                (min(a, b), max(a, b))
                for a, b, data in self.graph.edges(data=True)
                if not data.get("cross_chip", False)
            )
        return self._on_chip_edges

    def position(self, qubit: int) -> Coordinate | None:
        """Grid coordinate of ``qubit``, if known."""
        return self.graph.nodes[qubit].get("pos")

    def chiplet_of(self, qubit: int) -> Coordinate | None:
        """Chiplet index ``(ci, cj)`` of ``qubit``, if known."""
        return self.graph.nodes[qubit].get("chiplet")

    def chiplets(self) -> list[Coordinate]:
        """Sorted list of distinct chiplet indices present in the device."""
        found = {
            data.get("chiplet")
            for _, data in self.graph.nodes(data=True)
            if data.get("chiplet") is not None
        }
        return sorted(found)

    def qubits_in_chiplet(self, chiplet: Coordinate) -> list[int]:
        return sorted(
            q for q, data in self.graph.nodes(data=True) if data.get("chiplet") == chiplet
        )

    def is_connected(self) -> bool:
        return nx.is_connected(self.graph)

    # ------------------------------------------------------------------ #
    # distances and paths
    # ------------------------------------------------------------------ #
    def distance_matrix(self, *, cross_chip_weight: float = 1.0) -> np.ndarray:
        """All-pairs shortest-path distances.

        ``cross_chip_weight`` > 1 penalises cross-chip links, which the
        baseline router uses to mildly prefer on-chip routing when the error
        model makes cross-chip CNOTs more expensive.
        """
        key = float(cross_chip_weight)
        if key not in self._dist_cache:
            self._dist_cache[key] = self._compute_distances(key)
        return self._dist_cache[key]

    def distance_rows(self, *, cross_chip_weight: float = 1.0) -> list[list[float]]:
        """:meth:`distance_matrix` as nested lists (``rows[a][b]``), cached."""
        key = float(cross_chip_weight)
        if key not in self._dist_rows:
            self._dist_rows[key] = self.distance_matrix(cross_chip_weight=key).tolist()
        return self._dist_rows[key]

    def distance(self, a: int, b: int, *, cross_chip_weight: float = 1.0) -> float:
        return float(self.distance_matrix(cross_chip_weight=cross_chip_weight)[a, b])

    def shortest_path(
        self, a: int, b: int, *, cross_chip_weight: float = 1.0
    ) -> list[int]:
        """One shortest path from ``a`` to ``b`` (inclusive of both endpoints)."""
        if cross_chip_weight == 1.0:
            return nx.shortest_path(self.graph, a, b)

        def weight(u: int, v: int, data: dict) -> float:
            return cross_chip_weight if data.get("cross_chip", False) else 1.0

        return nx.shortest_path(self.graph, a, b, weight=weight)

    def _compute_distances(self, cross_chip_weight: float) -> np.ndarray:
        n = self.num_qubits
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for a, b, data in self.graph.edges(data=True):
            w = cross_chip_weight if data.get("cross_chip", False) else 1.0
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((w, w))
        matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))
        return dijkstra(matrix, directed=False)

    # ------------------------------------------------------------------ #
    # derived topologies
    # ------------------------------------------------------------------ #
    def subtopology(self, qubits: Iterable[int], name: str | None = None) -> "Topology":
        """Induced subgraph over ``qubits``, relabelled to ``0..k-1``.

        Returns the new topology; use :meth:`sub_index_map` semantics via the
        returned object's node attribute ``original`` to map back.
        """
        keep = sorted(set(qubits))
        mapping = {q: i for i, q in enumerate(keep)}
        sub = nx.Graph()
        for q in keep:
            attrs = dict(self.graph.nodes[q])
            attrs["original"] = q
            sub.add_node(mapping[q], **attrs)
        for a, b, data in self.graph.subgraph(keep).edges(data=True):
            sub.add_edge(mapping[a], mapping[b], **data)
        return Topology(sub, name or f"{self.name}-sub")

    def copy(self) -> "Topology":
        # nx.Graph.copy() of a frozen graph yields a fresh mutable graph,
        # which the new Topology freezes again
        return Topology(nx.Graph(self.graph), self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={self.num_edges}, cross_chip={len(self.cross_chip_edges())})"
        )


def _validate_edge_list(edges: Sequence[tuple[int, int]]) -> None:
    for a, b in edges:
        if a == b:
            raise TopologyError(f"self-loop on qubit {a}")
