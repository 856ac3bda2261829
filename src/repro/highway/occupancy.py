"""Highway occupancy management: routes, entrances and temporal sharing.

This module is the reproduction of the paper's ``HighwayOccupancy.py``: it
decides *which* highway qubits a highway gate occupies (its *highway path*,
here generalised to a route tree through crossroads), keeps track of *when*
each highway qubit is released by the previous shuttle, and exposes the
interval-qubit information that the GHZ preparation needs for bridged
segments.

Two of the paper's optimisations live here:

* **spatial sharing** (Section 6.1) — the route of a highway gate is built by
  attaching every target entrance to the partial route with a shortest path in
  the highway graph, so edges already used by the same gate are reused for
  free and the number of occupied highway qubits is minimised;
* **temporal sharing** (Section 6.2) — highway qubits are claimed with a
  release time rather than a global lock; a later highway gate whose route
  overlaps a claimed region simply starts after the previous shuttle's
  teardown, which is exactly the "new shuttle" of the paper, while gates with
  disjoint routes proceed concurrently within the same shuttle window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from .layout import HighwayLayout

__all__ = ["HighwayRoute", "HighwayManager"]


@dataclass
class HighwayRoute:
    """The set of highway qubits a highway gate occupies, as a tree.

    Attributes
    ----------
    root:
        The control entrance (the tree is rooted there for GHZ preparation).
    nodes:
        Every highway qubit in the route.
    adjacency:
        Tree adjacency over ``nodes``.
    entrances:
        Highway entrance chosen for each gate component, keyed by the
        component's target entrance request.
    """

    root: int
    nodes: list[int] = field(default_factory=list)
    adjacency: dict[int, list[int]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def contains(self, qubit: int) -> bool:
        return qubit in self.adjacency


class HighwayManager:
    """Books highway qubits for highway gates and answers entrance queries."""

    def __init__(self, layout: HighwayLayout) -> None:
        self.layout = layout
        self._highway = layout.highway_adjacency
        self.topology = layout.topology
        #: time at which each highway qubit becomes free again
        self.release_time: dict[int, float] = {q: 0.0 for q in layout.highway_qubits}
        #: number of highway claims performed (a proxy for the shuttle count)
        self.num_claims: int = 0
        #: total highway qubits claimed over the whole compilation
        self.total_claimed: int = 0
        # the highway graph is frozen once the layout is built, so its
        # adjacency is snapshotted as lists for the per-gate route searches
        # (in the layout's neighbour insertion order, which fixes tie-breaks)
        self._adjacency: dict[int, list[int]] = {
            node: list(nbrs) for node, nbrs in self._highway.items()
        }

    # ------------------------------------------------------------------ #
    # entrances
    # ------------------------------------------------------------------ #
    def entrance_candidates(self, physical_qubit: int, *, limit: int = 6) -> list[int]:
        """Highway qubits a data qubit could use as its entrance, closest first."""
        return self.layout.entrances_near(physical_qubit, limit=limit)

    def entrance_parking(self, entrance: int) -> list[int]:
        """Non-highway neighbours of an entrance where a data qubit can sit."""
        return [
            q
            for q in self.topology.neighbors(entrance)
            if not self.layout.is_highway(q)
        ]

    def next_free(self, qubit: int) -> float:
        """Time at which a highway qubit is released by the previous shuttle."""
        return self.release_time[qubit]

    # ------------------------------------------------------------------ #
    # route construction (spatial sharing)
    # ------------------------------------------------------------------ #
    def build_route(self, control_entrance: int, target_entrances: Sequence[int]) -> HighwayRoute:
        """Grow a route tree from the control entrance to every target entrance.

        Each target entrance is attached through a shortest path in the highway
        graph starting from the *current* route, so highway qubits already
        occupied by this gate are reused at no extra cost (edge weight 0 within
        the route).  Targets are attached nearest-first, which empirically
        keeps the tree small.
        """
        if control_entrance not in self._adjacency:
            raise ValueError(f"control entrance {control_entrance} is not a highway qubit")
        route = HighwayRoute(root=control_entrance, nodes=[control_entrance])
        route.adjacency = {control_entrance: []}
        pending = [t for t in dict.fromkeys(target_entrances) if t != control_entrance]
        missing = [t for t in pending if t not in self._adjacency]
        if missing:
            raise ValueError(f"target entrances {missing} are not highway qubits")

        while pending:
            lengths, pred = self._bfs_from(set(route.adjacency), targets=pending)
            reachable = [t for t in pending if t in lengths]
            if not reachable:  # pragma: no cover - highway graph is connected
                raise ValueError("highway graph is disconnected; cannot route gate")
            best = min(reachable, key=lambda t: lengths[t])
            path = [best]
            while pred[path[-1]] is not None:
                path.append(pred[path[-1]])
            path.reverse()
            for a, b in zip(path, path[1:], strict=False):
                self._attach(route, a, b)
            pending.remove(best)
        return route

    def _bfs_from(
        self, sources: set[int], *, targets: Sequence[int] | None = None
    ) -> tuple[dict[int, int], dict[int, int | None]]:
        """Multi-source BFS over the highway graph: distances and predecessors.

        All highway edges weigh 1, so this equals a multi-source Dijkstra
        *including* its equal-length tie-breaking: a Dijkstra heap pops equal
        distances in push (= discovery) order, which is exactly BFS FIFO
        order, and both keep the first discovered predecessor.  Seeding
        iterates the ``set`` of route nodes and expansion walks the
        snapshotted adjacency lists, so discovery order fixes every chosen
        path.  When ``targets`` is given the search stops once every
        target is discovered; distances and paths found up to that point are
        the same prefix the full search would record.
        """
        lengths: dict[int, int] = {s: 0 for s in sources}
        pred: dict[int, int | None] = {s: None for s in sources}
        remaining = (
            sum(1 for t in targets if t not in lengths) if targets is not None else -1
        )
        queue = deque(sources)
        adjacency = self._adjacency
        target_set = set(targets) if targets is not None else ()
        while queue and remaining != 0:
            u = queue.popleft()
            d = lengths[u] + 1
            for v in adjacency[u]:
                if v not in lengths:
                    lengths[v] = d
                    pred[v] = u
                    queue.append(v)
                    if v in target_set:
                        remaining -= 1
        return lengths, pred

    def _attach(self, route: HighwayRoute, parent: int, child: int) -> None:
        if child in route.adjacency:
            return
        route.adjacency.setdefault(parent, [])
        route.adjacency[child] = []
        route.adjacency[parent].append(child)
        route.adjacency[child].append(parent)
        route.nodes.append(child)

    # ------------------------------------------------------------------ #
    # temporal sharing
    # ------------------------------------------------------------------ #
    def earliest_start(self, nodes: Iterable[int], ready_time: float = 0.0) -> float:
        """Earliest time a route over ``nodes`` may start its GHZ preparation."""
        latest_release = max((self.release_time[n] for n in nodes), default=0.0)
        return max(ready_time, latest_release)

    def claim(self, nodes: Iterable[int], release_at: float) -> None:
        """Mark ``nodes`` as occupied until ``release_at`` (the shuttle teardown)."""
        nodes = list(nodes)
        for node in nodes:
            if node not in self.release_time:
                raise ValueError(f"qubit {node} is not a highway qubit")
            self.release_time[node] = max(self.release_time[node], release_at)
        self.num_claims += 1
        self.total_claimed += len(nodes)

    # ------------------------------------------------------------------ #
    # segment details
    # ------------------------------------------------------------------ #
    def via(self, a: int, b: int) -> int | None:
        """Interval qubit bridged by the segment between highway qubits a and b."""
        data = self._highway.get(a, {}).get(b)
        return None if data is None else data[0]

    def via_lookup(self):
        """A ``(a, b) -> via`` callable suitable for the GHZ preparation planner."""
        return self.via

    def average_occupancy(self) -> float:
        """Mean number of highway qubits claimed per highway gate (diagnostic)."""
        if self.num_claims == 0:
            return 0.0
        return self.total_claimed / self.num_claims
