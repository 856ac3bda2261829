"""Highway layout generation (paper Sections 5 and Fig. 9).

The highway is a set of ancillary ("highway") qubits arranged along mesh-like
paths that span every chiplet, so that every data qubit is close to an
entrance.  The layout generator implements the paper's three allocation rules:

* **proximity** — highway qubits form consecutive paths so that the GHZ
  preparation only needs nearest-neighbour gates (possibly bridge gates);
* **sparsity** — away from critical positions the highway is *interleaved*:
  every other qubit along a path stays a data ("interval") qubit and the GHZ
  preparation bridges across it, halving the qubit overhead (Fig. 8);
* **heterogeneity awareness** — around path crossroads and at chiplet
  boundaries (where cross-chip links are) the highway stays dense so that
  cross-chip entanglement uses a single direct CNOT rather than a bridge.

Paths are not forced to be perfectly straight: they are computed as shortest
paths in the coupling graph that "hug" a desired global row/column, which makes
the same generator work for square, hexagon, heavy-square and heavy-hexagon
chiplets (whose columns are not always connected straight lines).  The number
of mesh lines per chiplet is the ``density`` parameter (1 = the paper's single
highway, 2/3 = the doubled/tripled highways of Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware import graphs
from ..hardware.array import ChipletArray

__all__ = ["HighwaySegment", "HighwayLayout"]


@dataclass(frozen=True)
class HighwaySegment:
    """A link between two consecutive highway qubits along a highway line.

    ``via`` is the interval (data) qubit bridged across when the two highway
    qubits are not directly coupled; ``cross_chip`` records whether any coupler
    used by the segment is a cross-chip link.
    """

    a: int
    b: int
    via: int | None = None
    cross_chip: bool = False

    @property
    def is_bridged(self) -> bool:
        return self.via is not None

    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)


class HighwayLayout:
    """Placement of highway qubits on a chiplet array.

    Parameters
    ----------
    array:
        The chiplet array to build the highway on.
    density:
        Number of horizontal and vertical highway lines per chiplet
        (1 = single, 2 = double, 3 = triple — Fig. 15).
    interleave:
        Whether to thin non-critical path sections by keeping every other
        qubit as a data qubit (the paper's qubit-overhead optimisation).
    """

    def __init__(
        self,
        array: ChipletArray,
        *,
        density: int = 1,
        interleave: bool = True,
    ) -> None:
        if density < 1:
            raise ValueError("density must be at least 1")
        self.array = array
        self.topology = array.topology
        self.density = density
        self.interleave = interleave

        self._lines: list[list[int]] = []
        self._highway_qubits: set[int] = set()
        self._crossroads: set[int] = set()
        self._segments: list[HighwaySegment] = []
        # highway qubit -> {neighbour: (via, cross_chip)}, in insertion order
        self._highway_adjacency: dict[int, dict[int, tuple[int | None, bool]]] = {}
        # per-qubit entrance rankings and the distance-to-highway vector are
        # pure functions of the finished layout; both are cached lazily
        # because the schedulers query them once per gate component
        self._entrance_rank: dict[int, list[int]] = {}
        self._entrance_within: dict[int, list[int]] = {}
        self._dist_to_highway: list[float] | None = None

        self._build()

    # ------------------------------------------------------------------ #
    # public queries
    # ------------------------------------------------------------------ #
    @property
    def highway_qubits(self) -> frozenset[int]:
        """Physical indices of the ancillary qubits forming the highway."""
        return frozenset(self._highway_qubits)

    @property
    def data_qubits(self) -> list[int]:
        """Physical indices usable as data qubits (everything off the highway)."""
        return [q for q in self.topology.qubits() if q not in self._highway_qubits]

    @property
    def num_data_qubits(self) -> int:
        return self.topology.num_qubits - len(self._highway_qubits)

    @property
    def crossroads(self) -> frozenset[int]:
        """Highway qubits where two or more highway lines intersect."""
        return frozenset(self._crossroads)

    @property
    def lines(self) -> list[list[int]]:
        """The raw mesh lines (sequences of physical qubits, highway and interval)."""
        return [list(line) for line in self._lines]

    @property
    def segments(self) -> list[HighwaySegment]:
        """All links between consecutive highway qubits."""
        return list(self._segments)

    @property
    def highway_adjacency(self) -> dict[int, dict[int, tuple[int | None, bool]]]:
        """The highway graph: ``{qubit: {neighbour: (via, cross_chip)}}``.

        Keys are every highway qubit, in the order they joined the highway;
        callers must not mutate it.
        """
        return self._highway_adjacency

    def qubit_overhead(self) -> float:
        """Fraction of physical qubits reserved for the highway."""
        return len(self._highway_qubits) / self.topology.num_qubits

    def is_highway(self, qubit: int) -> bool:
        return qubit in self._highway_qubits

    def entrances_near(self, qubit: int, *, radius: int = 2, limit: int = 6) -> list[int]:
        """Candidate highway entrances for a data qubit, closest first.

        An entrance is a highway qubit; the data qubit needs to be routed to
        one of the entrance's non-highway neighbours before the protocol can
        consume it.  ``radius`` bounds the search distance, growing as needed
        so at least one candidate is always returned.  The full ranking (and
        the default-radius prefix) is cached per qubit — the scheduler asks
        for entrances once per gate component, with varying ``limit``s.
        """
        distances = self.topology.distance_rows()[qubit]
        ranked = self._entrance_rank.get(qubit)
        if ranked is None:
            highway = sorted(self._highway_qubits)
            ranked = sorted(highway, key=lambda h: (distances[h], h))
            self._entrance_rank[qubit] = ranked
        if radius == 2:
            within = self._entrance_within.get(qubit)
            if within is None:
                within = [h for h in ranked if distances[h] <= radius]
                self._entrance_within[qubit] = within
        else:
            within = [h for h in ranked if distances[h] <= radius]
        if not within:
            within = ranked[:limit]
        return within[:limit]

    def distance_to_highway(self, qubit: int) -> float:
        """Hop distance from ``qubit`` to the nearest highway qubit."""
        if self._dist_to_highway is None:
            highway = sorted(self._highway_qubits)
            self._dist_to_highway = [
                min(row[h] for h in highway) for row in self.topology.distance_rows()
            ]
        return self._dist_to_highway[qubit]

    def segment_between(self, a: int, b: int) -> HighwaySegment | None:
        """The segment joining highway qubits ``a`` and ``b``, if any."""
        data = self._highway_adjacency.get(a, {}).get(b)
        if data is None:
            return None
        via, cross = data
        return HighwaySegment(a, b, via=via, cross_chip=cross)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        lines = self._route_mesh_lines()
        self._lines = lines
        on_lines: dict[int, int] = {}
        for line in lines:
            for q in line:
                on_lines[q] = on_lines.get(q, 0) + 1
        self._crossroads = {q for q, count in on_lines.items() if count >= 2}

        for line in lines:
            self._mark_line(line)
        self._ensure_connected()

    def _desired_offsets(self) -> list[int]:
        """Local row/column offsets of the highway lines inside one chiplet."""
        width = self.array.chiplet_width
        if self.density == 1:
            return [width // 2]
        offsets = [
            int(round((k + 1) * width / (self.density + 1))) for k in range(self.density)
        ]
        unique = sorted({min(max(o, 1), width - 2) for o in offsets})
        return unique

    def _route_mesh_lines(self) -> list[list[int]]:
        """Compute the mesh lines as coupling-graph paths hugging target rows/cols."""
        lines: list[list[int]] = []
        offsets = self._desired_offsets()
        claimed: set[int] = set()

        for ci in range(self.array.rows):
            for offset in offsets:
                target_row = ci * self.array.chiplet_width + offset
                line = self._hug_path(axis="row", index=target_row, claimed=claimed)
                if line:
                    lines.append(line)
                    claimed.update(line)
        for cj in range(self.array.cols):
            for offset in offsets:
                target_col = cj * self.array.chiplet_width + offset
                line = self._hug_path(axis="col", index=target_col, claimed=claimed)
                if line:
                    lines.append(line)
                    claimed.update(line)
        return lines

    def _hug_path(self, *, axis: str, index: int, claimed: set[int]) -> list[int]:
        """Shortest path across the device staying close to a row or column.

        The edge weight penalises deviation from the target row/column and
        slightly rewards reusing qubits already claimed by previous lines so
        that perpendicular lines actually intersect (forming crossroads).
        """
        topo = self.topology
        coordinate = self.array.coordinate_of
        axis_id = 0 if axis == "row" else 1
        span_id = 1 - axis_id

        def deviation(q: int) -> int:
            return abs(coordinate(q)[axis_id] - index)

        candidates = [q for q in topo.qubits() if deviation(q) <= self.array.chiplet_width // 2]
        if not candidates:
            return []
        start = min(candidates, key=lambda q: (coordinate(q)[span_id], deviation(q), q))
        end = max(candidates, key=lambda q: (coordinate(q)[span_id], -deviation(q), -q))
        if start == end:
            return [start]

        def weight(u: int, v: int) -> float:
            penalty = 1.0 + 0.5 * (deviation(u) + deviation(v))
            reward = -0.2 if (u in claimed or v in claimed) else 0.0
            return max(penalty + reward, 0.1)

        try:
            return graphs.shortest_path(topo.adjacency(), start, end, weight)
        except graphs.NoPathError:  # pragma: no cover - arrays are connected by construction
            return []

    def _mark_line(self, line: list[int]) -> None:
        """Decide which qubits along a line are highway qubits and add segments."""
        if not line:
            return
        if len(line) == 1:
            self._add_highway_node(line[0])
            return

        forced = self._forced_positions(line)
        marked: list[int] = []
        last_marked_pos: int | None = None
        for pos, _qubit in enumerate(line):
            take = False
            if pos in forced or not self.interleave:
                take = True
            elif last_marked_pos is None:
                take = True
            elif pos - last_marked_pos >= 2:
                take = True
            if take:
                marked.append(pos)
                last_marked_pos = pos
        if (len(line) - 1) not in marked:
            marked.append(len(line) - 1)
            marked = sorted(set(marked))

        for pos in marked:
            self._add_highway_node(line[pos])
        for prev_pos, next_pos in zip(marked, marked[1:], strict=False):
            self._add_segment(line, prev_pos, next_pos)

    def _forced_positions(self, line: list[int]) -> set[int]:
        """Positions that must stay dense: crossroads (plus their neighbours on
        sufficiently large chiplets) and the endpoints of cross-chip couplers
        along the line.

        On small chiplets (width < 6) forcing the crossroad neighbours as well
        would make entire rows dense, cutting the data-qubit subgraph into
        islands; the crossroad itself is enough to keep the mesh connected
        there.
        """
        forced: set[int] = set()
        dense_neighbours = self.array.chiplet_width >= 6
        for pos, qubit in enumerate(line):
            if qubit in self._crossroads:
                forced.add(pos)
                if dense_neighbours:
                    if pos > 0:
                        forced.add(pos - 1)
                    if pos < len(line) - 1:
                        forced.add(pos + 1)
        for pos in range(len(line) - 1):
            a, b = line[pos], line[pos + 1]
            if self.topology.is_coupled(a, b) and self.topology.is_cross_chip(a, b):
                forced.add(pos)
                forced.add(pos + 1)
        return forced

    def _add_highway_node(self, qubit: int) -> None:
        self._highway_qubits.add(qubit)
        self._highway_adjacency.setdefault(qubit, {})

    def _add_highway_edge(self, a: int, b: int, via: int | None, cross: bool) -> None:
        self._highway_adjacency.setdefault(a, {})[b] = (via, cross)
        self._highway_adjacency.setdefault(b, {})[a] = (via, cross)

    def _add_segment(self, line: list[int], pos_a: int, pos_b: int) -> None:
        a, b = line[pos_a], line[pos_b]
        if a == b:
            return
        intermediate = line[pos_a + 1 : pos_b]
        via = intermediate[0] if intermediate else None
        hops = line[pos_a : pos_b + 1]
        cross = any(
            self.topology.is_coupled(u, v) and self.topology.is_cross_chip(u, v)
            for u, v in zip(hops, hops[1:], strict=False)
        )
        segment = HighwaySegment(a, b, via=via, cross_chip=cross)
        self._segments.append(segment)
        self._add_highway_edge(a, b, via, cross)

    def _ensure_connected(self) -> None:
        """Join disconnected highway components with extra dense path sections.

        With unusual coupling structures the mesh lines may fail to intersect;
        the compiler requires a single connected highway, so we stitch the
        components together along shortest coupling-graph paths, promoting the
        qubits along the way to (dense) highway qubits.
        """
        if not self._highway_qubits:
            raise ValueError("highway layout produced no highway qubits")
        components = [sorted(c) for c in graphs.connected_components(self._highway_adjacency)]
        while len(components) > 1:
            base = components[0]
            other = components[1]
            best: list[int] | None = None
            for source in base[:: max(1, len(base) // 8)]:
                for sink in other[:: max(1, len(other) // 8)]:
                    path = self.topology.shortest_path(source, sink)
                    if best is None or len(path) < len(best):
                        best = path
            assert best is not None
            for u, v in zip(best, best[1:], strict=False):
                self._add_highway_node(u)
                self._add_highway_node(v)
                cross = self.topology.is_cross_chip(u, v)
                self._segments.append(HighwaySegment(u, v, via=None, cross_chip=cross))
                self._add_highway_edge(u, v, None, cross)
            components = [sorted(c) for c in graphs.connected_components(self._highway_adjacency)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HighwayLayout(density={self.density}, highway_qubits={len(self._highway_qubits)}, "
            f"data_qubits={self.num_data_qubits}, overhead={self.qubit_overhead():.1%})"
        )
