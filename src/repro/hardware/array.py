"""Chiplet arrays: assembling chiplets into a multi-chip module (MCM).

A :class:`ChipletArray` places ``rows x cols`` copies of a single-chiplet
structure (see :mod:`repro.hardware.chiplet`) on a global grid and adds
cross-chip links between facing boundary qubits of neighbouring chiplets.
The number of cross-chip links per chiplet edge is configurable, which is how
the paper's sparsity study (Fig. 14: 7/7, 3/7 and 1/7 of the possible links)
is reproduced.

The result is exposed both as a :class:`~repro.hardware.topology.Topology`
(what the compilers consume) and through coordinate lookups that the highway
layout generator uses to place highway qubits along chiplet mid-lines and
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chiplet import ChipletStructure, build_chiplet
from .topology import Topology

__all__ = ["ChipletArray"]

Coordinate = tuple[int, int]


@dataclass
class ChipletArray:
    """A ``rows x cols`` array of identical chiplets joined by cross-chip links.

    Parameters
    ----------
    structure:
        Coupling structure name: ``"square"``, ``"hexagon"``, ``"heavy_square"``
        or ``"heavy_hexagon"``.
    chiplet_width:
        Footprint width ``w`` of each chiplet (Table 1's "chiplet size w x w").
    rows, cols:
        Shape of the chiplet array.
    cross_links_per_edge:
        How many cross-chip links to place on each facing chiplet boundary.
        ``None`` keeps every possible link (the paper's dense 7/7 setting);
        smaller values pick evenly spaced links (3/7, 1/7 ...).
    """

    structure: str
    chiplet_width: int
    rows: int
    cols: int
    cross_links_per_edge: int | None = None

    chiplet: ChipletStructure = field(init=False, repr=False)
    _coord_to_qubit: dict[Coordinate, int] = field(init=False, repr=False)
    _qubit_to_coord: dict[int, Coordinate] = field(init=False, repr=False)
    _topology: Topology = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("chiplet array must have at least one chiplet")
        if self.cross_links_per_edge is not None and self.cross_links_per_edge < 1:
            raise ValueError("cross_links_per_edge must be at least 1 (or None for all)")
        self.chiplet = build_chiplet(self.structure, self.chiplet_width)
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        width = self.chiplet_width
        nodes: dict[int, dict] = {}
        edges: list[tuple[int, int, bool]] = []
        coord_to_qubit: dict[Coordinate, int] = {}

        # place qubits chiplet by chiplet, row-major over global coordinates
        global_coords: list[tuple[Coordinate, Coordinate]] = []
        for ci in range(self.rows):
            for cj in range(self.cols):
                for (r, c) in sorted(self.chiplet.nodes):
                    global_coords.append(((ci * width + r, cj * width + c), (ci, cj)))
        global_coords.sort(key=lambda item: item[0])
        for qubit, (coord, chiplet_idx) in enumerate(global_coords):
            coord_to_qubit[coord] = qubit
            nodes[qubit] = {"pos": coord, "chiplet": chiplet_idx}

        # on-chip couplers
        for ci in range(self.rows):
            for cj in range(self.cols):
                for (a, b) in self.chiplet.edges:
                    ga = (ci * width + a[0], cj * width + a[1])
                    gb = (ci * width + b[0], cj * width + b[1])
                    edges.append((coord_to_qubit[ga], coord_to_qubit[gb], False))

        # cross-chip couplers
        for (ga, gb) in self._cross_chip_pairs():
            edges.append((coord_to_qubit[ga], coord_to_qubit[gb], True))

        self._coord_to_qubit = coord_to_qubit
        self._qubit_to_coord = {q: coord for coord, q in coord_to_qubit.items()}
        name = (
            f"{self.structure}-{width}x{width}-{self.rows}x{self.cols}"
            + ("" if self.cross_links_per_edge is None else f"-x{self.cross_links_per_edge}")
        )
        self._topology = Topology.from_edges(nodes, edges, name=name)

    def _cross_chip_pairs(self) -> list[tuple[Coordinate, Coordinate]]:
        """Global coordinate pairs joined by cross-chip links."""
        width = self.chiplet_width
        pairs: list[tuple[Coordinate, Coordinate]] = []

        # vertical neighbours: bottom boundary of (ci, cj) to top boundary of (ci+1, cj)
        bottom = {c for (r, c) in self.chiplet.boundary_nodes("bottom")}
        top = {c for (r, c) in self.chiplet.boundary_nodes("top")}
        vertical_cols = sorted(bottom & top)
        vertical_cols = _select_evenly(vertical_cols, self.cross_links_per_edge)
        for ci in range(self.rows - 1):
            for cj in range(self.cols):
                for c in vertical_cols:
                    upper = (ci * width + width - 1, cj * width + c)
                    lower = ((ci + 1) * width, cj * width + c)
                    pairs.append((upper, lower))

        # horizontal neighbours: right boundary of (ci, cj) to left boundary of (ci, cj+1)
        right = {r for (r, c) in self.chiplet.boundary_nodes("right")}
        left = {r for (r, c) in self.chiplet.boundary_nodes("left")}
        horizontal_rows = sorted(right & left)
        horizontal_rows = _select_evenly(horizontal_rows, self.cross_links_per_edge)
        for ci in range(self.rows):
            for cj in range(self.cols - 1):
                for r in horizontal_rows:
                    left_q = (ci * width + r, cj * width + width - 1)
                    right_q = (ci * width + r, (cj + 1) * width)
                    pairs.append((left_q, right_q))
        return pairs

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def topology(self) -> Topology:
        """The assembled device coupling graph."""
        return self._topology

    @property
    def num_qubits(self) -> int:
        return self._topology.num_qubits

    @property
    def num_chiplets(self) -> int:
        return self.rows * self.cols

    def qubit_at(self, coord: Coordinate) -> int | None:
        """Qubit index at a global ``(row, col)`` coordinate, or None if absent."""
        return self._coord_to_qubit.get(tuple(coord))

    def coordinate_of(self, qubit: int) -> Coordinate:
        """Global ``(row, col)`` coordinate of ``qubit``."""
        return self._qubit_to_coord[qubit]

    def chiplet_of(self, qubit: int) -> Coordinate:
        """Chiplet index ``(ci, cj)`` containing ``qubit``."""
        return self._topology.chiplet_of(qubit)  # type: ignore[return-value]

    def qubits_in_chiplet(self, chiplet: Coordinate) -> list[int]:
        return self._topology.qubits_in_chiplet(chiplet)

    @property
    def global_rows(self) -> int:
        """Number of rows of the global coordinate grid."""
        return self.rows * self.chiplet_width

    @property
    def global_cols(self) -> int:
        """Number of columns of the global coordinate grid."""
        return self.cols * self.chiplet_width

    def max_cross_links_per_edge(self) -> int:
        """The number of cross-chip links per chiplet edge in the dense setting."""
        bottom = {c for (r, c) in self.chiplet.boundary_nodes("bottom")}
        top = {c for (r, c) in self.chiplet.boundary_nodes("top")}
        return len(bottom & top)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChipletArray(structure={self.structure!r}, chiplet={self.chiplet_width}x"
            f"{self.chiplet_width}, array={self.rows}x{self.cols}, "
            f"qubits={self.num_qubits})"
        )


def _select_evenly(candidates: list[int], count: int | None) -> list[int]:
    """Pick ``count`` centred, evenly spaced entries from ``candidates``.

    Centred spacing matters: with a single link per edge it lands on the
    *middle* boundary qubit, which is where the highway mesh crosses the
    chiplet boundary, so the highway stays routable even at sparsity 1/7.
    """
    if count is None or count >= len(candidates):
        return list(candidates)
    if not candidates:
        return []
    n = len(candidates)
    chosen = sorted({int(round((i + 0.5) * n / count - 0.5)) for i in range(count)})
    chosen = [min(max(i, 0), n - 1) for i in chosen]
    return [candidates[i] for i in sorted(set(chosen))]
