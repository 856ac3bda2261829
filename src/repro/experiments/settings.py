"""Architecture settings of the paper's evaluation (Table 1) plus scaled-down
variants used by the default benchmark harness.

Every experiment in the paper runs over a :class:`ArchitectureSetting`:
a coupling structure, a chiplet footprint, a chiplet-array shape, the
cross-chip link density and the highway density.  The full paper-scale
settings are encoded here verbatim; because compiling the largest instances
takes hours (the paper quotes "hundreds of CPU hours" for the full sweep),
each experiment also has a ``small`` tier that preserves the comparison's
structure at a fraction of the cost.  Every artifact records the tier that
produced it (its ``scale`` metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..hardware.array import ChipletArray

__all__ = [
    "ArchitectureSetting",
    "TABLE1_SETTINGS",
    "TABLE2_CHIPLET_SIZES",
    "FIG12_ARRAYS",
    "BENCHMARK_NAMES",
    "scaled_setting",
]

#: The four benchmark programs of the evaluation.
BENCHMARK_NAMES: tuple[str, ...] = ("QFT", "QAOA", "VQE", "BV")


@dataclass(frozen=True)
class ArchitectureSetting:
    """One row of the paper's Table 1 (or a scaled-down variant of it)."""

    name: str
    structure: str
    chiplet_width: int
    rows: int
    cols: int
    cross_links_per_edge: int | None = None
    highway_density: int = 1

    def build_array(self) -> ChipletArray:
        """Instantiate the chiplet array for this setting."""
        from ..hardware.array import ChipletArray

        return ChipletArray(
            self.structure,
            self.chiplet_width,
            self.rows,
            self.cols,
            cross_links_per_edge=self.cross_links_per_edge,
        )

    @property
    def num_chiplets(self) -> int:
        return self.rows * self.cols

    def with_(self, **changes) -> "ArchitectureSetting":
        """Return a copy with some fields replaced."""
        return replace(self, **changes)


#: Paper Table 1, keyed by the paper's program label: the data qubits its
#: highway layout leaves.  Our layout generator leaves that many on the four
#: 7x7-chiplet rows (360, 160, 240, 480) only.  The other 7 rows miss their
#: label (261 -> 243, 495 -> 477, 630 -> 612, 420 -> 408, 312 -> 306,
#: 351 -> 333, 336 -> 304), because our highway takes more qubits per chiplet
#: than the paper's; ``tests/test_experiments.py`` pins today's counts.
TABLE1_SETTINGS: dict[str, ArchitectureSetting] = {
    "program-261": ArchitectureSetting("program-261", "square", 6, 3, 3),
    "program-360": ArchitectureSetting("program-360", "square", 7, 3, 3),
    "program-495": ArchitectureSetting("program-495", "square", 8, 3, 3),
    "program-630": ArchitectureSetting("program-630", "square", 9, 3, 3),
    "program-160": ArchitectureSetting("program-160", "square", 7, 2, 2),
    "program-240": ArchitectureSetting("program-240", "square", 7, 2, 3),
    "program-480": ArchitectureSetting("program-480", "square", 7, 3, 4),
    "program-420": ArchitectureSetting("program-420", "square", 9, 2, 3),
    "program-312": ArchitectureSetting("program-312", "hexagon", 8, 2, 3),
    "program-351": ArchitectureSetting("program-351", "heavy_square", 8, 3, 3),
    "program-336": ArchitectureSetting("program-336", "heavy_hexagon", 8, 3, 4),
}

#: Table 2 sweeps the chiplet size on a fixed 3x3 square array.
TABLE2_CHIPLET_SIZES: tuple[int, ...] = (6, 7, 8, 9)

#: Fig. 12 sweeps the array shape with 7x7 square chiplets.
FIG12_ARRAYS: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 3), (3, 4))

#: Scaled-down tiers: the same experiment structure on smaller devices so the
#: default test/benchmark run finishes quickly.  ``chiplet_width`` shrinks and
#: the array shape is preserved where it matters for the comparison.
_SMALL_WIDTH = {"small": 4, "medium": 5, "paper": None}


def scaled_setting(setting: ArchitectureSetting, scale: str = "small") -> ArchitectureSetting:
    """Return the setting at the requested scale tier.

    ``"paper"`` keeps the setting unchanged; ``"medium"`` and ``"small"``
    shrink the chiplet footprint (and therefore the number of data qubits)
    while keeping the structure, array shape, link density and highway density
    identical, which preserves what the experiment is comparing.
    """
    if scale not in _SMALL_WIDTH:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SMALL_WIDTH)}")
    width = _SMALL_WIDTH[scale]
    if width is None:
        return setting
    # heavy structures need a couple more sites per chiplet to stay connected
    if setting.structure in ("heavy_square", "heavy_hexagon"):
        width = max(width, 5)
    new_links = setting.cross_links_per_edge
    if new_links is not None:
        new_links = min(new_links, width)
    return setting.with_(
        name=f"{setting.name}-{scale}",
        chiplet_width=width,
        cross_links_per_edge=new_links,
    )
