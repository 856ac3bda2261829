"""Chiplet hardware substrate: coupling structures, arrays, topology, noise.

Each name loads its submodule on first access (PEP 562): the noise model
alone does not build the coupling-graph kernels.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "ChipletArray": ".array",
    "ChipletStructure": ".chiplet",
    "COUPLING_STRUCTURES": ".chiplet",
    "build_chiplet": ".chiplet",
    "square_chiplet": ".chiplet",
    "hexagon_chiplet": ".chiplet",
    "heavy_square_chiplet": ".chiplet",
    "heavy_hexagon_chiplet": ".chiplet",
    "Topology": ".topology",
    "TopologyError": ".topology",
    "NoiseModel": ".noise",
    "DEFAULT_NOISE": ".noise",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .array import ChipletArray
    from .chiplet import (
        COUPLING_STRUCTURES,
        ChipletStructure,
        build_chiplet,
        heavy_hexagon_chiplet,
        heavy_square_chiplet,
        hexagon_chiplet,
        square_chiplet,
    )
    from .noise import DEFAULT_NOISE, NoiseModel
    from .topology import Topology, TopologyError
