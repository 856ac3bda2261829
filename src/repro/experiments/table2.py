"""Table 2 reproduction: baseline vs MECH on square-chiplet arrays.

The paper's main result table compiles QFT / QAOA / VQE / BV on 3x3 arrays of
square chiplets whose size grows from 6x6 to 9x9 and reports circuit depth,
effective CNOT count, the relative improvements and the highway-qubit
percentage.  ``jobs_for_table2`` expands those rows into engine jobs; the
``scale`` presets select the paper-scale chiplet sizes (6-9 on a 3x3 array,
hours of baseline runtime) or a scaled-down sweep that preserves the
"improvement grows with chiplet size" trend at a fraction of the cost.
``run_experiment("table2", ...)`` executes the sweep, or
``run_jobs(jobs_for_table2(...))`` for custom overrides.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .jobs import Job, noise_to_items
from .records import AnyRecord, format_records, resolve_compilers
from .settings import BENCHMARK_NAMES, TABLE2_CHIPLET_SIZES

__all__ = ["jobs_for_table2", "format_table2", "TABLE2_PAPER_REFERENCE"]

#: (chiplet sizes, array shape) per scale tier; the paper sweeps 6x6 .. 9x9
#: chiplets on a 3x3 array.  The smaller tiers shrink both so the baseline
#: router stays tractable while the size-scaling trend remains visible.
SCALE_PRESETS: dict[str, tuple[tuple[int, ...], tuple[int, int]]] = {
    "small": ((4, 5), (2, 2)),
    "medium": ((5, 6), (3, 3)),
    "paper": (TABLE2_CHIPLET_SIZES, (3, 3)),
}

#: Paper-reported numbers (depth / eff_CNOTs for baseline and MECH), for
#: comparing the reproduction's Table 2 against the paper's; ROADMAP.md
#: (item 8) holds the latest side-by-side run.
TABLE2_PAPER_REFERENCE: dict[str, dict[str, float]] = {
    "QFT-261": {"base_depth": 19282, "mech_depth": 7504, "base_eff": 325236, "mech_eff": 216771},
    "QAOA-261": {"base_depth": 14837, "mech_depth": 6586, "base_eff": 201637, "mech_eff": 151120},
    "VQE-261": {"base_depth": 15725, "mech_depth": 6784, "base_eff": 261286, "mech_eff": 180044},
    "BV-261": {"base_depth": 418, "mech_depth": 31, "base_eff": 1179, "mech_eff": 960},
    "QFT-360": {"base_depth": 32086, "mech_depth": 11189, "base_eff": 582500, "mech_eff": 451553},
    "QAOA-360": {"base_depth": 22757, "mech_depth": 9735, "base_eff": 389773, "mech_eff": 300847},
    "VQE-360": {"base_depth": 26277, "mech_depth": 10181, "base_eff": 471148, "mech_eff": 385647},
    "BV-360": {"base_depth": 597, "mech_depth": 34, "base_eff": 1711, "mech_eff": 1415},
    "QFT-495": {"base_depth": 57143, "mech_depth": 18028, "base_eff": 1048824, "mech_eff": 827653},
    "QAOA-495": {"base_depth": 43478, "mech_depth": 14175, "base_eff": 716324, "mech_eff": 507897},
    "VQE-495": {"base_depth": 47193, "mech_depth": 16512, "base_eff": 854935, "mech_eff": 690826},
    "BV-495": {"base_depth": 823, "mech_depth": 37, "base_eff": 2297, "mech_eff": 1784},
    "QFT-630": {"base_depth": 90535, "mech_depth": 24138, "base_eff": 1673337, "mech_eff": 1511568},
    "QAOA-630": {"base_depth": 66342, "mech_depth": 19115, "base_eff": 1171597, "mech_eff": 914800},
    "VQE-630": {"base_depth": 75178, "mech_depth": 21687, "base_eff": 1370750, "mech_eff": 1296846},
    "BV-630": {"base_depth": 1063, "mech_depth": 40, "base_eff": 2772, "mech_eff": 2612},
}


def jobs_for_table2(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    chiplet_sizes: Sequence[int] | None = None,
    array_shape: tuple[int, int] | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    qaoa_kwargs: dict[str, object] | None = None,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One job per (chiplet size, benchmark) of the Table 2 sweep.

    ``chiplet_sizes`` and ``array_shape`` override the ``scale`` preset;
    ``compilers`` selects the registered backends to compare (reference
    first; default baseline vs MECH).
    """
    try:
        preset_sizes, preset_shape = SCALE_PRESETS[scale]
    except KeyError as exc:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALE_PRESETS)}"
        ) from exc
    sizes = tuple(chiplet_sizes) if chiplet_sizes is not None else preset_sizes
    rows, cols = array_shape if array_shape is not None else preset_shape
    noise_items = noise_to_items(noise)
    compiler_names = resolve_compilers(compilers)
    jobs: list[Job] = []
    for width in sizes:
        for name in benchmarks:
            kwargs = dict(qaoa_kwargs or {}) if name.upper() == "QAOA" else {}
            jobs.append(
                Job(
                    benchmark=name,
                    structure="square",
                    chiplet_width=width,
                    rows=rows,
                    cols=cols,
                    seed=seed,
                    noise=noise_items,
                    benchmark_kwargs=tuple(sorted(kwargs.items())),
                    compilers=compiler_names,
                )
            )
    return jobs


def format_table2(records: Sequence[AnyRecord]) -> str:
    """Text rendering in the style of the paper's Table 2."""
    return format_records(records, title="Table 2: baseline vs MECH (square chiplets)")
