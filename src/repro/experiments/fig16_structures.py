"""Fig. 16 reproduction: generality across chiplet coupling structures.

The paper compiles the four benchmarks on square, hexagon, heavy-square and
heavy-hexagon chiplet arrays (the Table 1 rows sq-360 / hex-312 /
heavy-sq-351 / heavy-hex-336) and shows MECH achieves similar normalised
improvements on all of them, demonstrating that the highway mechanism does not
depend on a particular coupling structure.  ``run_experiment("fig16", ...)``
executes the scale preset, or ``run_jobs(jobs_for_fig16(...))`` a custom sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .jobs import Job, noise_to_items
from .records import AnyRecord, resolve_compilers
from .settings import BENCHMARK_NAMES, TABLE1_SETTINGS, ArchitectureSetting, scaled_setting

__all__ = [
    "jobs_for_fig16",
    "normalized_by_structure",
    "format_fig16",
    "FIG16_SETTINGS",
]

#: The four Table 1 rows the figure uses, in the paper's order.
FIG16_SETTINGS: tuple[str, ...] = (
    "program-360",   # square
    "program-312",   # hexagon
    "program-351",   # heavy square
    "program-336",   # heavy hexagon
)


def jobs_for_fig16(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    settings: Sequence[ArchitectureSetting] | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One job per (coupling structure, benchmark) of the Fig. 16 sweep."""
    chosen = (
        list(settings)
        if settings is not None
        else [scaled_setting(TABLE1_SETTINGS[key], scale) for key in FIG16_SETTINGS]
    )
    noise_items = noise_to_items(noise)
    compiler_names = resolve_compilers(compilers)
    return [
        Job(
            benchmark=name,
            structure=setting.structure,
            chiplet_width=setting.chiplet_width,
            rows=setting.rows,
            cols=setting.cols,
            cross_links_per_edge=setting.cross_links_per_edge,
            highway_density=setting.highway_density,
            seed=seed,
            noise=noise_items,
            tags=(("structure", setting.structure),),
            compilers=compiler_names,
        )
        for setting in chosen
        for name in benchmarks
    ]


def normalized_by_structure(
    records: Sequence[AnyRecord],
) -> dict[str, list[tuple[str, float, float]]]:
    """Per-benchmark series ``(structure, normalised depth, normalised eff_CNOTs)``."""
    series: dict[str, list[tuple[str, float, float]]] = {}
    for record in records:
        structure = str(record.extra.get("structure", record.architecture))
        series.setdefault(record.benchmark, []).append(
            (structure, record.normalized_depth, record.normalized_eff_cnots)
        )
    return series


def format_fig16(records: Sequence[AnyRecord]) -> str:
    """Text rendering of the two normalised-metric panels of Fig. 16."""
    series = normalized_by_structure(records)
    lines = ["Fig. 16: normalised performance across coupling structures"]
    lines.append(
        f"{'benchmark':<10} {'structure':<15} {'depth (MECH/base)':>18} {'eff (MECH/base)':>16}"
    )
    lines.append("-" * 62)
    for name in sorted(series):
        for structure, depth_ratio, eff_ratio in series[name]:
            lines.append(
                f"{name:<10} {structure:<15} {depth_ratio:>18.3f} {eff_ratio:>16.3f}"
            )
    return "\n".join(lines)
