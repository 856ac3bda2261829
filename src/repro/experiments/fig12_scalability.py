"""Fig. 12 reproduction: improvement vs. number of chiplets.

The paper fixes the chiplet size at 7x7 and grows the chiplet array through
2x2, 2x3, 3x3 and 3x4 (4, 6, 9 and 12 chiplets), showing that both the depth
improvement and the effective-CNOT improvement of MECH over the baseline grow
with the number of chiplets.  ``jobs_for_fig12`` expands the sweep into
engine jobs; ``run_experiment("fig12", ...)`` executes the scale preset, or
``run_jobs(jobs_for_fig12(...))`` a custom sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .engine import Job, noise_to_items
from .runner import AnyRecord, resolve_compilers
from .settings import BENCHMARK_NAMES, FIG12_ARRAYS

__all__ = ["jobs_for_fig12", "improvement_series", "format_fig12"]

#: Chiplet width per scale tier (the paper fixes 7x7 chiplets).
_SCALE_WIDTH = {"small": 4, "medium": 5, "paper": 7}
#: Array shapes per scale tier (the paper's 2x2 .. 3x4 sweep).
_SCALE_ARRAYS: dict[str, tuple[tuple[int, int], ...]] = {
    "small": ((1, 2), (2, 2), (2, 3)),
    "medium": ((2, 2), (2, 3), (3, 3)),
    "paper": FIG12_ARRAYS,
}


def jobs_for_fig12(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    chiplet_width: int | None = None,
    array_shapes: Sequence[tuple[int, int]] | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One job per (array shape, benchmark) of the Fig. 12 sweep."""
    if scale not in _SCALE_WIDTH:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALE_WIDTH)}")
    width = chiplet_width if chiplet_width is not None else _SCALE_WIDTH[scale]
    shapes = tuple(array_shapes) if array_shapes is not None else _SCALE_ARRAYS[scale]
    noise_items = noise_to_items(noise)
    compiler_names = resolve_compilers(compilers)
    return [
        Job(
            benchmark=name,
            structure="square",
            chiplet_width=width,
            rows=rows,
            cols=cols,
            seed=seed,
            noise=noise_items,
            compilers=compiler_names,
        )
        for rows, cols in shapes
        for name in benchmarks
    ]


def improvement_series(
    records: Sequence[AnyRecord],
) -> dict[str, list[tuple[int, float, float]]]:
    """Per-benchmark series ``(num_chiplets, depth_improvement, eff_improvement)``.

    This is the data behind the two panels of Fig. 12.
    """
    series: dict[str, list[tuple[int, float, float]]] = {}
    for record in records:
        # architecture names look like "square-7x7-3x3"; the last field is the array
        shape = record.architecture.split("-")[2]
        rows, cols = (int(x) for x in shape.split("x"))
        series.setdefault(record.benchmark, []).append(
            (rows * cols, record.depth_improvement, record.eff_cnots_improvement)
        )
    for values in series.values():
        values.sort()
    return series


def format_fig12(records: Sequence[AnyRecord]) -> str:
    """Text rendering of the two improvement-vs-chiplet-count panels."""
    series = improvement_series(records)
    lines = ["Fig. 12: improvement vs number of chiplets (square chiplets)"]
    lines.append(f"{'benchmark':<10} {'#chiplets':>9} {'depth impr':>11} {'eff impr':>9}")
    lines.append("-" * 44)
    for name in sorted(series):
        for chiplets, depth_impr, eff_impr in series[name]:
            lines.append(f"{name:<10} {chiplets:>9d} {depth_impr:>10.1%} {eff_impr:>8.1%}")
    return "\n".join(lines)
