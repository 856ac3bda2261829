"""Fig. 14 reproduction: sensitivity to cross-chip link sparsity.

The paper keeps 7, 3 or 1 of the 7 possible cross-chip links on every chiplet
edge of a 3x3 array of 7x7 square chiplets and reports MECH's depth and
eff_CNOT count *normalised by the baseline's*.  As the links get sparser the
baseline degrades (its SWAP chains funnel through fewer cross-chip couplers)
while MECH stays roughly flat, so the normalised depth drops and the
normalised eff_CNOT count rises.  ``run_experiment("fig14", ...)`` executes
the scale preset, or ``run_jobs(jobs_for_fig14(...))`` a custom sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .jobs import Job, noise_to_items
from .records import AnyRecord, resolve_compilers
from .settings import BENCHMARK_NAMES

__all__ = ["jobs_for_fig14", "normalized_by_sparsity", "format_fig14"]

#: Device per scale tier; the sparsity levels scale with the chiplet width.
_SCALE_DEVICE: dict[str, tuple[str, int, int, int, tuple[int, ...]]] = {
    # structure, chiplet width, rows, cols, links-per-edge sweep
    "small": ("square", 4, 2, 2, (4, 2, 1)),
    "medium": ("square", 5, 2, 3, (5, 3, 1)),
    "paper": ("square", 7, 3, 3, (7, 3, 1)),
}


def jobs_for_fig14(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    sparsity_levels: Sequence[int] | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One job per (links-per-edge, benchmark) of the Fig. 14 sweep."""
    from ..hardware.array import ChipletArray

    if scale not in _SCALE_DEVICE:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALE_DEVICE)}")
    structure, width, rows, cols, default_levels = _SCALE_DEVICE[scale]
    levels = tuple(sparsity_levels) if sparsity_levels is not None else default_levels
    noise_items = noise_to_items(noise)
    compiler_names = resolve_compilers(compilers)
    jobs: list[Job] = []
    for links in levels:
        # the full per-edge link count is a property of the (cheap) topology,
        # recorded as a tag so the normalisation labels survive the cache
        array = ChipletArray(structure, width, rows, cols, cross_links_per_edge=links)
        tags = (
            ("cross_links_per_edge", float(links)),
            ("max_cross_links_per_edge", float(array.max_cross_links_per_edge())),
        )
        for name in benchmarks:
            jobs.append(
                Job(
                    benchmark=name,
                    structure=structure,
                    chiplet_width=width,
                    rows=rows,
                    cols=cols,
                    cross_links_per_edge=links,
                    seed=seed,
                    noise=noise_items,
                    tags=tags,
                    compilers=compiler_names,
                )
            )
    return jobs


def normalized_by_sparsity(
    records: Sequence[AnyRecord],
) -> dict[str, list[tuple[str, float, float]]]:
    """Per-benchmark series ``(sparsity label, normalised depth, normalised eff_CNOTs)``."""
    series: dict[str, list[tuple[str, float, float]]] = {}
    for record in records:
        links = int(record.extra.get("cross_links_per_edge", 0))
        full = int(record.extra.get("max_cross_links_per_edge", links))
        label = f"{links}/{full}"
        series.setdefault(record.benchmark, []).append(
            (label, record.normalized_depth, record.normalized_eff_cnots)
        )
    return series


def format_fig14(records: Sequence[AnyRecord]) -> str:
    """Text rendering of the two normalised-metric panels of Fig. 14."""
    series = normalized_by_sparsity(records)
    lines = ["Fig. 14: normalised performance vs cross-chip link sparsity"]
    lines.append(f"{'benchmark':<10} {'links':>7} {'depth (MECH/base)':>18} {'eff (MECH/base)':>16}")
    lines.append("-" * 56)
    for name in sorted(series):
        for label, depth_ratio, eff_ratio in series[name]:
            lines.append(f"{name:<10} {label:>7} {depth_ratio:>18.3f} {eff_ratio:>16.3f}")
    return "\n".join(lines)
