"""Fig. 15 reproduction: sensitivity to the highway qubit percentage.

The paper triples the highway mesh on a 2x3 array of 9x9 square chiplets
(single ~14%, double ~25%, triple ~41% of all qubits) while keeping the
baseline's circuit size equal to the single-highway data-qubit count, and
reports MECH's depth and eff_CNOT count normalised by the baseline's.  More
highway qubits shorten local routing (normalised depth drops and then
saturates) but increase entanglement-generation overhead (normalised eff_CNOTs
eventually ticks back up).  ``run_experiment("fig15", ...)`` executes the
scale preset, or ``run_jobs(jobs_for_fig15(...))`` a custom sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..compiler import MechCompiler
from ..hardware.array import ChipletArray
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .engine import Job, noise_to_items
from .runner import AnyRecord, resolve_compilers
from .settings import BENCHMARK_NAMES

__all__ = ["jobs_for_fig15", "normalized_by_density", "format_fig15"]

#: Device per scale tier (the paper uses a 2x3 array of 9x9 chiplets).
_SCALE_DEVICE: dict[str, tuple[str, int, int, int]] = {
    "small": ("square", 5, 1, 2),
    "medium": ("square", 7, 2, 2),
    "paper": ("square", 9, 2, 3),
}

#: Highway density multipliers swept by the figure.
DENSITIES: tuple[int, ...] = (1, 2, 3)


def jobs_for_fig15(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    densities: Sequence[int] = DENSITIES,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One job per (highway density, benchmark) of the Fig. 15 sweep.

    Following the paper, the circuit width is fixed to the *smallest*
    highway's data-qubit count for every density, so denser highways are not
    penalised by a smaller program.
    """
    if scale not in _SCALE_DEVICE:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALE_DEVICE)}")
    structure, width, rows, cols = _SCALE_DEVICE[scale]
    array = ChipletArray(structure, width, rows, cols)
    capacities = [
        MechCompiler(array, highway_density=d).num_data_qubits for d in densities
    ]
    circuit_width = min(capacities)
    noise_items = noise_to_items(noise)
    compiler_names = resolve_compilers(compilers)
    return [
        Job(
            benchmark=name,
            structure=structure,
            chiplet_width=width,
            rows=rows,
            cols=cols,
            highway_density=density,
            num_data_qubits=circuit_width,
            seed=seed,
            noise=noise_items,
            tags=(("highway_density", float(density)),),
            compilers=compiler_names,
        )
        for density in densities
        for name in benchmarks
    ]


def normalized_by_density(
    records: Sequence[AnyRecord],
) -> dict[str, list[tuple[int, float, float, float]]]:
    """Per-benchmark series ``(density, highway %, normalised depth, normalised eff)``."""
    series: dict[str, list[tuple[int, float, float, float]]] = {}
    for record in records:
        density = int(record.extra.get("highway_density", 1))
        series.setdefault(record.benchmark, []).append(
            (
                density,
                record.highway_qubit_fraction,
                record.normalized_depth,
                record.normalized_eff_cnots,
            )
        )
    for values in series.values():
        values.sort()
    return series


def format_fig15(records: Sequence[AnyRecord]) -> str:
    """Text rendering of the two normalised-metric panels of Fig. 15."""
    series = normalized_by_density(records)
    lines = ["Fig. 15: normalised performance vs highway qubit percentage"]
    lines.append(
        f"{'benchmark':<10} {'density':>8} {'highway %':>10} "
        f"{'depth (MECH/base)':>18} {'eff (MECH/base)':>16}"
    )
    lines.append("-" * 68)
    for name in sorted(series):
        for density, fraction, depth_ratio, eff_ratio in series[name]:
            lines.append(
                f"{name:<10} {density:>8d} {fraction:>10.1%} "
                f"{depth_ratio:>18.3f} {eff_ratio:>16.3f}"
            )
    return "\n".join(lines)
