"""Fig. 13 reproduction: sensitivity to measurement latency and operation fidelities.

The paper fixes a 3x3 array of 7x7 square chiplets and sweeps three parameters
one at a time:

* (a) the measurement latency relative to a CNOT (1 .. 20) — affects the
  *depth* improvement, which decreases roughly linearly but stays positive up
  to a latency of ~20;
* (b) the measurement error rate relative to an on-chip CNOT (0.5 .. 5) —
  affects the *eff_CNOT* improvement, decreasing with noisier measurements;
* (c) the cross-chip CNOT error rate relative to an on-chip CNOT (4 .. 9) —
  affects the eff_CNOT improvement, increasing with noisier cross-chip links.

Both compilers' outputs are compiled once and re-scored under each swept noise
model: the emitted circuits do not depend on the error rates, and the paper's
own sweep varies only the metric weights.  The engine's ``"sensitivity"``
executor implements exactly that protocol, so one engine job covers one
benchmark's three panels and the whole figure caches like any other.
``sensitivity_results_from_records(run_jobs(jobs_for_fig13(...)))`` decodes
the executed records into the three panels' series.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .jobs import Job, noise_to_items
from .records import AnyRecord, resolve_compilers
from .settings import BENCHMARK_NAMES

__all__ = [
    "SensitivityResult",
    "jobs_for_fig13",
    "sensitivity_results_from_records",
    "format_fig13",
    "MEAS_LATENCIES",
    "MEAS_ERROR_RATIOS",
    "CROSS_ERROR_RATIOS",
]

#: The paper's swept values.
MEAS_LATENCIES: tuple[float, ...] = (1, 2, 4, 8, 12, 16, 20)
MEAS_ERROR_RATIOS: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
CROSS_ERROR_RATIOS: tuple[float, ...] = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0)

#: Device per scale tier (the paper uses 7x7 chiplets in a 3x3 array).
_SCALE_DEVICE = {
    "small": ("square", 4, 2, 2),
    "medium": ("square", 5, 2, 3),
    "paper": ("square", 7, 3, 3),
}


@dataclass
class SensitivityResult:
    """Improvement series of one benchmark for the three swept parameters."""

    benchmark: str
    architecture: str
    num_data_qubits: int
    #: (measurement latency, depth improvement)
    depth_vs_latency: list[tuple[float, float]]
    #: (meas error ratio, eff_CNOT improvement)
    eff_vs_meas_error: list[tuple[float, float]]
    #: (cross-chip error ratio, eff_CNOT improvement)
    eff_vs_cross_error: list[tuple[float, float]]


def jobs_for_fig13(
    *,
    scale: str = "small",
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    meas_latencies: Sequence[float] = MEAS_LATENCIES,
    meas_error_ratios: Sequence[float] = MEAS_ERROR_RATIOS,
    cross_error_ratios: Sequence[float] = CROSS_ERROR_RATIOS,
    base_noise: NoiseModel = DEFAULT_NOISE,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """One ``"sensitivity"`` job per benchmark, carrying all three sweeps."""
    if scale not in _SCALE_DEVICE:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALE_DEVICE)}")
    structure, width, rows, cols = _SCALE_DEVICE[scale]
    params = (
        ("meas_latencies", tuple(float(v) for v in meas_latencies)),
        ("meas_error_ratios", tuple(float(v) for v in meas_error_ratios)),
        ("cross_error_ratios", tuple(float(v) for v in cross_error_ratios)),
    )
    noise_items = noise_to_items(base_noise)
    compiler_names = resolve_compilers(compilers)
    return [
        Job(
            benchmark=name,
            kind="sensitivity",
            structure=structure,
            chiplet_width=width,
            rows=rows,
            cols=cols,
            seed=seed,
            noise=noise_items,
            params=params,
            compilers=compiler_names,
        )
        for name in benchmarks
    ]


def sensitivity_results_from_records(
    records: Sequence[AnyRecord],
) -> list[SensitivityResult]:
    """Decode the ``<series>@<value>`` extras of sensitivity records."""

    def series(record: AnyRecord, prefix: str) -> list[tuple[float, float]]:
        marker = prefix + "@"
        points = [
            (float(key[len(marker):]), value)
            for key, value in record.extra.items()
            if key.startswith(marker)
        ]
        points.sort()
        return points

    return [
        SensitivityResult(
            benchmark=record.benchmark,
            architecture=record.architecture,
            num_data_qubits=record.num_data_qubits,
            depth_vs_latency=series(record, "depth_vs_latency"),
            eff_vs_meas_error=series(record, "eff_vs_meas_error"),
            eff_vs_cross_error=series(record, "eff_vs_cross_error"),
        )
        for record in records
    ]


def format_fig13(results: Sequence[SensitivityResult]) -> str:
    """Text rendering of the three sensitivity panels."""
    lines = ["Fig. 13: sensitivity to measurement latency and operation fidelities"]
    lines.append("(a) depth improvement vs measurement latency")
    for r in results:
        series = " ".join(f"{lat:g}:{impr:+.1%}" for lat, impr in r.depth_vs_latency)
        lines.append(f"  {r.benchmark:<6} {series}")
    lines.append("(b) eff_CNOT improvement vs measurement error ratio")
    for r in results:
        series = " ".join(f"{ratio:g}:{impr:+.1%}" for ratio, impr in r.eff_vs_meas_error)
        lines.append(f"  {r.benchmark:<6} {series}")
    lines.append("(c) eff_CNOT improvement vs cross-chip error ratio")
    for r in results:
        series = " ".join(f"{ratio:g}:{impr:+.1%}" for ratio, impr in r.eff_vs_cross_error)
        lines.append(f"  {r.benchmark:<6} {series}")
    return "\n".join(lines)
