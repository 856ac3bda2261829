"""Compile one bench workload with a set of registered backends.

Separated from :mod:`repro.perf.bench` so the document/compare machinery stays
importable without touching compiler modules (the CLI loads it for
``--against`` comparisons of existing files too).
"""

from __future__ import annotations

import gc
import time
from collections.abc import Sequence

from ..backends import get_backend
from ..hardware.array import ChipletArray
from ..highway.layout import HighwayLayout
from ..programs import build_benchmark
from .timers import phase_breakdown

__all__ = ["compile_workload"]

#: Benchmark builders that take a randomness seed (mirrors the runner).
_SEEDED_BENCHMARKS = ("QAOA", "VQE", "BV")


def compile_workload(
    workload, compilers: Sequence[str], *, verify: bool = False
) -> dict[str, dict[str, object]]:
    """Compile ``workload`` with every backend; one bench row per backend.

    Mirrors the runner's conventions (:func:`repro.experiments.runner.
    compile_many`): the circuit is sized to the highway layout's data-qubit
    count, seeded builders get the workload seed, and every backend is
    configured with the shared read-only layout.  ``seconds`` times
    ``backend.compile`` alone; the metrics evaluation is timed separately and
    reported as the ``simulate`` phase next to the phases the compiler itself
    recorded.

    ``verify=True`` additionally runs the static verifier
    (:func:`repro.analysis.verify_compilation`) over every result — checking
    the recorded depth/eff-CNOT values against the IR too — and extends each
    row with ``verified`` (bool), ``violations`` (count) and ``verify`` (the
    full report dict); the wall-clock cost lands in the ``verify`` phase.
    """
    array = ChipletArray(
        workload.structure, workload.chiplet_width, workload.rows, workload.cols
    )
    layout = HighwayLayout(array, density=1)
    width = layout.num_data_qubits
    kwargs = {"seed": workload.seed} if workload.benchmark.upper() in _SEEDED_BENCHMARKS else {}
    circuit = build_benchmark(workload.benchmark, width, **kwargs)

    rows: dict[str, dict[str, object]] = {}
    for name in compilers:
        backend = get_backend(name).configure(array, seed=workload.seed, layout=layout)
        # a full collection of earlier garbage must not land inside a
        # ~30 ms timed compile (it alone can take as long)
        gc.collect()
        start = time.perf_counter()
        result = backend.compile(circuit)
        seconds = time.perf_counter() - start
        sim_start = time.perf_counter()
        metrics = result.metrics()
        phases = phase_breakdown(result.stats)
        # accumulate onto any simulate time the compiler itself recorded
        # (multi-trial baselines evaluate metrics to pick their best trial)
        phases["simulate"] = phases.get("simulate", 0.0) + (
            time.perf_counter() - sim_start
        )
        row: dict[str, object] = {
            "workload": workload.name,
            "benchmark": workload.benchmark,
            "architecture": array.topology.name,
            "num_data_qubits": width,
            "backend": name,
            "seconds": seconds,
            "swaps": float(result.stats.get("swaps_inserted", 0.0)),
            "depth": metrics.depth,
            "eff_cnots": metrics.eff_cnots,
            "phases": phases,
        }
        if verify:
            from ..analysis import verify_compilation

            verify_start = time.perf_counter()
            report = verify_compilation(
                circuit,
                result,
                expected_depth=metrics.depth,
                expected_eff_cnots=metrics.eff_cnots,
            )
            phases["verify"] = time.perf_counter() - verify_start
            row["verified"] = report.ok
            row["violations"] = len(report.violations)
            row["verify"] = report.as_dict()
        rows[name] = row
    return rows
