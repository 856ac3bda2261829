"""``repro bench`` — pinned compile-workload suites and regression tracking.

The benchmark runner compiles a *pinned* set of routing workloads (fig12-style
chiplet arrays at fixed seeds) with every requested registered backend and
records wall-clock seconds, swaps, depth, effective CNOTs and the per-phase
breakdown the :mod:`repro.perf.timers` instrumentation wrote into each
result.  Every run emits a ``BENCH_<timestamp>.json`` document whose schema is
golden-tested, so the performance trajectory of the compiler is a first-class,
diffable artifact rather than an anecdote.

``--against`` mode compares a fresh run with a previous document: per-row
speedups (old seconds / new seconds), their geometric mean (the paper's
summary statistic), and a regression verdict against a threshold.  Documents
record a *calibration* scalar — the wall-clock of a fixed CPU workload — and
comparisons rescale the old timings by the calibration ratio, so a faster or
slower machine does not masquerade as a compiler change.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence

from ..metrics import geometric_mean

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SUITES",
    "BenchWorkload",
    "compare_bench",
    "format_bench",
    "format_comparison",
    "load_bench",
    "measure_calibration",
    "resolve_suite",
    "run_bench",
    "write_bench",
    "write_document",
]

#: Version stamp of the BENCH_*.json document schema.
BENCH_SCHEMA_VERSION = 1

#: Fixed seed every bench workload compiles with (comparability across runs).
BENCH_SEED = 7


@dataclass(frozen=True)
class BenchWorkload:
    """One pinned compile workload: a benchmark circuit on a chiplet array."""

    name: str
    benchmark: str
    structure: str
    chiplet_width: int
    rows: int
    cols: int
    seed: int = BENCH_SEED


def _fig12_workloads(
    width: int, shapes: Sequence[tuple[int, int]], benchmarks: Sequence[str]
) -> tuple[BenchWorkload, ...]:
    return tuple(
        BenchWorkload(
            name=f"square{width}-{rows}x{cols}/{benchmark.lower()}",
            benchmark=benchmark,
            structure="square",
            chiplet_width=width,
            rows=rows,
            cols=cols,
        )
        for rows, cols in shapes
        for benchmark in benchmarks
    )


#: Pinned suites.  ``quick`` is the CI smoke tier; ``fig12`` covers the
#: paper's large scalability presets (7x7 chiplets, the full 2x2..3x4 array
#: sweep) under the two routing-heavy benchmarks; ``full`` extends fig12 to
#: all four paper benchmarks.
SUITES: dict[str, tuple[BenchWorkload, ...]] = {
    # width-5 chiplets: big enough (~100-300ms per compile) that the CI
    # regression gate measures the compiler, not scheduler jitter
    "quick": _fig12_workloads(5, ((1, 2), (2, 2)), ("QFT", "QAOA")),
    "fig12": _fig12_workloads(7, ((2, 2), (2, 3), (3, 3), (3, 4)), ("QFT", "QAOA")),
    "full": _fig12_workloads(
        7, ((2, 2), (2, 3), (3, 3), (3, 4)), ("QFT", "QAOA", "VQE", "BV")
    ),
}


def resolve_suite(suite: str) -> tuple[BenchWorkload, ...]:
    """The pinned workloads of ``suite``, or a loud error naming the choices."""
    try:
        return SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {suite!r}; choose from {sorted(SUITES)}"
        ) from None


def measure_calibration(repeats: int = 5) -> float:
    """Wall-clock seconds of a fixed CPU workload (machine-speed probe).

    A mix of interpreter-bound and numpy-bound work.  One untimed warm-up
    pass settles the adaptive interpreter and CPU boost state, then the
    minimum over ``repeats`` ~30 ms runs rejects scheduling noise — short
    probes swing by tens of percent on an otherwise idle machine, which
    would manufacture phantom regressions.  Comparisons divide timings by
    the calibration ratio so documents recorded on different machines stay
    comparable.

    The compile path no longer uses numpy, but the probe stays as it was so
    that the calibrations already recorded in bench documents keep their
    meaning; it is ``repro bench``'s only numpy import.
    """

    import numpy as np

    def probe() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        values = np.arange(100_000, dtype=np.float64)
        for _ in range(50):
            values = np.sqrt(values * 1.0000001 + 1.0)
        del acc, values
        return time.perf_counter() - start

    probe()  # warm-up, untimed
    return min(probe() for _ in range(max(1, repeats)))


def run_bench(
    suite: str = "quick",
    *,
    compilers: Sequence[str] | None = None,
    repeat: int = 1,
    progress: Callable[[str], None] | None = None,
    verify: bool = False,
) -> dict[str, object]:
    """Compile every workload of ``suite`` with every backend; return the doc.

    ``repeat`` re-compiles each workload N times and keeps the fastest
    wall-clock per backend (metrics are identical across repeats — the
    compilers are deterministic at fixed seeds).

    Unlike an experiment comparison, a bench sweep has no reference backend,
    so ``compilers`` may be a single name (or the whole registry — the CLI's
    ``--backends all``); ``None`` keeps the default pair.

    ``verify=True`` runs the static verifier (:mod:`repro.analysis`) over
    every compiled result; rows gain ``verified``/``violations`` columns and
    the document records ``"verify": true`` so consumers know the rows carry
    verification columns.
    """
    from ..backends import DEFAULT_COMPILERS
    from .workloads import compile_workload

    workloads = resolve_suite(suite)
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    if compilers is None:
        names: tuple[str, ...] = DEFAULT_COMPILERS
    else:
        names = tuple(str(name).strip().lower() for name in compilers)
        if not names:
            raise ValueError("compilers must name at least one backend")
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate compiler(s) {duplicates} in {list(names)}")
    rows: list[dict[str, object]] = []
    for workload in workloads:
        if progress is not None:
            progress(f"bench {workload.name} [{', '.join(names)}]")
        best: dict[str, dict[str, object]] | None = None
        for _ in range(repeat):
            measured = compile_workload(workload, names, verify=verify)
            if best is None:
                best = measured
            else:
                for backend, row in measured.items():
                    if row["seconds"] < best[backend]["seconds"]:
                        best[backend] = row
        assert best is not None
        for backend in names:
            rows.append(best[backend])
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "seed": BENCH_SEED,
        "created_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "created_unix": time.time(),
        "compilers": list(names),
        "repeat": repeat,
        "verify": bool(verify),
        "calibration_seconds": measure_calibration(),
        "rows": rows,
    }


def write_document(
    document: Mapping[str, object], out_dir: str | Path, prefix: str
) -> Path:
    """Write ``document`` as ``<prefix>_<timestamp>-p<pid>[.N].json``, never
    clobbering an existing file.

    The timestamp alone is second-granular, so two runs starting in the same
    second used to race each other onto the same name; the pid separates
    concurrent processes and the counter separates same-process rewrites.
    Creation is atomic (``open(..., "x")``), so even a pid collision across
    reboots degrades to a counter bump instead of an overwrite.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%d-%H%M%S')}-p{os.getpid()}"
    counter = 0
    while True:
        suffix = f".{counter}" if counter else ""
        path = out / f"{prefix}_{stamp}{suffix}.json"
        try:
            with open(path, "x", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
            return path
        except FileExistsError:
            counter += 1


def write_bench(document: Mapping[str, object], out_dir: str | Path) -> Path:
    """Write ``document`` as a unique ``BENCH_*.json`` under ``out_dir``."""
    return write_document(document, out_dir, "BENCH")


def load_bench(path: str | Path) -> dict[str, object]:
    """Load and shape-check a BENCH document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "rows" not in document:
        raise ValueError(f"{path} is not a repro bench document")
    if document.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has bench schema {document.get('schema_version')!r};"
            f" this build reads version {BENCH_SCHEMA_VERSION}"
        )
    return document


#: Routing-output fields of a bench row that must match across a comparison.
_OUTPUT_FIELDS = ("swaps", "depth", "eff_cnots")


def compare_bench(
    old: Mapping[str, object],
    new: Mapping[str, object],
    *,
    max_regression: float = 0.25,
) -> dict[str, object]:
    """Compare two bench documents row by row.

    Speedup per matched ``(workload, backend)`` row is
    ``old_seconds * calibration_ratio / new_seconds`` where
    ``calibration_ratio = new_calibration / old_calibration`` normalises
    machine speed.  The run *regresses* when the geometric-mean speedup drops
    below ``1 / (1 + max_regression)`` (i.e. wall-clock grew by more than the
    threshold).

    Routing output is gated too: ``drift`` lists every matched row whose
    ``swaps``, ``depth`` or ``eff_cnots`` differ (fields absent from either
    row are not compared), and ``failed`` is true on a regression or any
    drift.  A change in routing output must regenerate the old document.
    """
    if max_regression < 0:
        raise ValueError("max_regression must be >= 0")
    old_rows = {(r["workload"], r["backend"]): r for r in old["rows"]}
    new_rows = {(r["workload"], r["backend"]): r for r in new["rows"]}
    old_cal = float(old.get("calibration_seconds") or 0.0)
    new_cal = float(new.get("calibration_seconds") or 0.0)
    ratio = (new_cal / old_cal) if old_cal > 0 and new_cal > 0 else 1.0

    rows: list[dict[str, object]] = []
    speedups: list[float] = []
    drift: list[str] = []
    for key in sorted(new_rows):
        if key not in old_rows:
            continue
        for field in _OUTPUT_FIELDS:
            before = old_rows[key].get(field)
            after = new_rows[key].get(field)
            if before is not None and after is not None and before != after:
                drift.append(f"{key[0]}::{key[1]} {field} {before:.12g} -> {after:.12g}")
        old_seconds = float(old_rows[key]["seconds"]) * ratio
        new_seconds = float(new_rows[key]["seconds"])
        speedup = old_seconds / new_seconds if new_seconds > 0 else float("inf")
        speedups.append(speedup)
        rows.append(
            {
                "workload": key[0],
                "backend": key[1],
                "old_seconds": old_seconds,
                "new_seconds": new_seconds,
                "speedup": speedup,
            }
        )
    geomean = geometric_mean(s for s in speedups if math.isfinite(s)) if speedups else 0.0
    floor = 1.0 / (1.0 + max_regression)
    regressed = bool(rows) and geomean < floor
    return {
        "matched": len(rows),
        "missing": sorted(
            f"{w}::{b}" for w, b in set(new_rows) ^ set(old_rows)
        ),
        "calibration_ratio": ratio,
        "geomean_speedup": geomean,
        "max_regression": max_regression,
        "speedup_floor": floor,
        "regressed": regressed,
        "drift": drift,
        "failed": regressed or bool(drift),
        "rows": rows,
    }


# --------------------------------------------------------------------------
# text rendering


def format_bench(document: Mapping[str, object]) -> str:
    """Fixed-width table of one bench document."""
    lines = [
        f"repro bench suite={document['suite']} seed={document['seed']}"
        f" compilers={','.join(document['compilers'])}"
        f" calibration={float(document['calibration_seconds']):.4f}s"
    ]
    header = (
        f"{'workload':<24} {'backend':<12} {'seconds':>9} {'swaps':>8} "
        f"{'depth':>9} {'eff CNOTs':>10}  phases"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in document["rows"]:
        phases = row.get("phases") or {}
        phase_text = " ".join(
            f"{name}={seconds:.3f}" for name, seconds in sorted(phases.items())
        )
        lines.append(
            f"{row['workload']:<24} {row['backend']:<12} {row['seconds']:>9.3f} "
            f"{row['swaps']:>8.0f} {row['depth']:>9.0f} {row['eff_cnots']:>10.0f}"
            f"  {phase_text}"
        )
    return "\n".join(lines)


def format_comparison(comparison: Mapping[str, object]) -> str:
    """Fixed-width table of a ``--against`` comparison."""
    lines = [
        f"comparison vs previous run (calibration ratio"
        f" {comparison['calibration_ratio']:.3f}, old timings rescaled):"
    ]
    header = f"{'workload':<24} {'backend':<12} {'old s':>9} {'new s':>9} {'speedup':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in comparison["rows"]:
        lines.append(
            f"{row['workload']:<24} {row['backend']:<12} "
            f"{row['old_seconds']:>9.3f} {row['new_seconds']:>9.3f} "
            f"{row['speedup']:>7.2f}x"
        )
    if comparison["missing"]:
        count = len(comparison["missing"])
        lines.append(
            f"({count} unmatched row{'s' if count != 1 else ''} not compared:"
            f" {', '.join(comparison['missing'][:4])}"
            f"{'...' if count > 4 else ''})"
        )
    lines.append(
        f"geometric-mean speedup: {comparison['geomean_speedup']:.2f}x"
        f" over {comparison['matched']} workloads"
        f" (regression floor {comparison['speedup_floor']:.2f}x)"
    )
    if comparison["regressed"]:
        lines.append(
            f"REGRESSION: wall-clock grew beyond the"
            f" {comparison['max_regression']:.0%} threshold"
        )
    for change in comparison["drift"]:
        lines.append(f"OUTPUT DRIFT: {change}")
    return "\n".join(lines)
