"""``repro bench --history`` — longitudinal analytics over BENCH documents.

PR 5 made every bench run emit a schema-versioned ``BENCH_*.json`` document
and gave the CLI a one-shot ``--against`` comparison; this module turns the
accumulated pile of documents into a first-class, CI-gated artifact.  It
ingests every document of a history directory (schema-validated, sorted by
recording time), rescales all wall-clock figures onto one machine-speed scale
via the documents' calibration probes, computes per-backend trend series —
wall-clock, swaps, depth, effective CNOTs, and the per-phase breakdown — and
summarises each backend's trajectory as geometric-mean deltas of the newest
document vs. the *oldest* (the whole-history trend) and vs. the *previous*
one (the per-PR drift the CI job gates on with ``--max-drift``).

The machine report is a ``TREND_*.json`` document (same collision-proof
naming as the bench documents); :func:`format_history` renders the human
table.
"""

from __future__ import annotations

import math
from pathlib import Path
from collections.abc import Mapping, Sequence

from ..metrics import geometric_mean
from .bench import load_bench, write_document

__all__ = [
    "TREND_SCHEMA_VERSION",
    "HistoryError",
    "load_history",
    "compute_history",
    "history_report",
    "format_history",
    "write_trend",
]

#: Version stamp of the TREND_*.json report schema.
TREND_SCHEMA_VERSION = 1

#: Default drift gate: fail when a backend's geomean wall-clock grew by more
#: than this fraction since the previous document (calibration-rescaled).
DEFAULT_MAX_DRIFT = 0.5


class HistoryError(ValueError):
    """A history directory that cannot be analysed (missing, empty, ...)."""


def _sort_stamp(document: Mapping[str, object], path: Path) -> tuple[float, str]:
    created = document.get("created_unix")
    if isinstance(created, (int, float)) and math.isfinite(created):
        return (float(created), path.name)
    # pre-timestamp or doctored documents sort by filename (itself a stamp)
    return (0.0, path.name)


def load_history(
    directory: str | Path,
) -> tuple[list[tuple[Path, dict[str, object]]], list[dict[str, str]]]:
    """Load every ``BENCH_*.json`` under ``directory``, oldest first.

    Returns ``(documents, skipped)`` where ``documents`` is a list of
    ``(path, document)`` pairs sorted by recording time and ``skipped``
    records the files that failed schema validation (they are reported, not
    silently dropped — but they must not brick a long-lived history
    directory either).  A missing directory or one with no loadable
    documents raises :class:`HistoryError`.
    """
    root = Path(directory)
    if not root.is_dir():
        raise HistoryError(f"history directory {root} does not exist")
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        raise HistoryError(f"no BENCH_*.json documents under {root}")
    documents: list[tuple[Path, dict[str, object]]] = []
    skipped: list[dict[str, str]] = []
    for path in paths:
        try:
            documents.append((path, load_bench(path)))
        except (OSError, ValueError) as exc:
            skipped.append({"file": path.name, "error": str(exc)})
    if not documents:
        raise HistoryError(
            f"none of the {len(paths)} BENCH_*.json documents under {root}"
            f" passed schema validation"
        )
    documents.sort(key=lambda pair: _sort_stamp(pair[1], pair[0]))
    return documents, skipped


# --------------------------------------------------------------------------
# trend computation


def _rescale(document: Mapping[str, object], reference_calibration: float) -> float:
    """Factor that maps this document's seconds onto the reference machine.

    Mirrors ``compare_bench``: seconds recorded on a machine whose
    calibration probe took ``c`` correspond to ``seconds * (ref / c)`` on the
    reference machine (a *faster* machine has a smaller probe time, so its
    timings are scaled up).
    """
    calibration = float(document.get("calibration_seconds") or 0.0)
    if calibration > 0 and reference_calibration > 0:
        return reference_calibration / calibration
    return 1.0


def _backend_rows(document: Mapping[str, object]) -> dict[str, dict[str, dict]]:
    """``backend -> workload -> row`` for one document."""
    out: dict[str, dict[str, dict]] = {}
    for row in document["rows"]:
        out.setdefault(str(row["backend"]), {})[str(row["workload"])] = row
    return out


def _geomean_over(values: Sequence[float]) -> float | None:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return None
    return float(geometric_mean(finite))


def _delta(
    old_rows: Mapping[str, dict] | None,
    new_rows: Mapping[str, dict],
    scale_old: float,
    scale_new: float,
) -> dict[str, object] | None:
    """Per-backend geomean deltas between two documents' matched workloads.

    ``wallclock_speedup`` follows the ``--against`` convention (old/new, so
    >1 means the newer document is faster); the metric ratios are new/old
    (so >1 means the newer document inserts more swaps / is deeper).
    """
    if old_rows is None:
        return None
    matched = sorted(set(old_rows) & set(new_rows))
    if not matched:
        return None
    speedups = []
    ratios: dict[str, list[float]] = {"swaps": [], "depth": [], "eff_cnots": []}
    for workload in matched:
        old_seconds = float(old_rows[workload]["seconds"]) * scale_old
        new_seconds = float(new_rows[workload]["seconds"]) * scale_new
        if old_seconds > 0 and new_seconds > 0:
            speedups.append(old_seconds / new_seconds)
        for metric in ratios:
            old_value = float(old_rows[workload].get(metric, 0.0))
            new_value = float(new_rows[workload].get(metric, 0.0))
            if old_value > 0 and new_value > 0:
                ratios[metric].append(new_value / old_value)
    return {
        "matched": len(matched),
        "wallclock_speedup": _geomean_over(speedups),
        "swaps_ratio": _geomean_over(ratios["swaps"]),
        "depth_ratio": _geomean_over(ratios["depth"]),
        "eff_cnots_ratio": _geomean_over(ratios["eff_cnots"]),
    }


def compute_history(
    documents: Sequence[tuple[Path, Mapping[str, object]]],
    *,
    max_drift: float = DEFAULT_MAX_DRIFT,
    skipped: Sequence[Mapping[str, str]] | None = None,
) -> dict[str, object]:
    """The TREND report over ``documents`` (oldest first, as from
    :func:`load_history`).

    Per backend, the report carries one trend point per document the backend
    appears in — geomean rescaled wall-clock, geomean swaps/depth/eff-CNOTs,
    and summed per-phase seconds — plus deltas of the newest document vs. the
    oldest and vs. the previous one.  A backend *drifts* when its vs-previous
    geomean wall-clock speedup falls below ``1 / (1 + max_drift)``, i.e. its
    compile time grew by more than the threshold since the last document;
    ``regressed`` is the OR over backends and is what the CLI exits 1 on.
    """
    if not documents:
        raise HistoryError("history must contain at least one document")
    if not (max_drift >= 0):  # inverted so NaN fails too
        raise ValueError("max_drift must be >= 0")
    reference_calibration = float(
        documents[-1][1].get("calibration_seconds") or 0.0
    )
    scales = [_rescale(doc, reference_calibration) for _, doc in documents]
    per_doc_rows = [_backend_rows(doc) for _, doc in documents]

    document_meta = [
        {
            "file": path.name,
            "suite": doc.get("suite"),
            "created_at": doc.get("created_at"),
            "created_unix": doc.get("created_unix"),
            "calibration_seconds": doc.get("calibration_seconds"),
            "calibration_scale": scale,
            "compilers": list(doc.get("compilers") or []),
            "rows": len(doc["rows"]),
        }
        for (path, doc), scale in zip(documents, scales, strict=True)
    ]

    backends = sorted({name for rows in per_doc_rows for name in rows})
    floor = 1.0 / (1.0 + max_drift)
    report_backends: dict[str, object] = {}
    for backend in backends:
        points: list[dict[str, object] | None] = []
        present: list[int] = []
        for index, rows in enumerate(per_doc_rows):
            backend_rows = rows.get(backend)
            if backend_rows is None:
                points.append(None)
                continue
            present.append(index)
            phases: dict[str, float] = {}
            for row in backend_rows.values():
                for phase, seconds in (row.get("phases") or {}).items():
                    phases[phase] = phases.get(phase, 0.0) + (
                        float(seconds) * scales[index]
                    )
            points.append(
                {
                    "wallclock_geomean": _geomean_over(
                        [float(r["seconds"]) * scales[index] for r in backend_rows.values()]
                    ),
                    "swaps_geomean": _geomean_over(
                        [float(r.get("swaps", 0.0)) for r in backend_rows.values()]
                    ),
                    "depth_geomean": _geomean_over(
                        [float(r.get("depth", 0.0)) for r in backend_rows.values()]
                    ),
                    "eff_cnots_geomean": _geomean_over(
                        [float(r.get("eff_cnots", 0.0)) for r in backend_rows.values()]
                    ),
                    "phase_seconds": dict(sorted(phases.items())),
                    "workloads": len(backend_rows),
                }
            )
        latest = present[-1]
        latest_rows = per_doc_rows[latest][backend]
        oldest = present[0]
        previous = present[-2] if len(present) > 1 else None
        vs_oldest = (
            _delta(per_doc_rows[oldest][backend], latest_rows, scales[oldest], scales[latest])
            if oldest != latest
            else None
        )
        vs_previous = (
            _delta(
                per_doc_rows[previous][backend],
                latest_rows,
                scales[previous],
                scales[latest],
            )
            if previous is not None
            else None
        )
        drift_speedup = (vs_previous or {}).get("wallclock_speedup")
        drifted = drift_speedup is not None and drift_speedup < floor
        report_backends[backend] = {
            "documents": present,
            "points": points,
            "vs_oldest": vs_oldest,
            "vs_previous": vs_previous,
            "drifted": drifted,
        }

    regressed = any(entry["drifted"] for entry in report_backends.values())
    return {
        "schema_version": TREND_SCHEMA_VERSION,
        "documents": document_meta,
        "reference_calibration_seconds": reference_calibration,
        "max_drift": max_drift,
        "drift_floor": floor,
        "backends": report_backends,
        "regressed": regressed,
        "skipped": [dict(entry) for entry in (skipped or [])],
    }


def history_report(
    directory: str | Path, *, max_drift: float = DEFAULT_MAX_DRIFT
) -> dict[str, object]:
    """Load a history directory and compute its TREND report in one call."""
    documents, skipped = load_history(directory)
    return compute_history(documents, max_drift=max_drift, skipped=skipped)


def write_trend(report: Mapping[str, object], out_dir: str | Path) -> Path:
    """Write ``report`` as a unique ``TREND_*.json`` under ``out_dir``."""
    return write_document(report, out_dir, "TREND")


# --------------------------------------------------------------------------
# text rendering


def _format_ratio(value: float | None) -> str:
    return f"{value:.2f}x" if value is not None else "-"


def _spark(values: Sequence[float | None]) -> str:
    """A compact numeric trajectory, newest last (``-`` for absent docs)."""
    return " ".join("-" if v is None else f"{v:.3f}" for v in values)


def format_history(report: Mapping[str, object]) -> str:
    """Fixed-width rendering of a TREND report."""
    documents = report["documents"]
    first, last = documents[0], documents[-1]
    lines = [
        f"repro bench history: {len(documents)} documents"
        f" ({first['file']} .. {last['file']})",
        f"wall-clock rescaled to the newest document's machine"
        f" (calibration {float(report['reference_calibration_seconds']):.4f}s;"
        f" drift gate {float(report['max_drift']):.0%} vs previous)",
    ]
    header = (
        f"{'backend':<17} {'docs':>4} {'vs oldest':>10} {'vs prev':>8} "
        f"{'depth':>7} {'effCNOT':>8}  wall-clock geomean trend (s, oldest -> newest)"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for backend, entry in report["backends"].items():
        vs_oldest = entry["vs_oldest"] or {}
        vs_previous = entry["vs_previous"] or {}
        trajectory = _spark(
            [
                point["wallclock_geomean"] if point is not None else None
                for point in entry["points"]
            ]
        )
        lines.append(
            f"{backend:<17} {len(entry['documents']):>4} "
            f"{_format_ratio(vs_oldest.get('wallclock_speedup')):>10} "
            f"{_format_ratio(vs_previous.get('wallclock_speedup')):>8} "
            f"{_format_ratio(vs_oldest.get('depth_ratio')):>7} "
            f"{_format_ratio(vs_oldest.get('eff_cnots_ratio')):>8}"
            f"  {trajectory}"
        )
    drifted = [name for name, entry in report["backends"].items() if entry["drifted"]]
    if report["skipped"]:
        names = ", ".join(entry["file"] for entry in report["skipped"][:4])
        more = "..." if len(report["skipped"]) > 4 else ""
        lines.append(
            f"({len(report['skipped'])} unreadable document"
            f"{'s' if len(report['skipped']) != 1 else ''} skipped: {names}{more})"
        )
    if drifted:
        lines.append(
            f"DRIFT: {', '.join(drifted)} grew beyond the"
            f" {float(report['max_drift']):.0%} wall-clock threshold since the"
            f" previous document"
        )
    else:
        lines.append("no backend drifted beyond the threshold")
    return "\n".join(lines)
