"""Experiment artifacts: the JSON and CSV files a sweep's records become.

:func:`write_artifacts` serialises a sweep's records (and its failed jobs'
error rows) as ``<name>.json`` and ``<name>.csv``, so figures can be
regenerated and diffed without recompiling anything.  ``csv`` loads only
when artifacts are written.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .jobs import CACHE_VERSION
from .records import AnyRecord, MultiComparisonRecord, record_to_payload

if TYPE_CHECKING:
    from .policy import JobError

__all__ = ["error_row", "record_row", "write_artifacts"]


def record_row(record: AnyRecord) -> dict[str, object]:
    """Flat artifact row: stored fields plus the derived paper metrics.

    N-way records flatten to per-backend columns (``<name>_depth``,
    ``<name>_eff_cnots``, ``<name>_seconds``, improvement/normalised ratios
    against the reference backend) instead of the two-backend core columns.
    """
    if isinstance(record, MultiComparisonRecord):
        row = record.as_dict()
        extra_keys = sorted(record.extra)
        for name in record.compilers:
            if name != record.reference:
                row[f"{name}_normalized_depth"] = record.normalized_depth_for(name)
                row[f"{name}_normalized_eff_cnots"] = record.normalized_eff_cnots_for(name)
            row[f"{name}_seconds"] = record.seconds.get(name, 0.0)
        # re-append extras after the derived columns, sorted and stable
        for key in extra_keys:
            row[key] = row.pop(key)
        return row
    row = record_to_payload(record)
    extra = row.pop("extra")
    row["depth_improvement"] = record.depth_improvement
    row["eff_cnots_improvement"] = record.eff_cnots_improvement
    row["normalized_depth"] = record.normalized_depth
    row["normalized_eff_cnots"] = record.normalized_eff_cnots
    for key in sorted(extra):
        row[key] = extra[key]
    return row


def error_row(error: JobError) -> dict[str, object]:
    """Flat artifact row for one failed job (``status="error"``)."""
    return {
        "status": "error",
        "benchmark": error.benchmark,
        "error_type": error.error_type,
        "error_message": error.message,
        "attempts": error.attempts,
        "seconds": round(error.seconds, 3),
        "config_key": error.key,
    }


def write_artifacts(
    name: str,
    records: Sequence[AnyRecord],
    out_dir: str | Path,
    *,
    text: str | None = None,
    metadata: Mapping[str, object] | None = None,
    errors: Sequence[JobError] | None = None,
) -> dict[str, Path]:
    """Write ``<out_dir>/<name>.json`` and ``.csv`` (and ``.txt`` if given).

    The JSON artifact holds one flat row per record (stored fields plus the
    derived paper metrics) under a small metadata header; the CSV holds the
    same rows with a stable column order (core fields first, then the union
    of extra keys, sorted).  ``errors`` (failed jobs' :class:`JobError`
    records) land in the JSON document's ``errors`` list and as
    ``status="error"`` rows at the bottom of the CSV, so a partially failed
    sweep is visible in the artifacts instead of silently shrunken.
    """
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [dict(record_row(record), status="ok") for record in records]
    error_rows = [error_row(error) for error in (errors or ())]

    json_path = out / f"{name}.json"
    document = {
        "experiment": name,
        "cache_version": CACHE_VERSION,
        **(dict(metadata) if metadata else {}),
        "records": rows,
        "errors": [asdict(error) for error in (errors or ())],
    }
    # one write: json.dump would stream the indented encoder's many small
    # chunks to the file one by one
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=1) + "\n")

    core = [
        "benchmark",
        "architecture",
        "num_data_qubits",
        "num_physical_qubits",
        "compilers",
        "reference",
        "baseline_depth",
        "mech_depth",
        "depth_improvement",
        "baseline_eff_cnots",
        "mech_eff_cnots",
        "eff_cnots_improvement",
        "normalized_depth",
        "normalized_eff_cnots",
        "highway_qubit_fraction",
        "baseline_seconds",
        "mech_seconds",
        "status",
    ]
    all_rows = rows + error_rows
    present = {key for row in all_rows for key in row}
    # keep the stable core order but only emit columns some row actually has:
    # a two-backend sweep keeps the historic header verbatim, an N-way sweep
    # gets its per-backend columns without a block of empty legacy cells
    core_present = [column for column in core if column in present or column == "status"]
    extra_columns = sorted(present - set(core))
    columns = core_present + extra_columns
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in all_rows:
            writer.writerow(row)

    paths = {"json": json_path, "csv": csv_path}
    if text is not None:
        txt_path = out / f"{name}.txt"
        txt_path.write_text(text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8")
        paths["txt"] = txt_path
    return paths
