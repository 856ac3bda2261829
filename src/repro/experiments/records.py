"""Comparison records, their payload codecs, compiler lists and text tables.

Everything here is pure data and formatting: it imports no compiler, so
reading cached results and writing artifacts never load one, and planning a
sweep does not load this module at all.  :func:`record_to_payload` and
:func:`record_from_payload` are the JSON form the cache, the farm's wire
format and the checkpoint carry.  :mod:`repro.experiments.runner` builds these records from compiled
output and re-exports every name; :mod:`repro.metrics` re-exports the
improvement helpers.

Two record shapes exist:

* :class:`ComparisonRecord` — the historic two-column baseline-vs-MECH record;
  still what the default ``("baseline", "mech")`` comparison produces, field
  for field identical to the pre-registry runner.
* :class:`MultiComparisonRecord` — per-backend depth/eff-CNOT/seconds columns
  for any other compiler list, with improvements against the reference.  Its
  compatibility properties (``depth_improvement``, ``normalized_depth``, ...)
  report the *primary* backend — ``"mech"`` when present, else the last
  non-reference compiler — so figure-series helpers work on either shape.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..backends.registry import DEFAULT_COMPILERS

__all__ = [
    "AnyRecord",
    "ComparisonRecord",
    "MultiComparisonRecord",
    "format_failed_rows",
    "format_multi_records",
    "format_records",
    "improvement",
    "normalize_compilers",
    "normalized_ratio",
    "primary_compiler",
    "record_from_payload",
    "record_to_payload",
    "resolve_compilers",
]


def improvement(baseline: float, ours: float) -> float:
    """Relative improvement ``1 - ours/baseline`` (the paper's percentages)."""
    if baseline <= 0:
        raise ValueError("baseline metric must be positive")
    return 1.0 - ours / baseline


def normalized_ratio(baseline: float, ours: float) -> float:
    """``ours / baseline`` — the normalised values plotted in Figs. 14-16."""
    if baseline <= 0:
        raise ValueError("baseline metric must be positive")
    return ours / baseline


def primary_compiler(compilers: Sequence[str]) -> str:
    """The compiler whose improvement the compatibility properties report.

    ``"mech"`` when present (the paper's headline comparison), otherwise the
    last non-reference compiler of the list.
    """
    names = [str(name) for name in compilers]
    non_reference = [name for name in names[1:]] or names
    if "mech" in non_reference:
        return "mech"
    return non_reference[-1]


@dataclass
class ComparisonRecord:
    """Baseline-vs-MECH metrics for one benchmark on one architecture."""

    benchmark: str
    architecture: str
    num_data_qubits: int
    num_physical_qubits: int
    baseline_depth: float
    mech_depth: float
    baseline_eff_cnots: float
    mech_eff_cnots: float
    highway_qubit_fraction: float
    baseline_seconds: float = 0.0
    mech_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def depth_improvement(self) -> float:
        return improvement(self.baseline_depth, self.mech_depth)

    @property
    def eff_cnots_improvement(self) -> float:
        return improvement(self.baseline_eff_cnots, self.mech_eff_cnots)

    @property
    def normalized_depth(self) -> float:
        return normalized_ratio(self.baseline_depth, self.mech_depth)

    @property
    def normalized_eff_cnots(self) -> float:
        return normalized_ratio(self.baseline_eff_cnots, self.mech_eff_cnots)

    def as_dict(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "num_data_qubits": self.num_data_qubits,
            "num_physical_qubits": self.num_physical_qubits,
            "baseline_depth": self.baseline_depth,
            "mech_depth": self.mech_depth,
            "depth_improvement": self.depth_improvement,
            "baseline_eff_cnots": self.baseline_eff_cnots,
            "mech_eff_cnots": self.mech_eff_cnots,
            "eff_cnots_improvement": self.eff_cnots_improvement,
            "highway_qubit_fraction": self.highway_qubit_fraction,
            **self.extra,
        }


@dataclass
class MultiComparisonRecord:
    """Per-backend metrics for one benchmark cell compiled by N backends.

    ``compilers`` preserves the comparison order; its first element is the
    *reference* backend every improvement is measured against.  ``depths``,
    ``eff_cnots`` and ``seconds`` are keyed by backend name.
    """

    benchmark: str
    architecture: str
    num_data_qubits: int
    num_physical_qubits: int
    compilers: tuple[str, ...]
    depths: dict[str, float]
    eff_cnots: dict[str, float]
    highway_qubit_fraction: float
    seconds: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def reference(self) -> str:
        return self.compilers[0]

    @property
    def primary(self) -> str:
        return primary_compiler(self.compilers)

    # ---------------------------------------------------------------- #
    # per-backend metrics against the reference
    # ---------------------------------------------------------------- #
    def depth_improvement_for(self, name: str) -> float:
        return improvement(self.depths[self.reference], self.depths[name])

    def eff_cnots_improvement_for(self, name: str) -> float:
        return improvement(self.eff_cnots[self.reference], self.eff_cnots[name])

    def normalized_depth_for(self, name: str) -> float:
        return normalized_ratio(self.depths[self.reference], self.depths[name])

    def normalized_eff_cnots_for(self, name: str) -> float:
        return normalized_ratio(self.eff_cnots[self.reference], self.eff_cnots[name])

    # ---------------------------------------------------------------- #
    # ComparisonRecord-compatible properties (report the primary backend),
    # so figure-series helpers accept either record shape
    # ---------------------------------------------------------------- #
    @property
    def depth_improvement(self) -> float:
        return self.depth_improvement_for(self.primary)

    @property
    def eff_cnots_improvement(self) -> float:
        return self.eff_cnots_improvement_for(self.primary)

    @property
    def normalized_depth(self) -> float:
        return self.normalized_depth_for(self.primary)

    @property
    def normalized_eff_cnots(self) -> float:
        return self.normalized_eff_cnots_for(self.primary)

    def as_dict(self) -> dict[str, object]:
        """Flat per-backend columns (``<name>_depth``, ``<name>_eff_cnots``, ...)."""
        out: dict[str, object] = {
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "num_data_qubits": self.num_data_qubits,
            "num_physical_qubits": self.num_physical_qubits,
            "compilers": ",".join(self.compilers),
            "reference": self.reference,
        }
        for name in self.compilers:
            out[f"{name}_depth"] = self.depths[name]
            out[f"{name}_eff_cnots"] = self.eff_cnots[name]
        for name in self.compilers:
            if name == self.reference:
                continue
            out[f"{name}_depth_improvement"] = self.depth_improvement_for(name)
            out[f"{name}_eff_cnots_improvement"] = self.eff_cnots_improvement_for(name)
        out["highway_qubit_fraction"] = self.highway_qubit_fraction
        out.update(self.extra)
        return out


#: Either record shape, as returned by the engine.
AnyRecord = ComparisonRecord | MultiComparisonRecord


def record_to_payload(record: AnyRecord) -> dict[str, object]:
    """All dataclass fields of a record as a JSON-serialisable dict.

    Two-backend :class:`ComparisonRecord` payloads keep the historic flat
    field layout; :class:`MultiComparisonRecord` payloads carry a
    ``compilers`` list plus per-backend ``depths``/``eff_cnots``/``seconds``
    maps — the marker :func:`record_from_payload` dispatches on.
    """
    if isinstance(record, MultiComparisonRecord):
        return {
            "compilers": list(record.compilers),
            "benchmark": record.benchmark,
            "architecture": record.architecture,
            "num_data_qubits": record.num_data_qubits,
            "num_physical_qubits": record.num_physical_qubits,
            "depths": dict(record.depths),
            "eff_cnots": dict(record.eff_cnots),
            "highway_qubit_fraction": record.highway_qubit_fraction,
            "seconds": dict(record.seconds),
            "extra": dict(record.extra),
        }
    return {
        "benchmark": record.benchmark,
        "architecture": record.architecture,
        "num_data_qubits": record.num_data_qubits,
        "num_physical_qubits": record.num_physical_qubits,
        "baseline_depth": record.baseline_depth,
        "mech_depth": record.mech_depth,
        "baseline_eff_cnots": record.baseline_eff_cnots,
        "mech_eff_cnots": record.mech_eff_cnots,
        "highway_qubit_fraction": record.highway_qubit_fraction,
        "baseline_seconds": record.baseline_seconds,
        "mech_seconds": record.mech_seconds,
        "extra": dict(record.extra),
    }


def record_from_payload(payload: Mapping[str, object]) -> AnyRecord:
    """Inverse of :func:`record_to_payload` (always returns a fresh record)."""
    data = dict(payload)
    data["extra"] = dict(data.get("extra") or {})
    if "compilers" in data:
        data["compilers"] = tuple(data["compilers"])
        data["depths"] = dict(data.get("depths") or {})
        data["eff_cnots"] = dict(data.get("eff_cnots") or {})
        data["seconds"] = dict(data.get("seconds") or {})
        return MultiComparisonRecord(**data)  # type: ignore[arg-type]
    return ComparisonRecord(**data)  # type: ignore[arg-type]


def normalize_compilers(compilers: Sequence[str]) -> tuple[str, ...]:
    """Lowercased, stripped compiler names with shape validation.

    At least two compilers (the first is the reference) and no duplicates;
    existence in the registry is checked at resolution time by
    :func:`~repro.backends.get_backend`.
    """
    names = tuple(str(name).strip().lower() for name in compilers)
    if len(names) < 2:
        raise ValueError(
            f"a comparison needs at least two compilers (the first is the"
            f" reference), got {list(names)}"
        )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate compiler(s) {duplicates} in {list(names)}")
    return names


def resolve_compilers(compilers: Sequence[str] | None) -> tuple[str, ...]:
    """``None`` -> the default pair; anything else normalised and validated.

    The one-liner every jobs builder uses to thread an optional compiler
    list: case-folding keeps ``--compilers MECH,baseline`` and
    ``mech,baseline`` on the same cache keys.
    """
    if compilers is None:
        return DEFAULT_COMPILERS
    return normalize_compilers(compilers)


# --------------------------------------------------------------------------
# text rendering


def format_records(
    records: Sequence[AnyRecord],
    *,
    title: str = "",
    errors: Sequence[object] | None = None,
) -> str:
    """Render comparison records as a fixed-width text table (paper style).

    Two-backend records render in the historic baseline/MECH column layout;
    any :class:`MultiComparisonRecord` in the sequence switches the whole
    table to the long-format N-way layout (one line per record x backend).

    ``errors`` (engine ``JobError`` records, or anything with ``benchmark``,
    ``error_type``, ``message`` and ``attempts`` attributes) are appended as
    FAILED rows so a partially failed sweep still prints every cell.
    """
    if any(isinstance(record, MultiComparisonRecord) for record in records):
        return format_multi_records(records, title=title, errors=errors)
    lines: list[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'program':<14} {'arch':<22} {'base depth':>11} {'mech depth':>11} "
        f"{'depth impr':>10} {'base eff':>11} {'mech eff':>11} {'eff impr':>9} {'hw %':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        lines.append(
            f"{r.benchmark + '-' + str(r.num_data_qubits):<14} {r.architecture:<22} "
            f"{r.baseline_depth:>11.0f} {r.mech_depth:>11.0f} {r.depth_improvement:>9.1%} "
            f"{r.baseline_eff_cnots:>11.0f} {r.mech_eff_cnots:>11.0f} "
            f"{r.eff_cnots_improvement:>8.1%} {r.highway_qubit_fraction:>6.1%}"
        )
    lines.extend(format_failed_rows(errors or ()))
    return "\n".join(lines)


def format_multi_records(
    records: Sequence[AnyRecord],
    *,
    title: str = "",
    errors: Sequence[object] | None = None,
) -> str:
    """Long-format N-way table: one line per (record, backend).

    The reference backend is marked with ``*`` and leaves its improvement
    columns blank (it is its own yardstick).  Two-backend
    :class:`ComparisonRecord` rows mixed into the sequence render as their
    baseline/mech pair.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    header = (
        f"{'program':<14} {'arch':<22} {'compiler':<14} {'depth':>11} "
        f"{'eff CNOTs':>11} {'depth impr':>10} {'eff impr':>9} {'hw %':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        program = f"{r.benchmark}-{r.num_data_qubits}"
        if isinstance(r, MultiComparisonRecord):
            rows = [
                (
                    name,
                    r.depths[name],
                    r.eff_cnots[name],
                    None if name == r.reference else r.depth_improvement_for(name),
                    None if name == r.reference else r.eff_cnots_improvement_for(name),
                )
                for name in r.compilers
            ]
            reference = r.reference
        else:
            rows = [
                ("baseline", r.baseline_depth, r.baseline_eff_cnots, None, None),
                ("mech", r.mech_depth, r.mech_eff_cnots, r.depth_improvement, r.eff_cnots_improvement),
            ]
            reference = "baseline"
        for index, (name, depth, eff, depth_impr, eff_impr) in enumerate(rows):
            label = f"{name}*" if name == reference else name
            prefix = (
                f"{program:<14} {r.architecture:<22}"
                if index == 0
                else f"{'':<14} {'':<22}"
            )
            depth_cell = f"{depth_impr:>10.1%}" if depth_impr is not None else f"{'—':>10}"
            eff_cell = f"{eff_impr:>9.1%}" if eff_impr is not None else f"{'—':>9}"
            lines.append(
                f"{prefix} {label:<14} {depth:>11.0f} {eff:>11.0f} "
                f"{depth_cell} {eff_cell} {r.highway_qubit_fraction:>6.1%}"
            )
    lines.extend(format_failed_rows(errors or ()))
    return "\n".join(lines)


def format_failed_rows(errors: Sequence[object]) -> list[str]:
    """One text-table line per failed job (engine ``JobError`` records)."""
    rows = []
    for e in errors:
        attempts = getattr(e, "attempts", 1)
        rows.append(
            f"{getattr(e, 'benchmark', '?'):<14} FAILED after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: "
            f"{getattr(e, 'error_type', 'Error')}: {getattr(e, 'message', '')}"
        )
    return rows
