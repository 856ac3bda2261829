"""Shared experiment runner: compile one benchmark with N registered compiler
backends and collect the paper's metrics.

Every table/figure module builds on :func:`compile_many`: it constructs the
benchmark circuit sized to the highway configuration's data-qubit count (the
paper sizes its circuits "by the numbers of data qubits in our framework"),
compiles it with every requested backend resolved through the
:mod:`repro.backends` registry, and returns a :class:`CompiledSet` from which
records are assembled.  The first listed compiler is the *reference*: every
improvement ratio and normalised metric is computed against it.

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

import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..backends import DEFAULT_COMPILERS, CompilerBackend, get_backend
from ..circuits.circuit import Circuit
from ..compiler import CompilationResult
from ..hardware.array import ChipletArray
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..highway.layout import HighwayLayout
from ..metrics import improvement, normalized_ratio
from ..programs import build_benchmark

__all__ = [
    "ComparisonRecord",
    "CompiledSet",
    "MultiComparisonRecord",
    "backend_stat_extras",
    "compare_many",
    "compile_many",
    "format_failed_rows",
    "format_multi_records",
    "format_records",
    "normalize_compilers",
    "primary_compiler",
    "resolve_compilers",
]

#: Benchmarks whose circuit builders take a randomness seed.
_SEEDED_BENCHMARKS = ("QAOA", "VQE", "BV")


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


@dataclass
class CompiledSet:
    """Every requested backend's output for one benchmark on one array.

    The shared substrate of :func:`compare_many` and the engine's executors:
    the sensitivity executor re-scores the per-backend ``results`` under
    swept noise models without recompiling.
    """

    benchmark: str
    array: ChipletArray
    compilers: tuple[str, ...]
    circuit_width: int
    highway_qubit_fraction: float
    backends: dict[str, CompilerBackend]
    results: dict[str, CompilationResult]
    seconds: dict[str, float]
    #: The logical circuit every backend compiled, kept so the static
    #: verifier (:mod:`repro.analysis`) can replay the results against it.
    source_circuit: Circuit | None = None

    @property
    def reference(self) -> str:
        return self.compilers[0]

    def verify_all(self, noise: NoiseModel = DEFAULT_NOISE) -> dict[str, object]:
        """Statically verify every backend's result against the source circuit.

        Returns the per-backend :class:`repro.analysis.VerificationReport`
        map; raises :class:`repro.analysis.VerificationError` on the first
        backend whose compilation has violations (hardware legality, semantic
        preservation, highway-protocol invariants, metric consistency).
        """
        from ..analysis import assert_verified

        if self.source_circuit is None:
            raise ValueError(
                "this CompiledSet does not carry its source circuit; it cannot"
                " be verified (was it built by compile_many?)"
            )
        reports: dict[str, object] = {}
        for name in self.compilers:
            reports[name] = assert_verified(
                self.source_circuit,
                self.results[name],
                noise=noise,
                context=f"backend {name!r} on {self.benchmark.upper()}",
            )
        return reports

    @property
    def primary(self) -> str:
        return primary_compiler(self.compilers)

    def record(
        self, noise: NoiseModel, extra: dict[str, float] | None = None
    ) -> MultiComparisonRecord:
        """Assemble the N-way comparison record under ``noise``."""
        depths: dict[str, float] = {}
        eff: dict[str, float] = {}
        for name in self.compilers:
            metrics = self.results[name].metrics(noise)
            depths[name] = metrics.depth
            eff[name] = metrics.eff_cnots
        return MultiComparisonRecord(
            benchmark=self.benchmark.upper(),
            architecture=self.array.topology.name,
            num_data_qubits=self.circuit_width,
            num_physical_qubits=self.array.num_qubits,
            compilers=self.compilers,
            depths=depths,
            eff_cnots=eff,
            highway_qubit_fraction=self.highway_qubit_fraction,
            seconds=dict(self.seconds),
            extra=dict(extra or {}),
        )

    def comparison_record(
        self, noise: NoiseModel, extra: dict[str, float] | None = None
    ) -> ComparisonRecord:
        """The historic two-column record; only the default pair has one."""
        if self.compilers != DEFAULT_COMPILERS:
            raise ValueError(
                f"comparison_record needs the default {DEFAULT_COMPILERS} pair,"
                f" got {self.compilers}; use record() for N-way comparisons"
            )
        mech_metrics = self.results["mech"].metrics(noise)
        baseline_metrics = self.results["baseline"].metrics(noise)
        return ComparisonRecord(
            benchmark=self.benchmark.upper(),
            architecture=self.array.topology.name,
            num_data_qubits=self.circuit_width,
            num_physical_qubits=self.array.num_qubits,
            baseline_depth=baseline_metrics.depth,
            mech_depth=mech_metrics.depth,
            baseline_eff_cnots=baseline_metrics.eff_cnots,
            mech_eff_cnots=mech_metrics.eff_cnots,
            highway_qubit_fraction=self.highway_qubit_fraction,
            baseline_seconds=self.seconds["baseline"],
            mech_seconds=self.seconds["mech"],
            extra=dict(extra or {}),
        )


def backend_stat_extras(compiled: CompiledSet) -> dict[str, float]:
    """Per-backend compiler statistics as record extras.

    Every backend contributes ``<name>_swaps``; non-reference backends add
    ``<name>_shuttles`` and ``<name>_highway_gates``.  For the default
    ``("baseline", "mech")`` pair this yields exactly the four keys the
    historic :func:`compare` recorded (``baseline_swaps``, ``mech_swaps``,
    ``mech_shuttles``, ``mech_highway_gates``).
    """
    extra: dict[str, float] = {}
    for name in compiled.compilers:
        stats = compiled.results[name].stats
        if name != compiled.reference:
            extra[f"{name}_shuttles"] = stats.get("shuttles", 0.0)
        extra[f"{name}_swaps"] = stats.get("swaps_inserted", 0.0)
        if name != compiled.reference:
            extra[f"{name}_highway_gates"] = stats.get("highway_gates", 0.0)
    return extra


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


def compile_many(
    benchmark: str,
    array: ChipletArray,
    *,
    compilers: Sequence[str] = DEFAULT_COMPILERS,
    noise: NoiseModel = DEFAULT_NOISE,
    highway_density: int = 1,
    num_data_qubits: int | None = None,
    min_components: int = 2,
    baseline_trials: int = 1,
    seed: int = 0,
    benchmark_kwargs: dict[str, object] | None = None,
    layout: HighwayLayout | None = None,
    router: object = None,
) -> CompiledSet:
    """Compile one benchmark with every listed backend on the same array.

    Parameters
    ----------
    benchmark:
        Benchmark name: ``"QFT"``, ``"QAOA"``, ``"VQE"`` or ``"BV"``.
    array:
        The chiplet array.
    compilers:
        Registered backend names, reference first (improvements are measured
        against it).  Unknown names raise the registry's ``ValueError``.
    noise:
        Error/latency model passed to every backend.
    highway_density:
        Highway lines per chiplet per direction (Fig. 15 sweeps this); also
        determines the default circuit width.
    num_data_qubits:
        Circuit width; defaults to the number of data qubits left by the
        highway layout (the paper's convention).
    min_components:
        Aggregation threshold for highway gates (MECH-family knob).
    baseline_trials:
        Routing-trial budget for SABRE-family backends.
    seed:
        Seed for randomised benchmark inputs (QAOA graph, BV secret, VQE
        parameters), also offered to every backend's ``configure``.
    benchmark_kwargs:
        Extra arguments forwarded to the benchmark circuit builder.
    layout:
        A pre-built highway layout for ``array`` at ``highway_density``
        (warm-state serving keeps one resident per device).  ``None`` — every
        batch caller — rebuilds it, the historic behaviour; the compiled
        output is identical either way because the layout is a pure function
        of the device configuration.
    router:
        A pre-warmed :class:`~repro.compiler.local_router.LocalRouter` for
        the same device, offered to every backend as a ``router`` knob
        (MECH-family backends reuse it, SABRE-family backends ignore it).
        Deterministic and append-only, so sharing it never changes results.
    """
    names = normalize_compilers(compilers)
    backends = {name: get_backend(name) for name in names}

    if layout is None:
        layout = HighwayLayout(array, density=highway_density)
    elif layout.array is not array or layout.density != highway_density:
        raise ValueError(
            "the supplied layout was built for a different array or highway"
            " density than this compilation requests"
        )
    width = num_data_qubits if num_data_qubits is not None else layout.num_data_qubits
    kwargs = dict(benchmark_kwargs or {})
    if benchmark.upper() in _SEEDED_BENCHMARKS:
        kwargs.setdefault("seed", seed)
    circuit = build_benchmark(benchmark, width, **kwargs)

    results: dict[str, CompilationResult] = {}
    seconds: dict[str, float] = {}
    for name in names:
        backend = backends[name].configure(
            array,
            noise=noise,
            seed=seed,
            highway_density=highway_density,
            min_components=min_components,
            baseline_trials=baseline_trials,
            # the capacity layout above is read-only during compilation, so
            # MECH-family backends reuse it instead of rebuilding their own
            layout=layout,
            router=router,
        )
        start = time.perf_counter()
        results[name] = backend.compile(circuit)
        seconds[name] = time.perf_counter() - start

    return CompiledSet(
        benchmark=benchmark,
        array=array,
        compilers=names,
        circuit_width=circuit.num_qubits,
        highway_qubit_fraction=layout.qubit_overhead(),
        backends=backends,
        results=results,
        seconds=seconds,
        source_circuit=circuit,
    )


def compare_many(
    benchmark: str,
    array: ChipletArray,
    *,
    compilers: Sequence[str] = DEFAULT_COMPILERS,
    noise: NoiseModel = DEFAULT_NOISE,
    highway_density: int = 1,
    num_data_qubits: int | None = None,
    min_components: int = 2,
    baseline_trials: int = 1,
    seed: int = 0,
    benchmark_kwargs: dict[str, object] | None = None,
) -> MultiComparisonRecord:
    """Compile with every listed backend and record the paper's metrics N-way.

    See :func:`compile_many` for the parameters.
    """
    compiled = compile_many(
        benchmark,
        array,
        compilers=compilers,
        noise=noise,
        highway_density=highway_density,
        num_data_qubits=num_data_qubits,
        min_components=min_components,
        baseline_trials=baseline_trials,
        seed=seed,
        benchmark_kwargs=benchmark_kwargs,
    )
    return compiled.record(noise, extra=backend_stat_extras(compiled))


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
