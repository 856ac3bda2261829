"""Shared experiment runner: compile one benchmark with N registered compiler
backends and collect the paper's metrics.

Every table/figure module builds on :func:`compile_many`: it constructs the
benchmark circuit sized to the highway configuration's data-qubit count (the
paper sizes its circuits "by the numbers of data qubits in our framework"),
compiles it with every requested backend resolved through the
:mod:`repro.backends` registry, and returns a :class:`CompiledSet` from which
records are assembled.  The first listed compiler is the *reference*: every
improvement ratio and normalised metric is computed against it.

The record shapes, the compiler-list helpers and the text tables live in
:mod:`repro.experiments.records`, which imports no compiler; this module
re-exports them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

from ..backends import DEFAULT_COMPILERS, CompilerBackend, get_backend
from ..circuits.circuit import Circuit
from ..compiler import CompilationResult
from ..hardware.array import ChipletArray
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..highway.layout import HighwayLayout
from ..programs import build_benchmark
from .records import (
    AnyRecord,
    ComparisonRecord,
    MultiComparisonRecord,
    format_failed_rows,
    format_multi_records,
    format_records,
    normalize_compilers,
    primary_compiler,
    resolve_compilers,
)

__all__ = [
    "AnyRecord",
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
