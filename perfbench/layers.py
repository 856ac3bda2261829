"""Layer-by-layer replay of a job, with one span around each layer call.

The replay calls the layers' public functions in the order the engine's
per-job executor uses them (device, circuit, each backend's configure and
compile, metrics, payload encoding), so its output is the record the engine
would produce and is checked against the same pinned reference.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis import verify_compilation
from repro.backends import get_backend
from repro.experiments.engine import (
    Job,
    ResultCache,
    plan_jobs,
    record_from_payload,
    record_to_payload,
    write_artifacts,
)
from repro.experiments.runner import CompiledSet, backend_stat_extras
from repro.hardware.array import ChipletArray
from repro.highway.layout import HighwayLayout
from repro.perf.timers import phase_breakdown
from repro.programs import build_benchmark

from .spans import Tracer
from .workloads import job_label

__all__ = ["BACKEND_LAYER", "build_device", "replay_job", "replay_engine_pass", "verify_compiled"]

#: The layer a backend's compile belongs to.
BACKEND_LAYER = {"baseline": "baseline", "mech": "compiler"}

#: Benchmarks whose circuit builder takes the job seed (as the runner does).
_SEEDED = ("QAOA", "VQE", "BV")


def build_device(tracer: Tracer, job: Job, label: str) -> tuple[ChipletArray, HighwayLayout]:
    with tracer.span("hardware.array", label):
        array = ChipletArray(
            job.structure,
            job.chiplet_width,
            job.rows,
            job.cols,
            cross_links_per_edge=job.cross_links_per_edge,
        )
    with tracer.span("highway.layout", label):
        layout = HighwayLayout(array, density=job.highway_density)
    return array, layout


def replay_job(
    tracer: Tracer, job: Job, *, state: object = None
) -> tuple[CompiledSet, dict[str, object]]:
    """Compile ``job`` layer by layer; returns the compiled set and payload.

    ``state`` is a warm device state (``array``/``layout``/``router``), as a
    compile server hands to its jobs; without one the device is built.
    """
    label = job_label(job)
    with tracer.span("job", label):
        if state is None:
            array, layout = build_device(tracer, job, label)
            router = None
        else:
            array, layout, router = state.array, state.layout, state.router
        width = job.num_data_qubits if job.num_data_qubits is not None else layout.num_data_qubits
        kwargs = dict(job.benchmark_kwargs)
        if job.benchmark.upper() in _SEEDED:
            kwargs.setdefault("seed", job.seed)
        with tracer.span("programs.build", label):
            circuit = build_benchmark(job.benchmark, width, **kwargs)
        noise = job.noise_model()
        backends, results, seconds = {}, {}, {}
        for name in job.compilers:
            with tracer.span("backends.configure", label, backend=name):
                backends[name] = get_backend(name).configure(
                    array,
                    noise=noise,
                    seed=job.seed,
                    highway_density=job.highway_density,
                    min_components=job.min_components,
                    baseline_trials=job.baseline_trials,
                    layout=layout,
                    router=router,
                )
            with tracer.span(f"{BACKEND_LAYER.get(name, name)}.compile", label) as args:
                start = time.perf_counter()
                results[name] = backends[name].compile(circuit)
                seconds[name] = time.perf_counter() - start
                args.update(
                    {f"phase_{k}_s": v for k, v in phase_breakdown(results[name].stats).items()}
                )
        with tracer.span("metrics.eval", label):
            for result in results.values():
                result.metrics(noise)
        compiled = CompiledSet(
            benchmark=job.benchmark,
            array=array,
            compilers=tuple(job.compilers),
            circuit_width=circuit.num_qubits,
            highway_qubit_fraction=layout.qubit_overhead(),
            backends=backends,
            results=results,
            seconds=seconds,
            source_circuit=circuit,
        )
        record = compiled.comparison_record(noise, extra=backend_stat_extras(compiled))
        with tracer.span("experiments.payload", label):
            payload = record_to_payload(record)
    return compiled, payload


def replay_engine_pass(
    tracer: Tracer,
    jobs: Sequence[Job],
    cache_dir: Path | None,
    artifacts_dir: Path | None,
) -> dict[str, dict[str, object]]:
    """One engine pass replayed: plan, cache lookups, compile misses, put,
    decode records, write artifacts.  Returns payloads keyed by job label.

    ``plan_jobs`` runs without a cache and each lookup it would make is a
    separate ``experiments.cache_get`` span, so planning and cache reads are
    told apart.
    """
    store = ResultCache(cache_dir) if cache_dir is not None else None
    with tracer.span("experiments.plan"):
        plan = plan_jobs(jobs)
    payloads: dict[str, dict[str, object]] = {}
    by_key: dict[str, dict[str, object]] = {}
    for key, job in plan.unique.items():
        label = job_label(job)
        hit = None
        if store is not None:
            with tracer.span("experiments.cache_get", label) as args:
                hit = store.get(key)
                args["hit"] = hit is not None
        if hit is None:
            _, hit = replay_job(tracer, job)
            if store is not None:
                with tracer.span("experiments.cache_put", label):
                    store.put(key, job, hit)
        by_key[key] = hit
        payloads[label] = hit
    records = []
    for job, key in zip(plan.jobs, plan.keys, strict=True):
        with tracer.span("experiments.payload", job_label(job)):
            records.append(record_from_payload(by_key[key]))
    if artifacts_dir is not None:
        with tracer.span("experiments.artifacts"):
            write_artifacts("sweep-cache", records, artifacts_dir)
    return payloads


def verify_compiled(tracer: Tracer, label: str, compiled: CompiledSet) -> dict[str, list[str]]:
    """Verify every backend output of one job; returns the rejected ones as
    ``{backend: sorted rule/code list}``."""
    rejected: dict[str, list[str]] = {}
    for name in compiled.compilers:
        with tracer.span("analysis.verify", label, backend=name):
            report = verify_compilation(compiled.source_circuit, compiled.results[name])
        if not report.ok:
            rejected[name] = sorted({f"{v.rule}/{v.code}" for v in report.violations})
    return rejected
