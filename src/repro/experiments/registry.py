"""Registry of the paper's experiments and their one driver.

Each :class:`ExperimentSpec` bundles an experiment's jobs builder (pure
configuration: scale preset -> engine jobs) with its text formatter.
:func:`run_experiment` is the only experiment driver — the ``python -m
repro`` CLI and the benchmark suite both call it::

    records, report = run_experiment("fig12", scale="small", workers=2)
    print(get_experiment("fig12").format_records(records))

It also owns :func:`experiment_meta`, the checkpoint header that names the
experiment so ``repro resume`` can finish it; the engine below stays
experiment-agnostic.  A custom sweep (overriding a builder's device or
parameter defaults) is ``run_jobs(jobs_for_fig12(array_shapes=...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Sequence

from .engine import (
    ExecutionPlan,
    Job,
    JobPolicy,
    ResultCache,
    RunReport,
    plan_jobs,
    run_jobs_report,
)
from .fig12_scalability import format_fig12, jobs_for_fig12
from .fig13_sensitivity import format_fig13, jobs_for_fig13, sensitivity_results_from_records
from .fig14_sparsity import format_fig14, jobs_for_fig14
from .fig15_highway_density import format_fig15, jobs_for_fig15
from .fig16_structures import format_fig16, jobs_for_fig16
from .runner import AnyRecord, resolve_compilers
from .table2 import format_table2, jobs_for_table2

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "build_experiment_jobs",
    "experiment_meta",
    "get_experiment",
    "plan_experiment",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible figure/table of the paper's evaluation."""

    name: str
    title: str
    #: Expands a scale preset into engine jobs.  Accepts at least the keyword
    #: arguments ``scale``, ``benchmarks``, ``seed`` and ``compilers``.
    build_jobs: Callable[..., list[Job]]
    #: Renders the experiment's records as the paper-style text table.
    format_records: Callable[[Sequence[AnyRecord]], str]


def _format_fig13_records(records: Sequence[AnyRecord]) -> str:
    return format_fig13(sensitivity_results_from_records(records))


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "table2",
            "Table 2: baseline vs MECH on square-chiplet arrays",
            jobs_for_table2,
            format_table2,
        ),
        ExperimentSpec(
            "fig12",
            "Fig. 12: improvement vs number of chiplets",
            jobs_for_fig12,
            format_fig12,
        ),
        ExperimentSpec(
            "fig13",
            "Fig. 13: sensitivity to measurement latency and fidelities",
            jobs_for_fig13,
            _format_fig13_records,
        ),
        ExperimentSpec(
            "fig14",
            "Fig. 14: sensitivity to cross-chip link sparsity",
            jobs_for_fig14,
            format_fig14,
        ),
        ExperimentSpec(
            "fig15",
            "Fig. 15: sensitivity to the highway qubit percentage",
            jobs_for_fig15,
            format_fig15,
        ),
        ExperimentSpec(
            "fig16",
            "Fig. 16: generality across coupling structures",
            jobs_for_fig16,
            format_fig16,
        ),
    )
}


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment by name with a helpful error."""
    try:
        return EXPERIMENTS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from exc


def experiment_meta(
    name: str,
    *,
    scale: str = "small",
    benchmarks: Sequence[str] | None = None,
    seed: int = 0,
    cache: None | str | Path | ResultCache = None,
    compilers: Sequence[str] | None = None,
) -> dict[str, object]:
    """The checkpoint/artifact metadata header for one experiment run.

    Stored verbatim in the checkpoint's ``meta`` field, this is what lets
    ``repro resume`` recover the experiment (and thus its formatter), reuse
    the original cache directory and compiler list, and write artifacts with
    the same metadata an uninterrupted run would.  ``compilers=None``
    records the default pair (the jobs themselves carry the authoritative
    per-job list either way).
    """
    get_experiment(name)  # fail early on unknown names
    if isinstance(cache, ResultCache):
        cache_dir: str | None = str(cache.cache_dir)
    else:
        cache_dir = str(cache) if cache is not None else None
    return {
        "experiment": name,
        "scale": scale,
        "benchmarks": list(benchmarks) if benchmarks is not None else None,
        "seed": seed,
        "cache_dir": cache_dir,
        "compilers": list(resolve_compilers(compilers)),
    }


def build_experiment_jobs(
    name: str,
    *,
    scale: str = "small",
    benchmarks: Sequence[str] | None = None,
    seed: int = 0,
    compilers: Sequence[str] | None = None,
) -> list[Job]:
    """Expand one registered experiment's scale preset into engine jobs.

    ``compilers`` threads the backend list (reference first) into every job;
    ``None`` keeps the default baseline-vs-MECH pair.
    """
    spec = get_experiment(name)
    kwargs: dict[str, object] = {"scale": scale, "seed": seed}
    if benchmarks is not None:
        kwargs["benchmarks"] = list(benchmarks)
    if compilers is not None:
        kwargs["compilers"] = list(compilers)
    return spec.build_jobs(**kwargs)


def plan_experiment(
    name: str,
    *,
    scale: str = "small",
    benchmarks: Sequence[str] | None = None,
    seed: int = 0,
    cache: None | str | Path | ResultCache = None,
    compilers: Sequence[str] | None = None,
) -> ExecutionPlan:
    """Expand one experiment and plan it against the cache without executing.

    This is the ``repro run --dry-run`` entry point: the plan's
    cached/pending split is exactly what :func:`run_experiment` with the same
    arguments would do, and a preview leaves the cache's LRU state
    untouched.
    """
    jobs = build_experiment_jobs(
        name, scale=scale, benchmarks=benchmarks, seed=seed, compilers=compilers
    )
    return plan_jobs(jobs, cache=cache)


def run_experiment(
    name: str,
    *,
    scale: str = "small",
    benchmarks: Sequence[str] | None = None,
    seed: int = 0,
    workers: int = 1,
    cache: None | str | Path | ResultCache = None,
    policy: JobPolicy | None = None,
    checkpoint: None | str | Path = None,
    progress: Callable[[str], None] | None = None,
    compilers: Sequence[str] | None = None,
) -> tuple[list[AnyRecord], RunReport]:
    """Build and execute one registered experiment end to end.

    The one driver shared by the CLI and the harnesses: expands the
    scale preset into jobs (each carrying the requested compiler list) and
    runs them through the engine with the given fault-tolerance ``policy``
    and ``checkpoint`` file.  Returns the records (healthy jobs only —
    failures are in ``report.errors``) and the report.
    """
    jobs = build_experiment_jobs(
        name, scale=scale, benchmarks=benchmarks, seed=seed, compilers=compilers
    )
    return run_jobs_report(
        jobs,
        workers=workers,
        cache=cache,
        policy=policy,
        checkpoint=checkpoint,
        checkpoint_meta=experiment_meta(
            name, scale=scale, benchmarks=benchmarks, seed=seed, cache=cache,
            compilers=compilers,
        ),
        progress=progress,
    )
