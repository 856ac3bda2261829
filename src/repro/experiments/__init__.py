"""Reproduction harness for every table and figure of the paper's evaluation.

The experiments layer is built around the orchestration engine
(:mod:`repro.experiments.engine`, a map of its modules): every figure/table
cell is a hashable :class:`~repro.experiments.jobs.Job`, executed — optionally
in parallel and against an on-disk result cache — by
:func:`~repro.experiments.ledger.run_jobs`.
:func:`~repro.experiments.registry.run_experiment` is the one driver for a
registered figure/table; the ``python -m repro`` CLI drives the same registry,
in process or through a farm coordinator.

The names below load their submodule on first access (PEP 562): planning,
cache reads and artifact writing import no compiler, and the first executed
job imports the compile path (:func:`~repro.experiments.execute.load_compile_path`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "Checkpoint": ".ledger",
    "CheckpointError": ".ledger",
    "ExecutionPlan": ".plan",
    "Job": ".jobs",
    "JobError": ".policy",
    "JobExecutionError": ".execute",
    "JobPolicy": ".policy",
    "JobTimeoutError": ".execute",
    "ResultCache": ".cache",
    "RunReport": ".ledger",
    "SCALE_TIERS": ".jobs",
    "config_key": ".jobs",
    "load_checkpoint": ".ledger",
    "plan_jobs": ".plan",
    "plan_summary": ".plan",
    "run_jobs": ".ledger",
    "run_jobs_report": ".ledger",
    "write_artifacts": ".artifacts",
    "EXPERIMENTS": ".registry",
    "ExperimentSpec": ".registry",
    "build_experiment_jobs": ".registry",
    "experiment_meta": ".registry",
    "get_experiment": ".registry",
    "plan_experiment": ".registry",
    "run_experiment": ".registry",
    "ComparisonRecord": ".records",
    "MultiComparisonRecord": ".records",
    "format_multi_records": ".records",
    "format_records": ".records",
    "resolve_compilers": ".records",
    "CompiledSet": ".runner",
    "compare_many": ".runner",
    "compile_many": ".runner",
    "ArchitectureSetting": ".settings",
    "TABLE1_SETTINGS": ".settings",
    "TABLE2_CHIPLET_SIZES": ".settings",
    "FIG12_ARRAYS": ".settings",
    "BENCHMARK_NAMES": ".settings",
    "scaled_setting": ".settings",
    "jobs_for_table2": ".table2",
    "format_table2": ".table2",
    "TABLE2_PAPER_REFERENCE": ".table2",
    "jobs_for_fig12": ".fig12_scalability",
    "format_fig12": ".fig12_scalability",
    "improvement_series": ".fig12_scalability",
    "jobs_for_fig13": ".fig13_sensitivity",
    "format_fig13": ".fig13_sensitivity",
    "sensitivity_results_from_records": ".fig13_sensitivity",
    "SensitivityResult": ".fig13_sensitivity",
    "jobs_for_fig14": ".fig14_sparsity",
    "format_fig14": ".fig14_sparsity",
    "normalized_by_sparsity": ".fig14_sparsity",
    "jobs_for_fig15": ".fig15_highway_density",
    "format_fig15": ".fig15_highway_density",
    "normalized_by_density": ".fig15_highway_density",
    "jobs_for_fig16": ".fig16_structures",
    "format_fig16": ".fig16_structures",
    "normalized_by_structure": ".fig16_structures",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .artifacts import write_artifacts
    from .cache import ResultCache
    from .execute import JobExecutionError, JobTimeoutError
    from .jobs import SCALE_TIERS, Job, config_key
    from .ledger import (
        Checkpoint,
        CheckpointError,
        RunReport,
        load_checkpoint,
        run_jobs,
        run_jobs_report,
    )
    from .plan import ExecutionPlan, plan_jobs, plan_summary
    from .policy import JobError, JobPolicy
    from .fig12_scalability import format_fig12, improvement_series, jobs_for_fig12
    from .fig13_sensitivity import (
        SensitivityResult,
        format_fig13,
        jobs_for_fig13,
        sensitivity_results_from_records,
    )
    from .fig14_sparsity import format_fig14, jobs_for_fig14, normalized_by_sparsity
    from .fig15_highway_density import format_fig15, jobs_for_fig15, normalized_by_density
    from .fig16_structures import format_fig16, jobs_for_fig16, normalized_by_structure
    from .records import (
        ComparisonRecord,
        MultiComparisonRecord,
        format_multi_records,
        format_records,
        resolve_compilers,
    )
    from .registry import (
        EXPERIMENTS,
        ExperimentSpec,
        build_experiment_jobs,
        experiment_meta,
        get_experiment,
        plan_experiment,
        run_experiment,
    )
    from .runner import CompiledSet, compare_many, compile_many
    from .settings import (
        BENCHMARK_NAMES,
        FIG12_ARRAYS,
        TABLE1_SETTINGS,
        TABLE2_CHIPLET_SIZES,
        ArchitectureSetting,
        scaled_setting,
    )
    from .table2 import TABLE2_PAPER_REFERENCE, format_table2, jobs_for_table2
