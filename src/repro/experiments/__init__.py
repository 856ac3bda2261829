"""Reproduction harness for every table and figure of the paper's evaluation.

The experiments layer is built around the orchestration engine
(:mod:`repro.experiments.engine`): every figure/table cell is a hashable
:class:`~repro.experiments.engine.Job`, executed — optionally in parallel and
against an on-disk result cache — by :func:`~repro.experiments.engine.run_jobs`.
:func:`~repro.experiments.registry.run_experiment` is the one driver for a
registered figure/table; the ``python -m repro`` CLI drives the same registry.
"""

from .engine import (
    SCALE_TIERS,
    Checkpoint,
    CheckpointError,
    ExecutionPlan,
    Job,
    JobError,
    JobExecutionError,
    JobPolicy,
    JobTimeoutError,
    ResultCache,
    RunReport,
    config_key,
    load_checkpoint,
    plan_jobs,
    plan_summary,
    run_jobs,
    run_jobs_report,
    write_artifacts,
)
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
from .registry import (
    EXPERIMENTS,
    ExperimentSpec,
    build_experiment_jobs,
    experiment_meta,
    get_experiment,
    plan_experiment,
    run_experiment,
)
from .runner import (
    ComparisonRecord,
    CompiledSet,
    MultiComparisonRecord,
    compare_many,
    compile_many,
    format_multi_records,
    format_records,
    resolve_compilers,
)
from .settings import (
    BENCHMARK_NAMES,
    FIG12_ARRAYS,
    TABLE1_SETTINGS,
    TABLE2_CHIPLET_SIZES,
    ArchitectureSetting,
    scaled_setting,
)
from .table2 import TABLE2_PAPER_REFERENCE, format_table2, jobs_for_table2

__all__ = [
    # engine
    "Checkpoint",
    "CheckpointError",
    "ExecutionPlan",
    "Job",
    "JobError",
    "JobExecutionError",
    "JobPolicy",
    "JobTimeoutError",
    "ResultCache",
    "RunReport",
    "SCALE_TIERS",
    "config_key",
    "load_checkpoint",
    "plan_jobs",
    "plan_summary",
    "run_jobs",
    "run_jobs_report",
    "write_artifacts",
    # registry
    "EXPERIMENTS",
    "ExperimentSpec",
    "build_experiment_jobs",
    "experiment_meta",
    "get_experiment",
    "plan_experiment",
    "run_experiment",
    # runner
    "ComparisonRecord",
    "CompiledSet",
    "MultiComparisonRecord",
    "compare_many",
    "compile_many",
    "format_multi_records",
    "format_records",
    "resolve_compilers",
    # settings
    "ArchitectureSetting",
    "TABLE1_SETTINGS",
    "TABLE2_CHIPLET_SIZES",
    "FIG12_ARRAYS",
    "BENCHMARK_NAMES",
    "scaled_setting",
    # table 2
    "jobs_for_table2",
    "format_table2",
    "TABLE2_PAPER_REFERENCE",
    # figures
    "jobs_for_fig12",
    "format_fig12",
    "improvement_series",
    "jobs_for_fig13",
    "format_fig13",
    "sensitivity_results_from_records",
    "SensitivityResult",
    "jobs_for_fig14",
    "format_fig14",
    "normalized_by_sparsity",
    "jobs_for_fig15",
    "format_fig15",
    "normalized_by_density",
    "jobs_for_fig16",
    "format_fig16",
    "normalized_by_structure",
]
