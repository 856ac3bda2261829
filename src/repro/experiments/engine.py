"""Parallel experiment-orchestration engine with on-disk result caching.

Every cell of the paper's tables and figures is a hashable job; the engine
plans a job list against an on-disk sqlite result cache, executes the misses
in-process or over leased local worker processes, keeps the run's books in a
resumable checkpoint and writes JSON/CSV artifacts.  It is six modules, one
per concern, each loaded on first use, plus two small shared ones:

* :mod:`repro.experiments.jobs` — :class:`Job`, :func:`config_key`, the
  manifest encoding, the noise items and the ``EXECUTORS`` kind registry;
* :mod:`repro.experiments.cache` — :class:`ResultCache`;
* :mod:`repro.experiments.plan` — :func:`plan_jobs`,
  :class:`ExecutionPlan` and :func:`plan_summary`;
* :mod:`repro.experiments.execute` — one job attempt
  (``_execute_keyed``), the executors, the ``_deadline`` timeout and
  :func:`load_compile_path`;
* :mod:`repro.experiments.ledger` — :class:`RunLedger`, :class:`RunReport`,
  the checkpoint and journal helpers and :func:`run_jobs_report`;
* :mod:`repro.experiments.artifacts` — :func:`write_artifacts`,
  :func:`error_row` and :func:`record_row`;
* :mod:`repro.experiments.policy` — :class:`JobPolicy` and
  :class:`JobError`, which the CLI's flags, the lease queue and the run all
  need;
* :mod:`repro.experiments.records` — the record types and their payload
  codecs (:func:`record_to_payload`, :func:`record_from_payload`).

This module re-exports their public names (PEP 562, :mod:`repro._lazy`), so
``from repro.experiments.engine import Job, ResultCache`` loads the job and
cache modules only: a sweep's set-up never compiles the run loop or the
executors, a fully cached run never loads the executors, and nothing loads
the chaos runtime unless ``REPRO_CHAOS`` is set.  Private names are imported
from their own module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "CACHE_VERSION": ".jobs",
    "EXECUTORS": ".jobs",
    "SCALE_TIERS": ".jobs",
    "Job": ".jobs",
    "config_key": ".jobs",
    "job_from_dict": ".jobs",
    "job_to_dict": ".jobs",
    "noise_from_items": ".jobs",
    "noise_to_items": ".jobs",
    "ResultCache": ".cache",
    "ExecutionPlan": ".plan",
    "plan_jobs": ".plan",
    "plan_summary": ".plan",
    "VERIFY_ENV": ".execute",
    "JobExecutionError": ".execute",
    "JobTimeoutError": ".execute",
    "load_compile_path": ".execute",
    "CHECKPOINT_VERSION": ".ledger",
    "Checkpoint": ".ledger",
    "CheckpointError": ".ledger",
    "FarmAbortedError": ".ledger",
    "RunLedger": ".ledger",
    "RunReport": ".ledger",
    "append_journal": ".ledger",
    "checkpoint_document": ".ledger",
    "journal_path_for": ".ledger",
    "load_checkpoint": ".ledger",
    "quarantine_checkpoint": ".ledger",
    "quarantine_path_for": ".ledger",
    "read_journal": ".ledger",
    "repair_journal": ".ledger",
    "run_jobs": ".ledger",
    "run_jobs_report": ".ledger",
    "error_row": ".artifacts",
    "record_row": ".artifacts",
    "write_artifacts": ".artifacts",
    "JobError": ".policy",
    "JobPolicy": ".policy",
    "record_from_payload": ".records",
    "record_to_payload": ".records",
}
__all__ = [
    "CACHE_VERSION",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "EXECUTORS",
    "ExecutionPlan",
    "FarmAbortedError",
    "Job",
    "JobError",
    "JobExecutionError",
    "JobPolicy",
    "JobTimeoutError",
    "ResultCache",
    "RunLedger",
    "RunReport",
    "SCALE_TIERS",
    "VERIFY_ENV",
    "append_journal",
    "checkpoint_document",
    "config_key",
    "error_row",
    "job_from_dict",
    "job_to_dict",
    "journal_path_for",
    "load_checkpoint",
    "load_compile_path",
    "noise_from_items",
    "noise_to_items",
    "plan_jobs",
    "plan_summary",
    "quarantine_checkpoint",
    "quarantine_path_for",
    "read_journal",
    "record_from_payload",
    "record_row",
    "record_to_payload",
    "repair_journal",
    "run_jobs",
    "run_jobs_report",
    "write_artifacts",
]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .artifacts import error_row, record_row, write_artifacts
    from .cache import ResultCache
    from .execute import VERIFY_ENV, JobExecutionError, JobTimeoutError, load_compile_path
    from .jobs import (
        CACHE_VERSION,
        EXECUTORS,
        SCALE_TIERS,
        Job,
        config_key,
        job_from_dict,
        job_to_dict,
        noise_from_items,
        noise_to_items,
    )
    from .ledger import (
        CHECKPOINT_VERSION,
        Checkpoint,
        CheckpointError,
        FarmAbortedError,
        RunLedger,
        RunReport,
        append_journal,
        checkpoint_document,
        journal_path_for,
        load_checkpoint,
        quarantine_checkpoint,
        quarantine_path_for,
        read_journal,
        repair_journal,
        run_jobs,
        run_jobs_report,
    )
    from .plan import ExecutionPlan, plan_jobs, plan_summary
    from .policy import JobError, JobPolicy
    from .records import record_from_payload, record_to_payload
