"""The planning phase: keys, cache consultation and deduplication.

:func:`plan_jobs` resolves every job's config key, consults the cache and
deduplicates, executing nothing; the resulting :class:`ExecutionPlan` is
what a real run executes, what ``repro run --dry-run`` previews
(:func:`plan_summary` renders it as stable counts) and what a resume
reconciles against its checkpoint.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ..backends.registry import available_backends
from .cache import ResultCache, _coerce_cache
from .jobs import EXECUTORS, Job, config_key

__all__ = ["ExecutionPlan", "plan_jobs", "plan_summary"]


@dataclass
class ExecutionPlan:
    """What a run would do, computed without executing anything.

    The plan phase resolves every job's config key, consults the cache and
    deduplicates — exactly the bookkeeping :func:`~repro.experiments.ledger.run_jobs_report` performs
    before dispatching — so a dry run, a resume and a real run all share one
    code path and therefore always agree on the cached/pending split.
    """

    #: The original job sequence, order and duplicates preserved.
    jobs: list[Job]
    #: Config keys, parallel to ``jobs``.
    keys: list[str]
    #: First job seen per distinct key, in first-appearance order.
    unique: dict[str, Job]
    #: Cached record payloads, keyed by config key (the cache hits).
    payloads: dict[str, dict[str, object]]
    #: Unique jobs the run would actually execute.
    pending: dict[str, Job]

    @property
    def total(self) -> int:
        return len(self.jobs)

    @property
    def cache_hits(self) -> int:
        return len(self.payloads)

    @property
    def deduplicated(self) -> int:
        return len(self.jobs) - len(self.unique)


def plan_jobs(
    jobs: Sequence[Job],
    *,
    cache: None | str | Path | ResultCache = None,
    refresh: bool = False,
) -> ExecutionPlan:
    """The pure planning phase: validate kinds, hash, consult the cache, dedupe.

    Compiles nothing, and by default mutates nothing either: the cache is
    consulted through the strictly read-only :meth:`ResultCache.peek`, so
    previewing a plan never marks entries "recently used" (which would
    defeat a TTL sweep the operator is about to run).  A real run — which
    *wants* its hits' LRU recency refreshed and corrupt entries dropped —
    passes ``refresh=True`` to consult :meth:`ResultCache.get` instead; the
    hit/miss classification is the same either way.
    """
    # eager validation MUST precede any cache consultation: a plan (and thus
    # a dry run or resume) against a misspelled kind or compiler fails loudly
    # instead of classifying bogus jobs as pending
    unknown_kinds = sorted({job.kind for job in jobs} - set(EXECUTORS))
    if unknown_kinds:
        kinds = ", ".join(repr(kind) for kind in unknown_kinds)
        raise ValueError(f"unknown job kind {kinds}; choose from {sorted(EXECUTORS)}")
    known_compilers = set(available_backends())
    unknown_compilers = sorted(
        {name for job in jobs for name in job.compilers} - known_compilers
    )
    if unknown_compilers:
        names = ", ".join(repr(name) for name in unknown_compilers)
        raise ValueError(f"unknown compiler {names}; choose from {available_backends()}")

    store = _coerce_cache(cache)
    keys = [config_key(job) for job in jobs]
    unique: dict[str, Job] = {}
    payloads: dict[str, dict[str, object]] = {}
    pending: dict[str, Job] = {}
    for job, key in zip(jobs, keys, strict=True):
        if key in unique:
            continue
        unique[key] = job
        if store is None:
            hit = None
        else:
            hit = store.get(key) if refresh else store.peek(key)
        if hit is not None:
            payloads[key] = hit
        else:
            pending[key] = job
    return ExecutionPlan(
        jobs=list(jobs), keys=keys, unique=unique, payloads=payloads, pending=pending
    )


def plan_summary(
    plan: ExecutionPlan, *, failed_keys: Sequence[str] = ()
) -> dict[str, object]:
    """Stable counts for a plan: totals plus per-kind/per-benchmark breakdowns.

    Each unique job is classified ``cached`` (served from the cache),
    ``failed`` (its key appears in ``failed_keys`` — typically a previous
    run's checkpoint — and is not cached) or ``pending``.  This dict is the
    machine-readable contract behind ``repro run --dry-run --json``.
    """
    failed = set(failed_keys)
    counts = {"cached": 0, "pending": 0, "failed": 0}
    by_kind: dict[str, dict[str, int]] = {}
    by_benchmark: dict[str, dict[str, int]] = {}
    for key, job in plan.unique.items():
        if key in plan.payloads:
            status = "cached"
        elif key in failed:
            status = "failed"
        else:
            status = "pending"
        counts[status] += 1
        for table, label in ((by_kind, job.kind), (by_benchmark, job.benchmark)):
            bucket = table.setdefault(label, {"cached": 0, "pending": 0, "failed": 0})
            bucket[status] += 1
    return {
        "total": plan.total,
        "unique": len(plan.unique),
        "duplicates": plan.deduplicated,
        **counts,
        "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
        "by_benchmark": {name: by_benchmark[name] for name in sorted(by_benchmark)},
    }
