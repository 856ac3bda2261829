"""One run's books: the checkpoint, the journal, the ledger and the run loop.

:func:`run_jobs_report` plans a job list (:mod:`repro.experiments.plan`),
executes the cache misses and reassembles the records in job order.  With
``workers <= 1`` it drains a :class:`~repro.farm.queue.LeaseQueue` in the
calling thread; with ``workers > 1`` it serves the queue to forked local
workers through the compile farm.  Either way a :class:`RunLedger` keeps the
books: it caches each completion, mirrors the queue's failures, writes the
checkpoint (schema version :data:`CHECKPOINT_VERSION`, the full job list
included, so :func:`load_checkpoint` can resume an interrupted sweep without
re-expanding the experiment) and builds the :class:`RunReport`.  The farm
coordinator additionally appends every lease transition to a delta journal
(:func:`append_journal`) beside the checkpoint.

A fully cached run loads neither the executors nor the lease queue: both
load with the first job that has to run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..chaos import active_controller
from .cache import ResultCache, _coerce_cache
from .jobs import Job, config_key, job_from_dict, job_to_dict
from .plan import plan_jobs
from .policy import JobError, JobPolicy
from .records import AnyRecord, record_from_payload

if TYPE_CHECKING:
    from ..farm.queue import LeaseQueue

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "FarmAbortedError",
    "RunLedger",
    "RunReport",
    "append_journal",
    "checkpoint_document",
    "journal_path_for",
    "load_checkpoint",
    "quarantine_checkpoint",
    "quarantine_path_for",
    "read_journal",
    "repair_journal",
    "run_jobs",
    "run_jobs_report",
]


@dataclass
class RunReport:
    """What one :func:`run_jobs_report` call did."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    workers: int = 1
    seconds: float = 0.0
    #: Jobs that exhausted every attempt (one :class:`JobError` each).
    failed: int = 0
    errors: list[JobError] = field(default_factory=list)
    #: Corrupt cache entries discovered (and dropped) during this run.
    corrupt_entries: int = 0
    #: True when the dispatch loop was cut short by ``KeyboardInterrupt``.
    interrupted: bool = False
    #: Cache writes that failed at the filesystem during this run (the
    #: cache degraded to pass-through; results stayed in memory).
    cache_write_errors: int = 0
    #: Latched when any cache write degraded during this run.
    cache_degraded: bool = False
    #: Checkpoint compactions that failed at the filesystem.
    checkpoint_write_errors: int = 0
    #: Responses replayed from the transport dedup log (request retries
    #: that were answered without re-executing the op).
    transport_replays: int = 0

    def summary(self) -> str:
        extras = ""
        if self.failed:
            extras += f", {self.failed} failed"
        if self.corrupt_entries:
            extras += f", {self.corrupt_entries} corrupt cache entr"
            extras += "y dropped" if self.corrupt_entries == 1 else "ies dropped"
        if self.cache_degraded:
            extras += (
                f", cache degraded to pass-through"
                f" ({self.cache_write_errors} write error"
                f"{'s' if self.cache_write_errors != 1 else ''})"
            )
        if self.checkpoint_write_errors:
            extras += f", {self.checkpoint_write_errors} checkpoint write error"
            extras += "s" if self.checkpoint_write_errors != 1 else ""
        if self.transport_replays:
            extras += f", {self.transport_replays} retried request"
            extras += "s replayed" if self.transport_replays != 1 else " replayed"
        return (
            f"{self.total} jobs: {self.cache_hits} cached, {self.executed} executed"
            f"{extras}"
            f" ({self.workers} worker{'s' if self.workers != 1 else ''},"
            f" {self.seconds:.1f}s)"
        )


#: Version 2 made checkpoints self-contained: the full job list (tags
#: included) is serialised, so a resume re-hydrates jobs from the file alone
#: instead of re-expanding the experiment spec.  Version-1 checkpoints only
#: recorded keys and cannot be resumed.
CHECKPOINT_VERSION = 2

#: Minimum interval between routine (non-forced) checkpoint flushes.
_CHECKPOINT_FLUSH_SECONDS = 1.0


def _atomic_write_json(path: Path, document: Mapping[str, object]) -> None:
    chaos = active_controller()
    # no indent: an indented dump runs the pure-Python encoder, this one the C one
    data = (json.dumps(document, separators=(",", ":")) + "\n").encode("utf-8")
    if chaos is not None:
        chaos.on_fs_op("checkpoint", str(path))
        # a torn-tail clause simulates a non-atomic writer dying mid-write:
        # the truncated document still lands (tmp + rename), so readers see
        # a syntactically broken file exactly as a crashed plain write(2)
        # would have left it
        data = chaos.checkpoint_payload(str(path), data)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def checkpoint_document(
    *,
    finished: bool,
    interrupted: bool,
    meta: Mapping[str, object] | None,
    total_jobs: int,
    cache_hits: int,
    cached_keys: Sequence[str],
    completed_keys: Sequence[str],
    failed: Sequence[JobError],
    pending_entries: Sequence[Mapping[str, object]],
    serialized_jobs: Sequence[Mapping[str, object]],
) -> dict[str, object]:
    """The checkpoint-schema-v2 document :meth:`RunLedger.flush` writes."""
    return {
        "checkpoint_version": CHECKPOINT_VERSION,
        "finished": finished,
        "interrupted": interrupted,
        "meta": dict(meta) if meta else {},
        "total_jobs": total_jobs,
        "cache_hits": cache_hits,
        "cached": list(cached_keys),
        "completed": list(completed_keys),
        "failed": [asdict(error) for error in failed],
        "pending": [dict(entry) for entry in pending_entries],
        "jobs": [dict(job) for job in serialized_jobs],
    }


def journal_path_for(checkpoint_path: str | Path) -> Path:
    """The delta-journal path beside a checkpoint file.

    ``fig12.checkpoint.json`` → ``fig12.checkpoint.journal.jsonl``: same
    directory, same stem, so operators (and the CI artifact upload) find the
    journal by looking next to the checkpoint it shadows.
    """
    path = Path(checkpoint_path)
    stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    return path.with_name(f"{stem}.journal.jsonl")


def append_journal(path: str | Path, delta: Mapping[str, object]) -> None:
    """Append one state-transition delta as a compact JSON line.

    One ``O_APPEND`` write per event — atomic for these short lines on
    POSIX, so a coordinator crash can tear at most the final line (which
    :func:`read_journal` skips).  The journal is the farm's write-ahead
    record: every lease/complete/fail/expire lands here *before* the
    throttled checkpoint compaction, so a crash between flushes loses
    bookkeeping only, never results (those are already in the cache).
    """
    line = (json.dumps(dict(delta), sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )
    target = Path(path)
    chaos = active_controller()
    if chaos is not None:
        chaos.on_fs_op("journal", str(target))
        # a torn-tail clause appends only a prefix of the line — the exact
        # on-disk state a crash mid-write(2) leaves behind
        line = chaos.journal_line(str(target), line)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(target), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def read_journal(path: str | Path) -> list[dict[str, object]]:
    """Parse a delta journal, skipping a torn trailing line from a crash."""
    entries: list[dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                text = line.strip()
                if not text:
                    continue
                try:
                    entry = json.loads(text)
                except json.JSONDecodeError:
                    continue  # torn tail from a crashed appender
                if isinstance(entry, dict):
                    entries.append(entry)
    except FileNotFoundError:
        return []
    return entries


def quarantine_path_for(path: str | Path) -> Path:
    """Where a corrupt journal tail / checkpoint is preserved aside."""
    target = Path(path)
    return target.with_name(target.name + ".quarantine")


def repair_journal(path: str | Path) -> dict[str, object] | None:
    """Quarantine a torn/corrupt journal tail and truncate to the good prefix.

    A coordinator crash mid-append (or an injected ``torn-tail`` fault)
    leaves a trailing fragment that is not a complete JSON line.  This
    walks back from the end of the file past every trailing line that does
    not parse, appends those bytes to ``<journal>.quarantine`` (preserved
    as evidence, never silently discarded), and truncates the journal to
    the surviving prefix — the same prefix :func:`read_journal` would have
    parsed, now made durable so subsequent appenders do not merge their
    first line into the torn fragment.

    Returns ``None`` when the journal is healthy (or absent); otherwise a
    stats dict with the quarantined byte count and paths.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError:
        # absent (no journal was ever written) or unreadable — either way
        # there is nothing to repair here; resume proceeds on the checkpoint
        return None

    def parses(raw: bytes) -> bool:
        text = raw.strip()
        if not text:
            return True  # a blank line is harmless, not a torn tail
        try:
            return isinstance(json.loads(text.decode("utf-8")), dict)
        except (UnicodeDecodeError, ValueError):
            return False

    lines = data.split(b"\n")  # a healthy journal ends with b"" here
    index = len(lines) - 1
    while index >= 0 and not parses(lines[index]):
        index -= 1
    if index == len(lines) - 1:
        return None
    kept = lines[: index + 1]
    good = b"\n".join(kept) + b"\n" if kept else b""
    # re-terminate: kept may end with b"" (data had a trailing newline)
    if good.endswith(b"\n\n"):
        good = good[:-1]
    torn = data[len(good):]
    quarantine = quarantine_path_for(target)
    fd = os.open(str(quarantine), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, torn if torn.endswith(b"\n") else torn + b"\n")
    finally:
        os.close(fd)
    os.truncate(str(target), len(good))
    return {
        "journal": str(target),
        "quarantine": str(quarantine),
        "quarantined_bytes": len(torn),
        "kept_events": sum(1 for line in kept if line.strip()),
    }


def quarantine_checkpoint(path: str | Path) -> Path:
    """Move a corrupt checkpoint aside to ``<path>.quarantine`` and return
    the quarantine path (the evidence is preserved, the slot is freed)."""
    target = Path(path)
    quarantine = quarantine_path_for(target)
    os.replace(target, quarantine)
    return quarantine


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed or not resumable."""


@dataclass
class Checkpoint:
    """A parsed, validated ``<name>.checkpoint.json`` file.

    ``jobs`` is the run's *full* original job list (order, duplicates and
    tags preserved), so re-running it through the engine against the same
    cache reproduces the uninterrupted run's records exactly: completed jobs
    are cache hits, only the pending/failed remainder executes.
    """

    path: Path
    version: int
    finished: bool
    interrupted: bool
    meta: dict[str, object]
    jobs: list[Job]
    #: Keys served from the cache when the checkpointed run planned itself.
    cached_keys: frozenset
    #: Keys the checkpointed run executed to completion (and cached).
    completed_keys: frozenset
    failed: list[JobError]

    @property
    def failed_keys(self) -> frozenset:
        return frozenset(error.key for error in self.failed)

    def remaining_jobs(self) -> list[Job]:
        """The unique jobs the original run did not finish (pending + failed)."""
        done = self.completed_keys | self.cached_keys
        remaining: dict[str, Job] = {}
        for job in self.jobs:
            key = config_key(job)
            if key not in done and key not in remaining:
                remaining[key] = job
        return list(remaining.values())


def load_checkpoint(path: str | Path, *, quarantine: bool = False) -> Checkpoint:
    """Parse and validate a checkpoint file written by :func:`run_jobs_report`.

    Raises :class:`CheckpointError` on a missing/corrupt file, an
    un-resumable version-1 checkpoint, or jobs that no longer round-trip
    through :func:`job_from_dict` (e.g. a checkpoint from an incompatible
    release).  With ``quarantine=True`` (the ``repro resume`` path) a
    syntactically corrupt file is additionally moved aside to
    ``<path>.quarantine`` before raising, so the evidence is preserved and
    a fresh run can re-create the checkpoint without fighting the rot.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint file not found: {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        suffix = ""
        if quarantine and isinstance(exc, json.JSONDecodeError):
            with contextlib.suppress(OSError):
                suffix = f"; corrupt file preserved at {quarantine_checkpoint(path)}"
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}{suffix}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("checkpoint_version")
    if version == 1:
        raise CheckpointError(
            f"checkpoint {path} has version 1, which does not serialise its jobs"
            " and cannot be resumed; re-run the experiment once (it writes a"
            f" version-{CHECKPOINT_VERSION} checkpoint) and resume from that"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}"
            f" (this release reads version {CHECKPOINT_VERSION})"
        )
    raw_jobs = doc.get("jobs")
    if not isinstance(raw_jobs, list):
        raise CheckpointError(f"checkpoint {path} has no serialised job list")
    jobs: list[Job] = []
    for index, raw in enumerate(raw_jobs):
        try:
            jobs.append(job_from_dict(raw))
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"checkpoint {path}: job #{index} does not round-trip ({exc!r});"
                " was it written by an incompatible release?"
            ) from exc
    error_fields = {f.name for f in fields(JobError)}
    failed: list[JobError] = []
    for raw in doc.get("failed") or ():
        if not isinstance(raw, dict) or not error_fields <= set(raw):
            raise CheckpointError(f"checkpoint {path} has a malformed failed-job entry")
        failed.append(JobError(**{name: raw[name] for name in error_fields}))
    meta = doc.get("meta")
    try:
        return Checkpoint(
            path=path,
            version=int(version),
            finished=bool(doc.get("finished")),
            interrupted=bool(doc.get("interrupted")),
            meta=dict(meta) if isinstance(meta, dict) else {},
            jobs=jobs,
            cached_keys=frozenset(str(key) for key in doc.get("cached") or ()),
            completed_keys=frozenset(str(key) for key in doc.get("completed") or ()),
            failed=failed,
        )
    except (TypeError, ValueError) as exc:
        # e.g. a non-iterable cached/completed list
        raise CheckpointError(f"checkpoint {path} has malformed fields: {exc}") from exc


class RunLedger:
    """One run's bookkeeping, in process or on the farm.

    Opening a ledger plans the run (one cache lookup per unique key).  The
    in-process loop of :func:`run_jobs_report` and the farm coordinator
    report completions (:meth:`complete`) and lease-queue transitions
    (:meth:`settle`) here; the ledger writes the checkpoint, reassembles
    records in job order, builds the :class:`RunReport` and flushes on
    SIGTERM.  ``on_flush(finished)`` runs after each checkpoint write.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        *,
        cache: None | str | Path | ResultCache = None,
        checkpoint: None | str | Path = None,
        meta: Mapping[str, object] | None = None,
        on_flush: Callable[[bool], None] | None = None,
    ) -> None:
        self.store = _coerce_cache(cache)
        self._started = time.perf_counter()
        self._corrupt_base = self.store.corrupt_seen if self.store is not None else 0
        self._write_error_base = self.store.write_errors if self.store is not None else 0
        self.plan = plan_jobs(jobs, cache=self.store, refresh=True)
        #: Record payloads by config key: the cache hits, then each completion.
        self.payloads: dict[str, dict[str, object]] = dict(self.plan.payloads)
        #: Jobs that exhausted every attempt (never cached), by config key.
        self.errors: dict[str, JobError] = {}
        self.interrupted = False
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self.checkpoint_write_errors = 0
        self._meta = meta
        self._on_flush = on_flush
        self._cached_keys = sorted(self.plan.payloads)
        self._serialized_jobs = (
            [job_to_dict(job) for job in self.plan.jobs] if self.checkpoint_path else []
        )
        self._lock = threading.RLock()
        self._last_flush = 0.0
        self._trailing: threading.Timer | None = None

    def complete(self, key: str, payload: dict[str, object]) -> None:
        """Keep a finished job's payload and cache it."""
        self.payloads[key] = payload
        if self.store is not None:
            self.store.put(key, self.plan.pending[key], payload)

    def settle(self, queue: LeaseQueue, keys: Iterable[str], *, force: bool = False) -> bool:
        """After a transition of ``keys`` in ``queue``: mirror their failures
        (a late completion may rescue one), flush, and say whether the run
        is over: all finished, or a failure under ``on_error="raise"``
        (forces the flush)."""
        for key in keys:
            error = queue.failed_error(key)
            if error is None:
                self.errors.pop(key, None)
            else:
                self.errors[key] = error
        over = queue.done() or (bool(self.errors) and queue.policy.on_error == "raise")
        self.flush(force=force or over)
        return over

    def failed(self) -> list[JobError]:
        """The permanent failures, in job order."""
        return [self.errors[key] for key in self.plan.pending if key in self.errors]

    def flush(self, *, force: bool = True) -> None:
        """Write the checkpoint.  A routine flush (``force=False``) within
        :data:`_CHECKPOINT_FLUSH_SECONDS` of the last write is deferred: the
        next routine flush usually writes it, a trailing timer covers a lull."""
        if self.checkpoint_path is None:
            return
        with self._lock:
            if not force and time.monotonic() - self._last_flush < _CHECKPOINT_FLUSH_SECONDS:
                if self._trailing is None:
                    self._trailing = threading.Timer(_CHECKPOINT_FLUSH_SECONDS, self._flush_late)
                    self._trailing.daemon = True
                    self._trailing.start()
                return
            if self._trailing is not None:
                self._trailing.cancel()
                self._trailing = None
            self._last_flush = time.monotonic()
            payloads, failed = dict(self.payloads), self.failed()
            failed_keys = {error.key for error in failed}
            remaining = [
                {"key": key, "benchmark": job.benchmark, "kind": job.kind}
                for key, job in self.plan.pending.items()
                if key not in payloads and key not in failed_keys
            ]
            finished = not remaining and not self.interrupted
            document = checkpoint_document(
                finished=finished,
                interrupted=self.interrupted,
                meta=self._meta,
                total_jobs=self.plan.total,
                cache_hits=self.plan.cache_hits,
                cached_keys=self._cached_keys,
                completed_keys=[key for key in self.plan.pending if key in payloads],
                failed=failed,
                pending_entries=remaining,
                serialized_jobs=self._serialized_jobs,
            )
            try:
                _atomic_write_json(self.checkpoint_path, document)
            except OSError:
                # a full/read-only disk must not abort the sweep; only
                # resumability degrades
                self.checkpoint_write_errors += 1
                return
            if self._on_flush is not None:
                self._on_flush(finished)

    def _flush_late(self) -> None:
        with self._lock:
            if self._trailing is not None:  # else a later flush superseded it
                self.flush()

    @contextlib.contextmanager
    def interruptible(self, on_sigterm: Callable[[], None] | None = None):
        """Flush the checkpoint, marked interrupted, if the body is stopped.

        Ctrl-C flushes and re-raises.  On SIGTERM (how launchers and batch
        schedulers stop a run) a handler flushes, runs ``on_sigterm``, then
        re-delivers the signal under the default disposition so the exit
        status still says "killed by SIGTERM".  Only the main thread may
        install the handler; other threads leave the signal alone.
        """

        def on_term(signum, frame):
            self.interrupted = True
            self.flush()
            if on_sigterm is not None:
                on_sigterm()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        installed = False
        previous: Any = None
        main_thread = threading.current_thread() is threading.main_thread()
        if self.checkpoint_path is not None and main_thread:
            import signal

            with contextlib.suppress(ValueError, OSError):
                previous = signal.signal(signal.SIGTERM, on_term)
                installed = True
        try:
            yield
        except KeyboardInterrupt:
            self.interrupted = True
            self.flush()
            raise
        finally:
            if installed:
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signal.SIGTERM, previous)

    def records(self) -> list[AnyRecord]:
        """Records in original job order (tags re-applied); failed jobs are
        left out."""
        records: list[AnyRecord] = []
        for job, key in zip(self.plan.jobs, self.plan.keys, strict=True):
            payload = self.payloads.get(key)
            if payload is None:
                continue
            record = record_from_payload(payload)
            for tag, value in job.tags:
                record.extra[tag] = value
            records.append(record)
        return records

    def report(self, *, workers: int, transport_replays: int = 0) -> RunReport:
        store = self.store
        write_errors = store.write_errors - self._write_error_base if store is not None else 0
        return RunReport(
            total=self.plan.total,
            cache_hits=self.plan.cache_hits,
            executed=len(self.plan.pending),
            deduplicated=self.plan.deduplicated,
            workers=workers,
            seconds=time.perf_counter() - self._started,
            failed=len(self.errors),
            errors=self.failed(),
            corrupt_entries=store.corrupt_seen - self._corrupt_base if store is not None else 0,
            interrupted=self.interrupted,
            cache_write_errors=write_errors,
            cache_degraded=write_errors > 0,
            checkpoint_write_errors=self.checkpoint_write_errors,
            transport_replays=transport_replays,
        )


class FarmAbortedError(RuntimeError):
    """A parallel run lost every worker while work remained.

    ``checkpoint`` is the run's progress file (None when it kept none);
    ``repro resume <checkpoint>`` finishes the jobs that never completed.
    """

    def __init__(self, message: str, checkpoint: None | str | Path = None):
        super().__init__(message)
        self.checkpoint = checkpoint


def run_jobs_report(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: None | str | Path | ResultCache = None,
    progress: Callable[[str], None] | None = None,
    policy: JobPolicy | None = None,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
) -> tuple[list[AnyRecord], RunReport]:
    """Execute jobs (plan, then execute) and report what happened.

    Records come back in job order, so a parallel run is record-for-record
    identical to a serial one.  ``workers <= 1`` drains a lease queue in the
    calling thread; ``workers > 1`` serves the cache misses from the compile farm's lease
    queue to that many forked local workers (:func:`repro.farm.run_farm`),
    which heals a worker lost mid-job by lease expiry.  ``cache`` may be a
    directory path or a :class:`ResultCache`; ``None`` disables memoization
    (identical jobs are still computed only once per call).

    ``policy`` governs per-job timeouts, retries and error disposition (see
    :class:`JobPolicy`; the default re-raises the first failure).  Jobs that
    fail under ``on_error="skip"``/``"record"`` are dropped from the
    returned records and reported in :attr:`RunReport.errors`.
    ``checkpoint`` names a JSON file kept up to date with exactly which jobs
    are cached, completed, failed and pending, plus the full job list and
    the caller's ``checkpoint_meta``, so :func:`load_checkpoint` can resume
    the run after a crash, ``KeyboardInterrupt`` or SIGTERM.
    """
    policy = policy if policy is not None else JobPolicy()
    if workers > 1:
        from ..farm import coordinator as farm
        from ..farm.launcher import LocalWorkerLauncher

        return farm.run_farm(
            jobs,
            launcher=LocalWorkerLauncher(),
            workers=workers,
            cache=cache,
            policy=policy,
            lease_seconds=farm.LEASE_SECONDS,
            checkpoint=checkpoint,
            checkpoint_meta=checkpoint_meta,
            progress=progress,
        )
    ledger = RunLedger(jobs, cache=cache, checkpoint=checkpoint, meta=checkpoint_meta)
    ledger.flush()
    if not ledger.plan.pending:
        return ledger.records(), ledger.report(workers=1)
    from ..farm.queue import LeaseQueue  # loaded only when there is work
    from .execute import _execute_keyed, _raise_job_error

    # claim, execute and report in this thread; nothing here can lose a
    # job, so the leases never expire
    queue = LeaseQueue(ledger.plan.pending, policy=policy, lease_seconds=math.inf)
    finished = 0
    with ledger.interruptible():
        while lease := queue.claim("in-process"):
            key = lease.key
            _, payload = _execute_keyed((key, lease.job, lease.policy))
            job_error = payload.get("job_error")
            if isinstance(job_error, dict):
                if queue.fail(key, "in-process", JobError(**job_error)):
                    continue  # re-queued: the next claim retries it
            else:
                queue.complete(key, "in-process")
                ledger.complete(key, payload)
            ledger.settle(queue, (key,))
            finished += 1
            note = f"{finished}/{len(queue)} jobs executed"
            error = ledger.errors.get(key)
            if error is not None:
                note += f" ({error.benchmark} failed: {error.error_type})"
            if progress is not None:
                progress(note)
            if error is not None and policy.on_error == "raise":
                _raise_job_error(error)
    return ledger.records(), ledger.report(workers=1)


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: None | str | Path | ResultCache = None,
    progress: Callable[[str], None] | None = None,
    policy: JobPolicy | None = None,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
) -> list[AnyRecord]:
    """Like :func:`run_jobs_report`, returning only the records."""
    records, _ = run_jobs_report(
        jobs,
        workers=workers,
        cache=cache,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        checkpoint_meta=checkpoint_meta,
    )
    return records
