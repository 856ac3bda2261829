"""The lease-based work queue every job attempt is handed out from.

A :class:`LeaseQueue` owns the pending half of an
:class:`~repro.experiments.engine.ExecutionPlan`: each unique config key is
one entry that moves ``pending → leased → completed | failed`` (and back to
``pending`` on a retriable failure or an expired lease).  All transitions are
made under one lock, so any number of coordinator connection threads can
claim/complete/fail/heartbeat concurrently.

The invariant the whole farm's crash story rests on: **an entry starts at
most ``policy.retries + 1`` attempts, ever** — no matter how attempts end
(worker-reported failure, lease expiry after a SIGKILL, or both for the same
attempt).  ``attempts_started`` increments exactly once per claim, expiry
preserves it, and both :meth:`fail` and :meth:`expire` consult it before
re-queueing, so a job can never execute past its :class:`JobPolicy` budget.
Only the queue counts attempts and reseeds a retry: a :class:`Lease` carries
a single-attempt policy, and a permanent failure's :class:`JobError` counts
every attempt started and sums the reported attempts' seconds.

Late results are welcome: a worker presumed dead (lease expired, job
re-leased) that eventually reports ``complete`` delivers a deterministic,
fully valid record — the queue accepts it idempotently and the re-leased
attempt's own completion becomes a no-op.

An in-process run fills the queue once, from its plan, with leases that
never expire, and claims and executes each job in the calling thread.  A
farm run fills it the same way and serves it to workers over the wire.
``repro serve`` adds an entry per cache miss while serving
(:meth:`LeaseQueue.add`, single-flight per key) and drops it again
(:meth:`LeaseQueue.forget`) once the key's requests have their answer, so a
long-lived server holds only live entries.  A claim may wait on the queue's
condition for work to appear, so idle workers pick up new and re-queued
entries at once.  The module imports no wire code (that is
:mod:`repro.farm.schema`), so an in-process run loads it alone.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import Any

from ..experiments.engine import Job, JobError, JobPolicy, job_to_dict

__all__ = ["LEASE_SECONDS", "Lease", "LeaseQueue", "QueueEntry"]

#: The default lease/heartbeat horizon: a worker silent this long forfeits
#: its leases.
LEASE_SECONDS = 15.0

PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
FAILED = "failed"


@dataclass(frozen=True)
class Lease:
    """One leased unit of work, as carried in a ``claim`` response."""

    #: The job's engine config key (also the result-cache key).
    key: str
    #: The job in manifest encoding (seed already bumped on re-attempts).
    job: dict[str, Any]
    #: 0-based attempt index; ``attempt + 1`` counts against ``retries + 1``.
    attempt: int
    #: Single-attempt policy dict the executor passes to ``_execute_keyed``;
    #: only its ``timeout`` takes effect there.
    policy: dict[str, Any]
    #: Unix time after which the lease expires without a heartbeat.
    deadline_unix: float

    def to_dict(self) -> dict[str, Any]:
        """The wire encoding; :func:`repro.farm.schema.parse_lease` reads it."""
        return dict(vars(self))


@dataclass
class QueueEntry:
    """One unique job's queue state."""

    key: str
    job: Job
    state: str = PENDING
    #: Claims handed out so far; bounded by ``policy.retries + 1``.
    attempts_started: int = 0
    #: The live lease's holder and deadline (meaningful while leased).
    worker: str | None = None
    deadline: float = 0.0
    error: JobError | None = None
    #: Seconds reported by the attempts that failed, summed.
    seconds: float = 0.0
    #: The entry's own budget; ``None`` means the queue's policy.
    policy: JobPolicy | None = None


class LeaseQueue:
    """Thread-safe lease bookkeeping over a plan's pending jobs."""

    def __init__(
        self,
        pending: Mapping[str, Job],
        *,
        policy: JobPolicy | None = None,
        lease_seconds: float = LEASE_SECONDS,
    ) -> None:
        if not (lease_seconds > 0):
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.policy = policy if policy is not None else JobPolicy()
        self.lease_seconds = float(lease_seconds)
        self._entries: dict[str, QueueEntry] = {
            key: QueueEntry(key=key, job=job) for key, job in pending.items()
        }
        # every transition notifies, so a waiting claim wakes at once
        self._lock = threading.Condition(threading.RLock())

    def _policy(self, entry: QueueEntry) -> JobPolicy:
        return entry.policy if entry.policy is not None else self.policy

    def _worker_policy(self, entry: QueueEntry) -> dict[str, Any]:
        # single attempt, report-don't-raise: the queue owns the budget
        single = replace(self._policy(entry), retries=0, reseed_on_retry=False, on_error="record")
        return single.to_dict()

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #
    def add(self, key: str, job: Job, *, policy: JobPolicy | None = None) -> QueueEntry:
        """Queue ``job`` under ``key`` while serving; returns its entry.

        Single-flight: a key that is already pending or leased returns the
        existing entry (its job and policy stand), so every request for it
        shares one execution.  A finished key starts over as a fresh entry
        at the back of the queue.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.state in (PENDING, LEASED):
                return entry
            self._entries.pop(key, None)
            entry = self._entries[key] = QueueEntry(key=key, job=job, policy=policy)
            self._lock.notify_all()
            return entry

    def claim(
        self,
        worker_id: str,
        max_jobs: int,
        *,
        wait: float = 0.0,
        rank: Callable[[Job], int | None] | None = None,
    ) -> list[Lease]:
        """Hand out up to ``max_jobs`` leases, oldest entry first.

        Expired leases are reclaimed first (opportunistically — the expiry
        thread does the same on its own cadence), so a claim arriving just
        after a worker died can pick its jobs straight back up.  With
        nothing to hand out, the claim waits up to ``wait`` seconds for the
        next transition and tries once more, without reclaiming: an expiry
        the caller did not see must not happen during a wait.  ``rank`` orders the pending
        entries for this claimer (lower first, insertion order breaking
        ties); an entry it ranks ``None`` is left for another worker.
        """
        with self._lock:
            now = time.time()
            self.expire(now=now)
            leases = self._claim(worker_id, max_jobs, now, rank)
            if not leases and wait > 0:
                self._lock.wait(wait)
                leases = self._claim(worker_id, max_jobs, time.time(), rank)
            return leases

    def _claim(
        self,
        worker_id: str,
        max_jobs: int,
        now: float,
        rank: Callable[[Job], int | None] | None,
    ) -> list[Lease]:
        pending = [entry for entry in self._entries.values() if entry.state == PENDING]
        if rank is not None:
            ranked = [(rank(entry.job), index) for index, entry in enumerate(pending)]
            pending = [pending[index] for _, index in sorted(
                (r, index) for r, index in ranked if r is not None
            )]
        leases: list[Lease] = []
        for entry in pending[: max(1, max_jobs)]:
            attempt = entry.attempts_started
            entry.attempts_started += 1
            entry.state = LEASED
            entry.worker = worker_id
            entry.deadline = now + self.lease_seconds
            job = entry.job
            if attempt and self._policy(entry).reseed_on_retry:
                # the queue reseeds: the result still lands under the
                # original config key (the lease's ``key``)
                job = job.with_(seed=job.seed + attempt)
            leases.append(
                Lease(
                    key=entry.key,
                    job=job_to_dict(job),
                    attempt=attempt,
                    policy=self._worker_policy(entry),
                    deadline_unix=entry.deadline,
                )
            )
        return leases

    def complete(self, key: str, worker_id: str) -> bool:
        """Mark ``key`` done; True when the result should be kept.

        Accepts a completion from *any* worker that ever held the key — a
        presumed-dead worker's late result is deterministic and valid, and
        salvaging it may even rescue an entry already marked failed.  A
        duplicate completion is an idempotent no-op (returns False so the
        caller does not double-store).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.state == COMPLETED:
                return False
            entry.state = COMPLETED
            self._lock.notify_all()
            return True

    def fail(self, key: str, worker_id: str, error: JobError) -> bool:
        """Record one failed attempt; True when the job was re-queued.

        A failure from a worker that no longer holds the lease (it expired
        and the job was re-leased or resolved meanwhile) is stale and
        ignored — the live attempt decides the entry's fate.  The permanent
        failure keeps the last attempt's error, with ``attempts`` counting
        every attempt started and ``seconds`` summed over the reported ones.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.state in (COMPLETED, FAILED):
                return False
            if entry.state == LEASED and entry.worker != worker_id:
                return False  # stale report from an expired lease
            self._lock.notify_all()
            entry.seconds += error.seconds
            return self._end_attempt(entry, error)

    def _end_attempt(self, entry: QueueEntry, error: JobError) -> bool:
        """Re-queue ``entry`` while its budget lasts (True), else fail it
        with ``error``, counting every attempt started and the seconds of
        the reported ones."""
        if entry.attempts_started < self._policy(entry).retries + 1:
            entry.state = PENDING
            return True
        entry.state = FAILED
        entry.error = replace(
            error, key=entry.key, attempts=entry.attempts_started, seconds=entry.seconds
        )
        return False

    def forget(self, key: str) -> None:
        """Drop ``key``'s entry if it is completed or failed.

        A pending or leased entry (a fresh request for the key) stays.  A
        late ``complete`` or ``fail`` for a forgotten key is a no-op.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.state in (COMPLETED, FAILED):
                del self._entries[key]

    def heartbeat(self, worker_id: str, keys: list[str], *, now: float | None = None) -> int:
        """Extend the deadlines of ``worker_id``'s live leases; returns the count."""
        now = time.time() if now is None else now
        extended = 0
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry.state == LEASED and entry.worker == worker_id:
                    entry.deadline = now + self.lease_seconds
                    extended += 1
        return extended

    def expire(self, *, now: float | None = None) -> list[tuple[str, str]]:
        """Reclaim every lease past its deadline.

        Each expired entry either returns to the queue (attempt budget left —
        the count is *preserved*, exactly as if the worker had reported the
        failure itself) or fails permanently with a synthesized "worker lost"
        :class:`JobError`.  Returns ``(key, "requeued" | "failed")`` pairs.
        """
        now = time.time() if now is None else now
        transitions: list[tuple[str, str]] = []
        with self._lock:
            for entry in self._entries.values():
                if entry.state != LEASED or entry.deadline >= now:
                    continue
                lost = JobError(
                    key=entry.key,
                    benchmark=entry.job.benchmark,
                    kind=entry.job.kind,
                    error_type="WorkerLostError",
                    message=(
                        f"lease expired (worker {entry.worker} missed its heartbeat)"
                        f" after {entry.attempts_started} attempt(s)"
                    ),
                    traceback_tail="",
                    attempts=entry.attempts_started,
                    seconds=entry.seconds,
                )
                outcome = "requeued" if self._end_attempt(entry, lost) else "failed"
                transitions.append((entry.key, outcome))
            if transitions:
                self._lock.notify_all()
        return transitions

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        with self._lock:
            return all(e.state in (COMPLETED, FAILED) for e in self._entries.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts = {PENDING: 0, LEASED: 0, COMPLETED: 0, FAILED: 0}
            for entry in self._entries.values():
                counts[entry.state] += 1
            return counts

    def failed_errors(self) -> list[JobError]:
        with self._lock:
            return [e.error for e in self._entries.values() if e.state == FAILED and e.error]

    def entry_state(self, key: str) -> str | None:
        with self._lock:
            entry = self._entries.get(key)
            return entry.state if entry is not None else None

    def __len__(self) -> int:
        return len(self._entries)
