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

A claim or a transition costs O(log n), not a scan of the queue: pending
entries sit in a heap keyed by their insertion position (a re-queued entry
regains its place ahead of later ones), the per-state counts and the failed
entries are kept as entries move, and the expiry scan runs only once some
live lease may be past its deadline — never for an in-process run, whose
leases last forever.  Only a ranked claim weighs every pending entry, and
it takes their minimum instead of sorting them.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import Any

from ..experiments.jobs import Job, job_to_dict
from ..experiments.policy import JobError, JobPolicy

__all__ = ["LEASE_SECONDS", "Lease", "LeaseQueue", "QueueEntry"]

#: The default lease/heartbeat horizon: a worker silent this long forfeits
#: its leases.
LEASE_SECONDS = 15.0

PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
FAILED = "failed"
STATES = (PENDING, LEASED, COMPLETED, FAILED)


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
    #: Insertion order in the queue: claims go to the lowest pending one.
    position: int = 0


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
        self._entries: dict[str, QueueEntry] = {}
        #: Entries per state, updated by every transition.
        self._counts = dict.fromkeys(STATES, 0)
        #: ``(position, key)`` of every pending entry, a min-heap; items of
        #: entries that left the pending state are skipped when popped.
        self._pending: list[tuple[int, str]] = []
        #: The failed entries, by key.
        self._failed: dict[str, QueueEntry] = {}
        self._positions = itertools.count()
        #: No live lease expires before this (a lower bound: heartbeats only
        #: push deadlines later), so ``expire`` needs no scan until then.
        self._next_deadline = math.inf
        # every transition notifies, so a waiting claim wakes at once
        self._lock = threading.Condition(threading.RLock())
        for key, job in pending.items():
            self._insert(QueueEntry(key=key, job=job))

    def _policy(self, entry: QueueEntry) -> JobPolicy:
        return entry.policy if entry.policy is not None else self.policy

    def _worker_policy(self, entry: QueueEntry) -> dict[str, Any]:
        # single attempt, report-don't-raise: the queue owns the budget
        single = replace(self._policy(entry), retries=0, reseed_on_retry=False, on_error="record")
        return single.to_dict()

    # ------------------------------------------------------------------ #
    # bookkeeping: every entry enters, moves and leaves through these
    # ------------------------------------------------------------------ #
    def _insert(self, entry: QueueEntry) -> None:
        entry.position = next(self._positions)
        self._entries[entry.key] = entry
        self._counts[PENDING] += 1
        heapq.heappush(self._pending, (entry.position, entry.key))

    def _move(self, entry: QueueEntry, state: str) -> None:
        previous = entry.state
        if previous == state:
            return
        entry.state = state
        self._counts[previous] -= 1
        self._counts[state] += 1
        if previous == FAILED:
            del self._failed[entry.key]
        if state == FAILED:
            self._failed[entry.key] = entry
        elif state == PENDING:
            heapq.heappush(self._pending, (entry.position, entry.key))

    def _remove(self, entry: QueueEntry) -> None:
        del self._entries[entry.key]
        self._counts[entry.state] -= 1
        self._failed.pop(entry.key, None)

    def _pending_entry(self, position: int, key: str) -> QueueEntry | None:
        """The entry a heap item stands for, if it is still pending."""
        entry = self._entries.get(key)
        if entry is None or entry.position != position or entry.state != PENDING:
            return None
        return entry

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
            if entry is not None:
                self._remove(entry)
            entry = QueueEntry(key=key, job=job, policy=policy)
            self._insert(entry)
            self._lock.notify_all()
            return entry

    def claim(
        self,
        worker_id: str,
        *,
        wait: float = 0.0,
        rank: Callable[[Job], int | None] | None = None,
    ) -> Lease | None:
        """Lease the oldest pending entry to ``worker_id``; None when none is.

        Expired leases are reclaimed first (opportunistically — the expiry
        thread does the same on its own cadence), so a claim arriving just
        after a worker died can pick its job straight back up.  With
        nothing to hand out, the claim waits up to ``wait`` seconds for the
        next transition and tries once more, without reclaiming: an expiry
        the caller did not see must not happen during a wait.  ``rank``
        picks the entry for this claimer instead (lowest rank, insertion
        order breaking ties); an entry it ranks ``None`` is left for
        another worker.
        """
        with self._lock:
            now = time.time()
            self.expire(now=now)
            lease = self._claim(worker_id, now, rank)
            if lease is None and wait > 0:
                self._lock.wait(wait)
                lease = self._claim(worker_id, time.time(), rank)
            return lease

    def _take(self, rank: Callable[[Job], int | None] | None) -> QueueEntry | None:
        """The pending entry a claim takes, removed from the heap."""
        if rank is None:
            while self._pending:
                entry = self._pending_entry(*heapq.heappop(self._pending))
                if entry is not None:
                    return entry
            return None
        # a ranked claim weighs every pending entry, takes the least and
        # rebuilds the heap from the live items it leaves
        live = [item for item in self._pending if self._pending_entry(*item)]
        best = min(
            (
                (order, item)
                for item in live
                if (order := rank(self._entries[item[1]].job)) is not None
            ),
            default=None,
        )
        if best is not None:
            live.remove(best[1])
        heapq.heapify(live)
        self._pending = live
        return self._entries[best[1][1]] if best is not None else None

    def _claim(
        self, worker_id: str, now: float, rank: Callable[[Job], int | None] | None
    ) -> Lease | None:
        entry = self._take(rank)
        if entry is None:
            return None
        attempt = entry.attempts_started
        entry.attempts_started += 1
        self._move(entry, LEASED)
        entry.worker = worker_id
        entry.deadline = now + self.lease_seconds
        self._next_deadline = min(self._next_deadline, entry.deadline)
        job = entry.job
        if attempt and self._policy(entry).reseed_on_retry:
            # the queue reseeds: the result still lands under the original
            # config key (the lease's ``key``)
            job = job.with_(seed=job.seed + attempt)
        return Lease(
            key=entry.key,
            job=job_to_dict(job),
            attempt=attempt,
            policy=self._worker_policy(entry),
            deadline_unix=entry.deadline,
        )

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
            self._move(entry, COMPLETED)
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
            self._move(entry, PENDING)
            return True
        entry.error = replace(
            error, key=entry.key, attempts=entry.attempts_started, seconds=entry.seconds
        )
        self._move(entry, FAILED)
        return False

    def forget(self, key: str) -> None:
        """Drop ``key``'s entry if it is completed or failed.

        A pending or leased entry (a fresh request for the key) stays.  A
        late ``complete`` or ``fail`` for a forgotten key is a no-op.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.state in (COMPLETED, FAILED):
                self._remove(entry)

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
        Before the earliest deadline a lease was granted with, nothing can
        have expired and no entry is looked at.
        """
        now = time.time() if now is None else now
        transitions: list[tuple[str, str]] = []
        with self._lock:
            if self._next_deadline >= now:
                return transitions
            next_deadline = math.inf
            for entry in self._entries.values():
                if entry.state != LEASED:
                    continue
                if entry.deadline >= now:
                    next_deadline = min(next_deadline, entry.deadline)
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
            self._next_deadline = next_deadline
            if transitions:
                self._lock.notify_all()
        return transitions

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        with self._lock:
            return self._counts[PENDING] + self._counts[LEASED] == 0

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def failed_errors(self) -> list[JobError]:
        """The permanent failures, in queue order."""
        with self._lock:
            failed = sorted(self._failed.values(), key=lambda entry: entry.position)
            return [entry.error for entry in failed if entry.error]

    def failed_error(self, key: str) -> JobError | None:
        """``key``'s permanent failure, or None while it has none."""
        with self._lock:
            entry = self._failed.get(key)
            return entry.error if entry is not None else None

    def entry_state(self, key: str) -> str | None:
        with self._lock:
            entry = self._entries.get(key)
            return entry.state if entry is not None else None

    def __len__(self) -> int:
        return len(self._entries)
