"""The result cache: one WAL-mode sqlite file of record payloads.

:class:`ResultCache` memoizes each job's record payload under the job's
:func:`~repro.experiments.jobs.config_key` in one ``entries`` table with one
recency order, each entry's ``last_use``: an LRU size cap on every put and a
TTL sweep evict by it.  It needs only the job codecs, and it opens
(and imports) ``sqlite3`` on first use, so opening a cache (a sweep's
set-up, ``repro cache-stats``, ``repro clean-cache``) loads neither the
planner, the executors nor sqlite.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import weakref
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .jobs import CACHE_VERSION, Job, job_to_dict

if TYPE_CHECKING:
    import sqlite3

__all__ = ["ResultCache"]

#: The database file inside the cache directory.
_DB_NAME = "cache.sqlite"
#: Seconds a statement waits for another process's write to finish.
_BUSY_TIMEOUT = 30.0
#: ``PRAGMA user_version`` of a database whose tables exist.
_SCHEMA_VERSION = 1
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY,"
    " cache_version INTEGER NOT NULL, job TEXT NOT NULL, record TEXT NOT NULL,"
    " bytes INTEGER NOT NULL, last_use REAL NOT NULL)",
    f"PRAGMA user_version = {_SCHEMA_VERSION}",
)
#: A hit: refresh the entry's last use and hand back its record in one statement.
_HIT = "UPDATE entries SET last_use = ? WHERE key = ? AND cache_version = ? RETURNING record"
_PUT = (
    "INSERT INTO entries (key, cache_version, job, record, bytes, last_use)"
    " VALUES (?, ?, ?, ?, ?, ?) ON CONFLICT (key) DO UPDATE SET"
    " cache_version = excluded.cache_version, job = excluded.job,"
    " record = excluded.record, bytes = excluded.bytes, last_use = excluded.last_use"
)
#: The removal policies, as ``WHERE`` clauses of one parameter each.  The
#: LRU cap removes each entry whose bytes, plus those of every entry used
#: after it (ties by key), exceed the cap; the TTL sweep removes each entry
#: last used before the cutoff.
_LRU_CAP = (
    "key IN (SELECT key FROM (SELECT key,"
    " SUM(bytes) OVER (ORDER BY last_use DESC, key DESC) AS kept FROM entries) WHERE kept > ?)"
)
_TTL = "last_use < ?"


def _remove(
    conn: sqlite3.Connection, where: str, parameter: float, *, dry_run: bool = False
) -> tuple[int, int]:
    """Delete the entries ``where`` selects (only count them under
    ``dry_run``): ``(removed, freed_bytes)``."""
    sql = (
        f"SELECT bytes FROM entries WHERE {where}"
        if dry_run
        else f"DELETE FROM entries WHERE {where} RETURNING bytes"
    )
    sizes = [size for (size,) in conn.execute(sql, (parameter,)).fetchall()]
    return len(sizes), sum(sizes)


#: Where last-use stamps come from.
_clock = time.time


def _decode(record: str) -> dict[str, object] | None:
    try:
        payload = json.loads(record)
    except (TypeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


#: Every store in this process, and those whose locks a fork holds.
_STORES: weakref.WeakSet[ResultCache] = weakref.WeakSet()
_HELD: list[ResultCache] = []


def _before_fork() -> None:
    """Close every store's connection, so none crosses a fork.  The stores'
    locks stay held across the fork, so no thread reopens one meanwhile."""
    _HELD[:] = list(_STORES)
    for store in _HELD:
        store._lock.acquire()
        store._close()


def _after_fork() -> None:
    for store in _HELD:
        store._lock.release()
    _HELD.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork, after_in_parent=_after_fork, after_in_child=_after_fork
    )


class ResultCache:
    """A sqlite memo of record payloads, one row per config hash.

    The table lives in ``<cache_dir>/cache.sqlite``, in WAL mode, so runs
    and servers in several processes can share one cache directory: every
    put is one atomic transaction and a reader never sees a torn row.  Each
    row keeps the job config beside the record, so the cache stays
    self-describing (``sqlite3 cache.sqlite 'SELECT job FROM entries'``).

    Each store holds one connection, opened on first use and guarded by a
    lock; it is closed before any fork and when the store is dropped.  A
    read against a cache that was never written creates nothing.

    ``max_bytes`` caps the summed size of the stored key and JSON texts:
    after a put, least-recently-used entries (a :meth:`get` refreshes an
    entry's last use) are evicted until the total fits; ``repro clean-cache
    --max-mb`` runs the same pass on demand.  A row whose record
    does not decode is deleted on discovery and counted in
    :attr:`corrupt_seen`, so cache rot surfaces in
    :class:`~repro.experiments.ledger.RunReport` instead of silently
    recomputing forever.
    """

    def __init__(self, cache_dir: str | Path, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        self.cache_dir = Path(cache_dir)
        self.db_path = self.cache_dir / _DB_NAME
        self.max_bytes = max_bytes
        #: Corrupt entries discovered (and removed) by this instance.
        self.corrupt_seen = 0
        #: Entries evicted by this instance's put-time LRU cap.
        self.evicted = 0
        #: put() calls that failed at the filesystem or database (ENOSPC,
        #: read-only mount, permissions) and degraded to pass-through instead.
        self.write_errors = 0
        #: Latched once any put() degrades: results are flowing through
        #: this cache without being persisted.
        self.degraded = False
        self._conn: sqlite3.Connection | None = None
        self._closer: weakref.finalize | None = None
        #: Guards the connection and the counters above: server worker
        #: threads share one store.
        self._lock = threading.Lock()
        _STORES.add(self)

    def _connect(self, *, create: bool) -> sqlite3.Connection | None:
        """The open connection (caller holds the lock); None when ``create``
        is false and no database exists yet."""
        if self._conn is not None:
            return self._conn
        if not create and not self.db_path.is_file():
            return None
        import sqlite3

        if create:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.db_path, timeout=_BUSY_TIMEOUT, isolation_level=None, check_same_thread=False
        )
        try:
            if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            if conn.execute("PRAGMA user_version").fetchone()[0] != _SCHEMA_VERSION:
                conn.execute("BEGIN IMMEDIATE")
                with conn:
                    for statement in _SCHEMA:
                        conn.execute(statement)
        except BaseException:
            conn.close()
            raise
        self._conn = conn
        self._closer = weakref.finalize(self, conn.close)
        return conn

    def _close(self) -> None:
        """Close the connection (caller holds the lock); the next use reopens."""
        if self._conn is not None:
            self._closer.detach()
            self._conn.close()
            self._conn = None

    def get(self, key: str) -> dict[str, object] | None:
        """The cached record payload for ``key``, or None on a miss.

        A hit refreshes the entry's last use, the recency both the LRU cap
        and the TTL sweep read; a miss writes nothing.  A row whose record
        does not decode is deleted and counted; a row of another
        ``cache_version`` is a plain miss.
        """
        import sqlite3

        with self._lock:
            try:
                conn = self._connect(create=False)
                if conn is None:
                    return None
                rows = conn.execute(_HIT, (_clock(), key, CACHE_VERSION)).fetchall()
                record = _decode(rows[0][0]) if rows else None
                if rows and record is None:
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                    self.corrupt_seen += 1
                return record
            except sqlite3.OperationalError:
                return None

    def peek(self, key: str) -> dict[str, object] | None:
        """Like :meth:`get`, but strictly read-only.

        No recency refresh and no corrupt-entry deletion — the classification (hit or miss) matches what :meth:`get`
        would return, which is what dry-run planning needs without
        perturbing the LRU/TTL state it is previewing.
        """
        import sqlite3

        with self._lock:
            try:
                conn = self._connect(create=False)
                if conn is None:
                    return None
                row = conn.execute(
                    "SELECT record FROM entries WHERE key = ? AND cache_version = ?",
                    (key, CACHE_VERSION),
                ).fetchone()
            except sqlite3.OperationalError:
                return None
        return _decode(row[0]) if row else None

    def put(self, key: str, job: Job, record_payload: Mapping[str, object]) -> None:
        """Store one record payload under ``key`` (one transaction).

        A filesystem or database failure (ENOSPC, read-only mount,
        permissions) does **not** propagate: the cache degrades to recorded
        pass-through mode — the caller keeps its in-memory payload and the
        run completes, with the degradation counted in :attr:`write_errors`
        / latched in :attr:`degraded` so
        :class:`~repro.experiments.ledger.RunReport` and the CLI can surface
        it.  Losing memoisation must never lose a result that already
        compiled.
        """
        import sqlite3

        from ..chaos import active_controller  # not needed to open a cache

        job_json = json.dumps({k: v for k, v in job_to_dict(job).items() if k != "tags"})
        record_json = json.dumps(dict(record_payload), separators=(",", ":"))
        size = len(key) + len(job_json) + len(record_json)
        row = (key, CACHE_VERSION, job_json, record_json, size)
        try:
            chaos = active_controller()
            if chaos is not None:
                chaos.on_fs_op("put", str(self.db_path))
            with self._lock:
                conn = self._connect(create=True)
                conn.execute("BEGIN IMMEDIATE")
                with conn:
                    conn.execute(_PUT, (*row, _clock()))
                    if self.max_bytes:
                        self.evicted += _remove(conn, _LRU_CAP, self.max_bytes)[0]
        except (OSError, sqlite3.OperationalError):
            with self._lock:
                self.write_errors += 1
                self.degraded = True

    def _query(self, sql: str, params: tuple[Any, ...] = ()) -> list[tuple[Any, ...]]:
        """Rows of a read; none when no database exists yet."""
        with self._lock:
            conn = self._connect(create=False)
            return conn.execute(sql, params).fetchall() if conn is not None else []

    def sweep_older_than(
        self,
        max_age_seconds: float,
        *,
        dry_run: bool = False,
        now: float | None = None,
    ) -> dict[str, int]:
        """Age-based (TTL) garbage collection.

        Removes every entry whose last use (its put, or the latest
        :meth:`get` that served it) is strictly older than
        ``now - max_age_seconds``; entries at or newer than the cutoff are
        never touched.  ``dry_run`` counts what a sweep would remove without
        deleting anything.  Returns ``{"scanned", "removed", "freed_bytes",
        "total_bytes"}``, the last one the size left after the sweep.
        """
        # NaN would make every last-use-vs-cutoff comparison False and
        # delete the whole cache, so it must not pass the range check
        if math.isnan(max_age_seconds) or max_age_seconds < 0:
            raise ValueError(f"max_age_seconds must be >= 0, got {max_age_seconds}")
        cutoff = (time.time() if now is None else now) - max_age_seconds
        return self._sweep(_TTL, cutoff, dry_run=dry_run)

    def _sweep(self, where: str, parameter: float, *, dry_run: bool) -> dict[str, int]:
        """One pass of a removal policy outside a put, in one transaction
        (``repro clean-cache --max-mb`` runs the put cap's :data:`_LRU_CAP`
        through it): the counts :meth:`sweep_older_than` returns."""
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return {"scanned": 0, "removed": 0, "freed_bytes": 0, "total_bytes": 0}
            conn.execute("BEGIN" if dry_run else "BEGIN IMMEDIATE")
            with conn:
                scanned, total = conn.execute(
                    "SELECT COUNT(*), TOTAL(bytes) FROM entries"
                ).fetchone()
                removed, freed = _remove(conn, where, parameter, dry_run=dry_run)
        return {
            "scanned": scanned,
            "removed": removed,
            "freed_bytes": freed,
            "total_bytes": int(total) - freed,
        }

    def __len__(self) -> int:
        rows = self._query("SELECT COUNT(*) FROM entries")
        return rows[0][0] if rows else 0

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.  The
        connection closes afterwards, so the last one out checkpoints the
        write-ahead log and removes its side files."""
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return 0
            conn.execute("BEGIN IMMEDIATE")
            with conn:
                removed = conn.execute("DELETE FROM entries").rowcount
            self._close()
        return removed

    def stats(self) -> dict[str, object]:
        """Size/health summary of the cache (decodes every entry)."""
        rows = self._query("SELECT record, bytes, last_use FROM entries")
        uses = [last_use for _, _, last_use in rows]
        return {
            "cache_dir": str(self.cache_dir),
            "entries": len(rows),
            "total_bytes": sum(size for _, size, _ in rows),
            "corrupt_entries": sum(_decode(record) is None for record, _, _ in rows),
            "max_bytes": self.max_bytes,
            "oldest_mtime": min(uses, default=None),
            "newest_mtime": max(uses, default=None),
        }


def _coerce_cache(cache: None | str | Path | ResultCache) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
