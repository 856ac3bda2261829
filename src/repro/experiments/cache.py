"""The on-disk result cache: one JSON entry per config hash.

:class:`ResultCache` memoizes each job's record payload under the job's
:func:`~repro.experiments.jobs.config_key`, sharded by hash prefix, with
atomic writes, an LRU size cap, a TTL sweep, access-ranked eviction and an
append-only access log for ``repro cache-stats``.  It needs only the job
codecs, so opening a cache (a sweep's set-up, ``repro cache-stats``,
``repro clean-cache``) loads neither the planner nor the executors.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from collections.abc import Mapping, Sequence
from pathlib import Path

try:  # POSIX only; the access log degrades to best-effort appends without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .jobs import CACHE_VERSION, Job, job_to_dict

__all__ = ["ResultCache"]

#: Shard directories are the first two hex chars of the config hash.
_SHARD_CHARS = 2
_SHARD_GLOB = "[0-9a-f]" * _SHARD_CHARS
#: Append-only hit/miss log backing ``repro cache-stats`` telemetry.
_ACCESS_LOG = "access.log"
#: Compact the log into aggregated counts once it grows past this size.
_ACCESS_LOG_MAX_BYTES = 4 * 1024 * 1024
#: How many appends between log-size checks (keeps the hot path stat-free).
_ACCESS_COMPACT_EVERY = 1024
#: Temp files older than this are considered litter from a crashed writer.
_STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """On-disk JSON memo of comparison records, one file per config hash.

    Entries are sharded by hash prefix (``ab/abcd….json``) so paper-scale
    sweeps never pile millions of files into one directory.  Writes are
    atomic (temp file + rename) so concurrent runs sharing a cache directory
    never observe torn files, and temp litter left by crashed writers is
    swept on :meth:`put`/:meth:`clear`.
    Payloads carry the full job config alongside the record, which makes a
    cache directory self-describing and debuggable with plain ``jq``.

    ``max_bytes`` caps the cache size: after every write, least-recently-used
    entries (by mtime — :meth:`get` touches entries it serves) are evicted
    until the total drops under the cap.  Corrupt entries are deleted on
    discovery and counted in :attr:`corrupt_seen` so cache rot surfaces in
    :class:`~repro.experiments.ledger.RunReport` instead of silently recomputing forever.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_bytes: int | None = None,
        record_access: bool = True,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        self.cache_dir = Path(cache_dir)
        self.max_bytes = max_bytes
        #: Whether get() appends hit/miss lines to the access log.
        self.record_access = record_access
        #: Corrupt entries discovered (and removed) by this instance.
        self.corrupt_seen = 0
        #: Entries evicted by the LRU cap by this instance.
        self.evicted = 0
        #: put() calls that failed at the filesystem (ENOSPC, read-only
        #: mount, permissions) and degraded to pass-through instead.
        self.write_errors = 0
        #: Latched once any put() degrades: results are flowing through
        #: this cache without being persisted.
        self.degraded = False
        #: Running size total; None until the first capped put() scans once.
        self._total_bytes: int | None = None
        #: Appends by this instance, for periodic compaction checks.
        self._accesses_logged = 0
        #: Guards the instance counters above when one cache object is shared
        #: by server worker threads; on-disk state needs no instance lock
        #: (atomic renames, O_APPEND log writes, O_EXCL compaction claim).
        self._lock = threading.Lock()

    @property
    def access_log_path(self) -> Path:
        return self.cache_dir / _ACCESS_LOG

    def _log_access(self, kind: str, key: str) -> None:
        """Append one ``H``/``M``/``P`` ``<key> <unix-time>`` line to the log.

        Single short appends are atomic on POSIX, so concurrent runs sharing
        a cache directory interleave whole lines.  A cache directory that does
        not exist yet (a read against a never-written cache) is left alone —
        pure reads must not create state on disk.  Every
        ``_ACCESS_COMPACT_EVERY`` appends the log size is checked and, past
        ``_ACCESS_LOG_MAX_BYTES``, the line-per-access history is compacted
        into aggregated ``A``/``T`` records so a long-lived farm cache never
        grows an unbounded log.

        The timestamp doubles as mtime-independent recency: eviction and TTL
        sweeps rank entries by ``max(st_mtime, last logged use)``, so a cache
        restored by tooling that resets mtimes (CI ``actions/cache``) keeps
        its true LRU order.  ``P`` lines record puts for exactly that reason
        and never count as hits or misses.

        Appends coordinate with compaction through a shared ``flock`` plus an
        inode check: a compactor renames the live log aside and takes an
        exclusive lock on it before parsing, so an append either lands before
        the parse (holding the shared lock on the same inode) or notices the
        rename and retries against the fresh log — no line can slip into the
        aside file after it was aggregated.
        """
        if not self.record_access or not self.cache_dir.is_dir():
            return
        line = f"{kind} {key} {time.time():.6f}\n".encode("utf-8")
        with contextlib.suppress(OSError):
            self._append_log_line(line)
            with self._lock:
                self._accesses_logged += 1
                check_size = self._accesses_logged % _ACCESS_COMPACT_EVERY == 0
            if check_size and self.access_log_path.stat().st_size > _ACCESS_LOG_MAX_BYTES:
                self._compact_access_log()

    def _append_log_line(self, line: bytes) -> None:
        """One atomic O_APPEND write, rename-aware (see :meth:`_log_access`)."""
        for _ in range(8):  # bounded retries if compactors keep renaming
            fd = os.open(
                str(self.access_log_path),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_SH)
                    try:
                        current = os.stat(self.access_log_path)
                    except FileNotFoundError:
                        continue  # renamed aside mid-open; write to the new log
                    if os.fstat(fd).st_ino != current.st_ino:
                        continue
                os.write(fd, line)
                return
            finally:
                os.close(fd)  # also releases the shared flock

    def _parse_access_log(
        self, path: Path | None = None
    ) -> tuple[int, int, dict[str, int], dict[str, float]]:
        """Totals, per-key hit counts and last-use times from the log.

        Line kinds: ``H <key> [<ts>]`` / ``M <key> [<ts>]`` raw accesses,
        ``P <key> <ts>`` put markers (recency only, no hit/miss), and the
        compacted forms ``A <key> <hits> [<ts>]`` (aggregated per-entry hits)
        and ``T <hits> <misses>`` (carried-over totals).  Timestamp-less
        lines written by earlier versions parse fine and simply contribute no
        recency.
        """
        hits = 0
        misses = 0
        per_key: dict[str, int] = {}
        last_used: dict[str, float] = {}

        def note_use(key: str, parts: list[str], index: int) -> None:
            if len(parts) > index:
                with contextlib.suppress(ValueError):
                    stamp = float(parts[index])
                    if stamp > last_used.get(key, 0.0):
                        last_used[key] = stamp

        with open(path or self.access_log_path, "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 2:
                    continue
                kind = parts[0]
                if kind == "H":
                    hits += 1
                    per_key[parts[1]] = per_key.get(parts[1], 0) + 1
                    note_use(parts[1], parts, 2)
                elif kind == "M":
                    misses += 1
                elif kind == "P":
                    note_use(parts[1], parts, 2)
                elif kind == "A" and len(parts) in (3, 4):
                    with contextlib.suppress(ValueError):
                        count = int(parts[2])
                        hits += count
                        per_key[parts[1]] = per_key.get(parts[1], 0) + count
                        note_use(parts[1], parts, 3)
                elif kind == "T" and len(parts) == 3:
                    with contextlib.suppress(ValueError):
                        hits += int(parts[1])
                        misses += int(parts[2])
        return hits, misses, per_key, last_used

    def _log_recency(self) -> dict[str, float]:
        """Newest logged use (hit or put) per key, for mtime-proof ranking."""
        try:
            _, _, _, last_used = self._parse_access_log()
        except OSError:
            return {}
        return last_used

    def _compact_access_log(self) -> None:
        """Aggregate the access log in place without dropping any tally.

        Compactions are serialised by an ``O_EXCL`` lock file: the loser of
        the claim simply skips (the winner is doing the work; a lock older
        than the stale-litter horizon is removed as debris from a crashed
        compactor).  The historic read→aggregate→``os.replace`` cycle raced
        concurrent *appenders* too — lines appended between the read and the
        replace vanished.  Instead the live log is renamed aside first, so
        appenders immediately start a fresh log, the aside file (now frozen)
        is aggregated, and the aggregate is appended back with one atomic
        ``O_APPEND`` write.  Every line lands in exactly one of the two
        files, so nothing is lost in any interleaving.

        One hole remains after the rename: an appender that opened the log
        *just before* the rename still holds a descriptor to the renamed
        inode and may write its line after we parsed it.  Appenders therefore
        hold a shared ``flock`` across their write (and re-open on inode
        mismatch, see :meth:`_append_log_line`); taking an *exclusive* lock
        on the aside file before parsing blocks until every such in-flight
        append has landed, closing the window.
        """
        lock = self.access_log_path.with_name(f".{_ACCESS_LOG}.lock")
        try:
            lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            with contextlib.suppress(OSError):
                if time.time() - lock.stat().st_mtime > _STALE_TMP_SECONDS:
                    lock.unlink()
            return
        except OSError:
            return
        try:
            aside = self.access_log_path.with_name(
                f".{_ACCESS_LOG}.compacting-{os.getpid()}"
            )
            with contextlib.suppress(OSError):
                os.replace(self.access_log_path, aside)
                if fcntl is not None:
                    # wait out in-flight appenders holding the shared lock on
                    # the renamed inode; anyone arriving later sees the inode
                    # mismatch and diverts to the fresh log
                    aside_fd = os.open(str(aside), os.O_RDONLY)
                    try:
                        fcntl.flock(aside_fd, fcntl.LOCK_EX)
                    finally:
                        os.close(aside_fd)
                hits, misses, per_key, last_used = self._parse_access_log(aside)
                lines = [f"T {hits - sum(per_key.values())} {misses}"]
                for key in sorted(set(per_key) | set(last_used)):
                    entry = f"A {key} {per_key.get(key, 0)}"
                    if key in last_used:
                        entry += f" {last_used[key]:.6f}"
                    lines.append(entry)
                blob = ("\n".join(lines) + "\n").encode("utf-8")
                out = os.open(
                    str(self.access_log_path),
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                    0o644,
                )
                try:
                    os.write(out, blob)
                finally:
                    os.close(out)
                os.unlink(aside)
        finally:
            os.close(lock_fd)
            with contextlib.suppress(OSError):
                lock.unlink()

    def access_stats(self, *, top: int = 10) -> dict[str, object]:
        """Hit/miss tallies and per-entry access counts from the access log.

        The groundwork for the ROADMAP's GC daemon: a shared farm cache can
        rank entries by how often they are actually served (``top_entries``)
        instead of only by recency.  ``top_entries`` only lists entries that
        still exist on disk (history survives TTL sweeps and LRU eviction,
        which would otherwise let long-gone entries crowd the ranking);
        ``tracked_entries`` counts every key ever served.  Returns zero
        counts when no log exists (or access recording is off).
        """
        try:
            hits, misses, per_key, _ = self._parse_access_log()
        except OSError:
            hits = misses = 0
            per_key = {}
        total = hits + misses
        # compaction keeps zero-hit keys for their recency stamp; they are
        # not "top" anything
        per_key = {key: count for key, count in per_key.items() if count > 0}
        ranked = sorted(per_key.items(), key=lambda item: (-item[1], item[0]))
        top_entries = []
        for key, count in ranked:
            if len(top_entries) >= max(top, 0):
                break
            if self.path_for(key).exists():
                top_entries.append({"key": key, "hits": count})
        return {
            "recorded": total,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
            "tracked_entries": len(per_key),
            "top_entries": top_entries,
        }

    def path_for(self, key: str) -> Path:
        return self.cache_dir / key[:_SHARD_CHARS] / f"{key}.json"

    def _drop_corrupt(self, path: Path) -> None:
        self.corrupt_seen += 1
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, key: str) -> dict[str, object] | None:
        """The cached record payload for ``key``, or None on a miss.

        A hit refreshes the entry's mtime (its LRU rank) and appends to the
        access log (see :meth:`access_stats`); a corrupt entry is deleted
        and counted.
        """
        record = self._read(key, refresh=True)
        self._log_access("H" if record is not None else "M", key)
        return record

    def peek(self, key: str) -> dict[str, object] | None:
        """Like :meth:`get`, but strictly read-only.

        No mtime refresh, no corrupt-entry deletion, no access log — the
        classification (hit or miss) matches what :meth:`get` would return,
        which is what dry-run planning needs without perturbing the LRU/TTL
        state it is previewing.
        """
        return self._read(key, refresh=False)

    def _read(self, key: str, *, refresh: bool) -> dict[str, object] | None:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            return None  # a miss (or a cache dir that is not a directory)
        except json.JSONDecodeError:
            entry = None
        if isinstance(entry, dict) and entry.get("cache_version") != CACHE_VERSION:
            return None  # a legitimate version skew, not rot
        record = entry.get("record") if isinstance(entry, dict) else None
        if not isinstance(record, dict):
            if refresh:
                self._drop_corrupt(path)
            return None
        if refresh:
            with contextlib.suppress(OSError):
                os.utime(path)
        return dict(record)

    def put(self, key: str, job: Job, record_payload: Mapping[str, object]) -> Path:
        """Store one record payload under ``key`` (atomic write).

        A filesystem failure (ENOSPC, read-only mount, permissions) does
        **not** propagate: the cache degrades to recorded pass-through mode
        — the caller keeps its in-memory payload and the run completes,
        with the degradation counted in :attr:`write_errors` / latched in
        :attr:`degraded` so :class:`~repro.experiments.ledger.RunReport` and the CLI can surface it.
        Losing memoisation must never lose a result that already compiled.
        """
        entry = {
            "cache_version": CACHE_VERSION,
            "key": key,
            "job": {k: v for k, v in job_to_dict(job).items() if k != "tags"},
            "record": dict(record_payload),
        }
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            from ..chaos import active_controller  # not needed to open a cache

            chaos = active_controller()
            if chaos is not None:
                chaos.on_fs_op("put", str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.write_errors += 1
                self.degraded = True
            with contextlib.suppress(OSError):
                tmp.unlink()
            return path
        self._log_access("P", key)
        self._sweep_tmp(stale_only=True, dirs=(path.parent, self.cache_dir))
        if self.max_bytes:
            # keep a running total so the common (under-cap) put is O(1);
            # overwrites drift it upward, but every eviction pass recomputes
            # the exact total, so the drift only ever triggers an early scan
            with self._lock:
                if self._total_bytes is None:
                    self._total_bytes = sum(self._entry_sizes().values())
                else:
                    with contextlib.suppress(OSError):
                        self._total_bytes += path.stat().st_size
                over_cap = self._total_bytes > self.max_bytes
            if over_cap:
                self._evict_to_cap()
        return path

    def entries(self) -> list[Path]:
        """Every entry path, sorted by name."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob(f"{_SHARD_GLOB}/*.json"), key=lambda p: p.name)

    def _tmp_files(self) -> list[Path]:
        if not self.cache_dir.is_dir():
            return []
        litter = list(self.cache_dir.glob(".*.json.tmp-*"))
        litter += self.cache_dir.glob(f"{_SHARD_GLOB}/.*.json.tmp-*")
        return sorted(litter)

    def _sweep_tmp(self, *, stale_only: bool, dirs: Sequence[Path] | None = None) -> int:
        """Remove temp litter from crashed writers; returns the count.

        ``stale_only`` spares files younger than an hour, so a concurrent
        writer mid-``put`` never loses its temp file.  ``dirs`` restricts the
        sweep (``put`` passes just the shard it wrote and the cache root).
        """
        cutoff = time.time() - _STALE_TMP_SECONDS
        removed = 0
        if dirs is not None:
            litter: list[Path] = []
            for directory in dict.fromkeys(dirs):
                litter += directory.glob(".*.json.tmp-*")
        else:
            litter = self._tmp_files()
        for tmp in litter:
            try:
                if stale_only and tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def _entry_sizes(self) -> dict[Path, int]:
        sizes: dict[Path, int] = {}
        for path in self.entries():
            with contextlib.suppress(OSError):
                sizes[path] = path.stat().st_size
        return sizes

    def _last_use(self, path: Path, stat: os.stat_result, recency: Mapping[str, float]) -> float:
        """When ``path``'s entry was last written or served.

        The newer of the filesystem mtime and the access log's recency stamp:
        a cache restored by tooling that resets mtimes (CI ``actions/cache``)
        still ranks by its true usage order, and a cache with no log at all
        degrades to the historic mtime behaviour.
        """
        return max(stat.st_mtime, recency.get(path.stem, 0.0))

    def _evict_to_cap(self) -> int:
        """Evict least-recently-used entries until under ``max_bytes``."""
        if not self.max_bytes:
            return 0
        recency = self._log_recency()
        sized = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((self._last_use(path, stat, recency), stat.st_size, path))
            total += stat.st_size
        evicted = 0
        for _used, size, path in sorted(sized, key=lambda item: (item[0], item[2].name)):
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                path.unlink()
                total -= size
                evicted += 1
        with self._lock:
            self.evicted += evicted
            self._total_bytes = total
        return evicted

    def sweep_older_than(
        self,
        max_age_seconds: float,
        *,
        dry_run: bool = False,
        now: float | None = None,
    ) -> dict[str, int]:
        """Age-based (TTL) garbage collection, shard-aware.

        Removes every entry whose last use is strictly older than
        ``now - max_age_seconds``; entries at or newer than the cutoff are
        never touched.  Last use is the newer of the
        entry's mtime (a :meth:`get` refreshes it) and its access-log recency
        stamp, so freshly restored entries whose mtimes were reset by the
        restore tooling are not mis-swept.  ``dry_run`` counts what a sweep
        would remove without unlinking anything.
        Returns ``{"scanned", "removed", "freed_bytes"}``.
        """
        # NaN would make every mtime-vs-cutoff comparison False and delete
        # the whole cache, so it must not pass the range check
        if math.isnan(max_age_seconds) or max_age_seconds < 0:
            raise ValueError(f"max_age_seconds must be >= 0, got {max_age_seconds}")
        cutoff = (time.time() if now is None else now) - max_age_seconds
        recency = self._log_recency()
        scanned = removed = freed = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            scanned += 1
            if self._last_use(path, stat, recency) >= cutoff:
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            freed += stat.st_size
        if not dry_run and removed:
            self._sweep_tmp(stale_only=True)
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
            self._total_bytes = None  # force a rescan on the next capped put
        return {"scanned": scanned, "removed": removed, "freed_bytes": freed}

    def eviction_ranking(self) -> list[dict[str, object]]:
        """Every entry in the exact order ranked eviction removes them.

        Least-*served* first: entries are sorted by access-log hit count
        ascending, ties broken by the oldest last use (the newer of mtime and
        logged recency, same rule as the LRU cap and the TTL sweep), final
        ties by name so the order is fully deterministic.  This is the order
        the eviction daemon (``repro clean-cache --watch --max-mb``) walks and
        the preview ``repro cache-stats --rank access`` prints — one code
        path, so the preview can never lie about what a sweep would do.
        """
        try:
            _, _, per_key, last_used = self._parse_access_log()
        except OSError:
            per_key, last_used = {}, {}
        ranked: list[dict[str, object]] = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            key = path.stem
            ranked.append(
                {
                    "key": key,
                    "path": path,
                    "hits": per_key.get(key, 0),
                    "last_use": max(stat.st_mtime, last_used.get(key, 0.0)),
                    "bytes": stat.st_size,
                }
            )
        ranked.sort(key=lambda e: (e["hits"], e["last_use"], e["path"].name))
        return ranked

    def evict_ranked(self, max_bytes: int) -> dict[str, int]:
        """Evict the head of :meth:`eviction_ranking` until under ``max_bytes``.

        Unlike the recency-only :meth:`_evict_to_cap` (which backs the
        per-put LRU cap), this is the farm daemon's access-ranked pass: a
        hot entry served hundreds of times outlives a fresher entry nothing
        ever asked for.  Returns ``{"scanned", "removed", "freed_bytes",
        "total_bytes"}`` with ``total_bytes`` the post-eviction size.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        ranking = self.eviction_ranking()
        total = sum(int(entry["bytes"]) for entry in ranking)
        removed = freed = 0
        for entry in ranking:
            if total <= max_bytes:
                break
            with contextlib.suppress(OSError):
                entry["path"].unlink()  # type: ignore[union-attr]
                total -= int(entry["bytes"])
                freed += int(entry["bytes"])
                removed += 1
        if removed:
            with self._lock:
                self.evicted += removed
                self._total_bytes = None  # force a rescan on the next capped put
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
        return {
            "scanned": len(ranking),
            "removed": removed,
            "freed_bytes": freed,
            "total_bytes": total,
        }

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every cache entry (and all temp litter); returns the number
        of entries removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        self._sweep_tmp(stale_only=False)
        with contextlib.suppress(OSError):
            self.access_log_path.unlink()
        if self.cache_dir.is_dir():
            for pattern in (
                f".{_ACCESS_LOG}.tmp-*",
                f".{_ACCESS_LOG}.compacting-*",
                f".{_ACCESS_LOG}.lock",
            ):
                for litter in self.cache_dir.glob(pattern):
                    with contextlib.suppress(OSError):
                        litter.unlink()
        if self.cache_dir.is_dir():
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
        self._total_bytes = None
        return removed

    def stats(self) -> dict[str, object]:
        """Size/health summary of the cache directory (reads every entry)."""
        total_bytes = 0
        corrupt = 0
        oldest: float | None = None
        newest: float | None = None
        entries = self.entries()
        for path in entries:
            try:
                stat = path.stat()
            except OSError:
                continue
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict) or not isinstance(entry.get("record"), dict):
                    corrupt += 1
            except (OSError, json.JSONDecodeError):
                corrupt += 1
        return {
            "cache_dir": str(self.cache_dir),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "shards": len({path.parent for path in entries}),
            "tmp_files": len(self._tmp_files()),
            "corrupt_entries": corrupt,
            "max_bytes": self.max_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "access": self.access_stats(),
        }


def _coerce_cache(cache: None | str | Path | ResultCache) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
