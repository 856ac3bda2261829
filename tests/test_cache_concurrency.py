"""Concurrent-access tests for :class:`ResultCache`.

Three bug classes this file pins down:

* the access-log **compaction race** — the historic read→aggregate→replace
  cycle lost lines appended between the read and the replace, and two
  concurrent compactors could double-count; compaction is now serialised by
  an O_EXCL lock file and renames the live log aside before aggregating, so
  every line lands in exactly one file;
* **mtime-reset survival** — LRU eviction and TTL sweeps ranked entries by
  ``st_mtime`` alone, so tooling that resets mtimes on restore (CI cache
  actions) made the entire cache look idle; recency is now also persisted
  in the access log and the effective last-use is the newer of the two;
* plain **multi-process hammering** — N processes sharing one cache
  directory must not corrupt entries or lose log records.
"""

import json
import multiprocessing
import os
import time

import pytest

from helpers import strip_timing
from repro.experiments import engine
from repro.experiments.engine import Job, ResultCache, config_key

JOB = Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2)


def payload_for(index: int) -> dict:
    return {"benchmark": "QFT", "value": index, "blob": "x" * 200}


def keys_for(count: int) -> list[str]:
    return [config_key(Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2, seed=i)) for i in range(count)]


# --------------------------------------------------------------------------
# multi-process hammer


def _hammer(cache_dir: str, keys: list[str], rounds: int) -> None:
    cache = ResultCache(cache_dir)
    for round_index in range(rounds):
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
            got = cache.get(key)
            assert got is not None, f"lost entry {key} in round {round_index}"


def _reader(cache_dir: str, keys: list[str], rounds: int) -> None:
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        for key in keys:
            record = cache.get(key)
            if record is not None:
                assert record["benchmark"] == "QFT"


class TestMultiProcessHammer:
    def test_concurrent_put_get_no_corruption(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        keys = keys_for(6)
        ResultCache(cache_dir)  # pre-create so readers can log accesses
        for index, key in enumerate(keys):
            ResultCache(cache_dir).put(key, JOB, payload_for(index))

        processes = [
            multiprocessing.Process(target=_hammer, args=(cache_dir, keys, 10))
            for _ in range(3)
        ] + [
            multiprocessing.Process(target=_reader, args=(cache_dir, keys, 20))
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        cache = ResultCache(cache_dir)
        stats = cache.stats()
        assert stats["corrupt_entries"] == 0
        assert len(cache) == len(keys)
        # every entry parses and round-trips
        for key in keys:
            record = cache.get(key)
            assert record is not None and record["benchmark"] == "QFT"
        # the log recorded every read that went through get(): 3 hammers x
        # 10 rounds x 6 keys + 2 readers x 20 rounds x 6 keys + the checks
        # just above; no interleaving may lose lines
        access = cache.access_stats()
        expected_gets = 3 * 10 * 6 + 2 * 20 * 6 + 6
        assert access["hits"] == expected_gets
        assert access["misses"] == 0


# --------------------------------------------------------------------------
# compaction under concurrency


def _compact_and_append(cache_dir: str, keys: list[str], rounds: int) -> None:
    cache = ResultCache(cache_dir)
    for round_index in range(rounds):
        cache.get(keys[round_index % len(keys)])
        cache._compact_access_log()


class TestCompactionConcurrency:
    def test_compaction_loses_nothing_single_process(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(4)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        for _ in range(25):
            for key in keys:
                assert cache.get(key) is not None
        cache._compact_access_log()
        access = cache.access_stats()
        assert access["hits"] == 25 * len(keys)
        assert access["misses"] == 0
        # compacting twice (idempotent) changes nothing
        cache._compact_access_log()
        assert cache.access_stats()["hits"] == 25 * len(keys)
        # per-key counts survive compaction
        top = {entry["key"]: entry["hits"] for entry in access["top_entries"]}
        assert top == {key: 25 for key in keys}

    def test_concurrent_compactors_and_appenders(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        keys = keys_for(4)
        seed_cache = ResultCache(cache_dir)
        for index, key in enumerate(keys):
            seed_cache.put(key, JOB, payload_for(index))

        rounds = 40
        processes = [
            multiprocessing.Process(
                target=_compact_and_append, args=(cache_dir, keys, rounds)
            )
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        cache = ResultCache(cache_dir)
        cache._compact_access_log()
        access = cache.access_stats()
        # every get() was a hit and every line survived some interleaving of
        # 4 concurrent compactors
        assert access["hits"] == 4 * rounds
        assert access["misses"] == 0
        # no litter left behind: neither lock nor aside files
        leftovers = [
            path.name
            for path in (tmp_path / "cache").iterdir()
            if path.name.startswith(".access.log.")
        ]
        assert leftovers == []

    def test_stale_lock_is_removed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = keys_for(1)[0]
        cache.put(key, JOB, payload_for(0))
        cache.get(key)
        lock = cache.access_log_path.with_name(".access.log.lock")
        lock.touch()
        os.utime(lock, (1, 1))  # ancient -> crashed compactor debris
        cache._compact_access_log()  # claims nothing, removes the debris
        assert not lock.exists()
        # a fresh compaction then succeeds
        cache._compact_access_log()
        assert cache.access_stats()["hits"] == 1

    def test_live_lock_skips_compaction_without_data_loss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = keys_for(1)[0]
        cache.put(key, JOB, payload_for(0))
        cache.get(key)
        lock = cache.access_log_path.with_name(".access.log.lock")
        lock.touch()  # fresh: another process is compacting right now
        cache._compact_access_log()
        assert cache.access_stats()["hits"] == 1  # log untouched
        lock.unlink()


# --------------------------------------------------------------------------
# mtime-independent recency (CI cache-restore survival)


class TestMtimeResetRecency:
    def _reset_all_mtimes(self, cache: ResultCache) -> None:
        for path in cache.entries():
            os.utime(path, (1, 1))  # 1970: the pathological restore

    def test_sweep_spares_logged_recent_entries_after_mtime_reset(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(4)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        # entries 0 and 1 are "in use" per the access log
        cache.get(keys[0])
        cache.get(keys[1])
        self._reset_all_mtimes(cache)

        # by mtime alone everything is decades stale; the log must save the
        # two used entries (puts logged recency for all four, so rank by the
        # get timestamps: sweep with a cutoff newer than the puts)
        result = cache.sweep_older_than(0.0, now=time.time() + 10.0, dry_run=True)
        assert result["removed"] == 4  # sanity: cutoff in the future sweeps all

        swept = cache.sweep_older_than(3600.0)
        assert swept["removed"] == 0  # every entry has logged recency < 1h old

    def test_sweep_uses_log_recency_not_mtime(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(2)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        self._reset_all_mtimes(cache)
        # rewrite the access log so entry 0 was last used 2 days ago and
        # entry 1 just now — recency must come from the log, not st_mtime
        now = time.time()
        cache.access_log_path.write_text(
            f"P {keys[0]} {now - 2 * 86400:.6f}\nP {keys[1]} {now:.6f}\n"
        )
        result = cache.sweep_older_than(86400.0)
        assert result["removed"] == 1
        assert cache.get(keys[1]) is not None
        assert cache.peek(keys[0]) is None

    def test_eviction_order_follows_logged_recency_after_mtime_reset(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(3)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        self._reset_all_mtimes(cache)
        now = time.time()
        # log says: keys[1] oldest, then keys[2], keys[0] most recent
        cache.access_log_path.write_text(
            f"P {keys[1]} {now - 300:.6f}\n"
            f"P {keys[2]} {now - 200:.6f}\n"
            f"P {keys[0]} {now - 100:.6f}\n"
        )
        entry_size = cache.path_for(keys[0]).stat().st_size
        # cap so exactly one entry must go: the log's LRU pick is keys[1]
        capped = ResultCache(tmp_path / "cache", max_bytes=int(entry_size * 2.5))
        capped._evict_to_cap()
        assert capped.peek(keys[1]) is None
        assert capped.peek(keys[0]) is not None
        assert capped.peek(keys[2]) is not None

    def test_mtime_alone_still_works_without_log(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", record_access=False)
        keys = keys_for(2)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        old = time.time() - 10 * 86400
        os.utime(cache.path_for(keys[0]), (old, old))
        result = cache.sweep_older_than(86400.0)
        assert result["removed"] == 1
        assert cache.peek(keys[1]) is not None


# --------------------------------------------------------------------------
# serve-path concurrency (cache shared between server workers)


class TestServeCacheSharing:
    def test_parallel_served_submissions_share_cache_safely(self, tmp_path):
        from repro.serve import CompileServer, submit_jobs

        cache = ResultCache(tmp_path / "cache")
        jobs = [
            Job(benchmark="QFT", chiplet_width=3, rows=1, cols=2, seed=seed)
            for seed in range(3)
        ]
        with CompileServer(workers=3, cache=cache) as server:
            first = submit_jobs(jobs, server.host, server.port, concurrency=3)
            second = submit_jobs(jobs, server.host, server.port, concurrency=3)
        assert all(response.ok for response in first + second)
        assert all(response.payload["cached"] for response in second)
        for a, b in zip(first, second):
            assert json.dumps(
                strip_timing(a.payload["result"]), sort_keys=True
            ) == json.dumps(strip_timing(b.payload["result"]), sort_keys=True)
        assert cache.stats()["corrupt_entries"] == 0
