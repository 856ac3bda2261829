"""Concurrent-access tests for :class:`ResultCache`.

Two bug classes this file pins down:

* **mtime-reset survival** — LRU eviction and TTL sweeps once ranked entries
  by file ``st_mtime``, so tooling that resets mtimes on restore (CI cache
  actions) made the entire cache look idle; recency now lives in the
  store's ``last_use`` column, which no file mtime can touch;
* plain **multi-process hammering** — N processes sharing one cache
  directory must not corrupt entries, and every read of an entry stored
  before the readers start must return it.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

from helpers import cache_clock, cache_rows, strip_timing
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
            assert record is not None and record["benchmark"] == "QFT"


class TestMultiProcessHammer:
    def test_concurrent_put_get_no_corruption(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        keys = keys_for(6)
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


def _read_in_a_forked_child(cache: ResultCache, key: str) -> None:
    assert cache._conn is None  # the parent closed it before the fork
    assert cache.get(key) is not None  # the child opens a connection of its own


class TestOneConnectionPerStore:
    def test_threads_sharing_one_store_lose_no_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(4)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))

        served = []

        def read_all():
            for _ in range(25):
                for key in keys:
                    served.append(cache.get(key) is not None)

        threads = [threading.Thread(target=read_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # every get returned a record: no interleaving lost one
        assert served == [True] * (4 * 25 * len(keys))

    def test_no_connection_crosses_a_fork(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = keys_for(1)[0]
        cache.put(key, JOB, payload_for(0))
        assert cache._conn is not None
        child = multiprocessing.get_context("fork").Process(
            target=_read_in_a_forked_child, args=(cache, key)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert cache._conn is None  # closed in the parent too, before the fork
        assert cache.get(key) is not None  # and reopened on the next use


# --------------------------------------------------------------------------
# mtime-independent recency (CI cache-restore survival)


class TestMtimeResetRecency:
    def _reset_all_mtimes(self, cache: ResultCache) -> None:
        for path in cache.cache_dir.iterdir():
            os.utime(path, (1, 1))  # 1970: the pathological restore

    def test_sweep_spares_logged_recent_entries_after_mtime_reset(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(4)
        for index, key in enumerate(keys):
            cache.put(key, JOB, payload_for(index))
        # entries 0 and 1 are "in use"
        cache.get(keys[0])
        cache.get(keys[1])
        self._reset_all_mtimes(cache)

        # by mtime alone everything is decades stale; the stored last use
        # must save every entry (a cutoff in the future still sweeps all)
        result = cache.sweep_older_than(0.0, now=time.time() + 10.0, dry_run=True)
        assert result["removed"] == 4

        swept = cache.sweep_older_than(3600.0)
        assert swept["removed"] == 0  # every entry was used < 1h ago

    def test_sweep_uses_log_recency_not_mtime(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(2)
        now = time.time()
        # entry 0 was last used 2 days ago and entry 1 just now — recency
        # must come from the store, not st_mtime
        with cache_clock(now - 2 * 86400):
            cache.put(keys[0], JOB, payload_for(0))
        with cache_clock(now):
            cache.put(keys[1], JOB, payload_for(1))
        self._reset_all_mtimes(cache)
        result = cache.sweep_older_than(86400.0)
        assert result["removed"] == 1
        assert cache.get(keys[1]) is not None
        assert cache.peek(keys[0]) is None

    def test_eviction_order_follows_logged_recency_after_mtime_reset(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(3)
        now = time.time()
        # keys[1] oldest, then keys[2], keys[0] most recent
        for key, age in ((keys[1], 300), (keys[2], 200), (keys[0], 100)):
            with cache_clock(now - age):
                cache.put(key, JOB, payload_for(0))
        self._reset_all_mtimes(cache)
        entry_size = cache_rows(cache)[0][1]
        # cap so exactly one entry must go: the LRU pick is keys[1]
        capped = ResultCache(tmp_path / "cache", max_bytes=int(entry_size * 2.5))
        with cache_clock(now - 100):  # re-put keys[0] at its own stamp: the cap applies
            capped.put(keys[0], JOB, payload_for(0))
        assert capped.peek(keys[1]) is None
        assert capped.peek(keys[0]) is not None
        assert capped.peek(keys[2]) is not None

    def test_put_time_alone_ranks_unserved_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = keys_for(2)
        with cache_clock(time.time() - 10 * 86400):
            cache.put(keys[0], JOB, payload_for(0))
        cache.put(keys[1], JOB, payload_for(1))
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
