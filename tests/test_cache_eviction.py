"""Tests for ``repro clean-cache --max-mb`` and for databases of the older schema.

The cache keeps one recency order, each entry's last use.  ``clean-cache
--max-mb`` runs the put-time LRU cap's own statement once, so it evicts the
least recently used entries first (ties by key) until the cache fits, and
``--dry-run`` previews exactly that pass.  Access-ranked eviction and the
eviction daemon are gone: their options are usage errors.

A database written before the hit and miss tallies were dropped carries a
``hits`` column and a ``totals`` table the store no longer names; it must
keep working without a migration.
"""

import contextlib
import json
import sqlite3

import pytest

from helpers import cache_clock, cache_rows
from repro.cli import main
from repro.experiments.engine import Job, ResultCache, config_key
from repro.experiments.jobs import CACHE_VERSION, job_to_dict

#: The last uses the fixture stamps, oldest first; the middle two tie.
_STAMPS = (1000.0, 2000.0, 2000.0, 3000.0)


def _job(seed):
    return Job(benchmark="BV", chiplet_width=4, rows=1, cols=2, seed=seed)


def _payload(seed):
    return {"record_type": "comparison", "seed": seed, "blob": "x" * 512}


def _fill(cache_dir):
    """Four entries stamped with :data:`_STAMPS`; their keys in put order."""
    cache = ResultCache(cache_dir)
    keys = []
    for seed, stamp in enumerate(_STAMPS):
        job = _job(seed)
        keys.append(config_key(job))
        with cache_clock(stamp):
            cache.put(keys[-1], job, _payload(seed))
    return cache, keys


@pytest.fixture()
def warm_cache(tmp_path):
    return _fill(tmp_path / "cache")


def _clean(cache, *options):
    return main(["clean-cache", "--cache-dir", str(cache.cache_dir), *options])


def _mb(nbytes):
    """``--max-mb`` text the CLI turns back into exactly ``nbytes``."""
    return repr(nbytes / 1048576)


def _survivors(cache):
    return {key for key, _, _ in cache_rows(cache)}


class TestEvictionRanking:
    def test_max_mb_evicts_in_the_put_caps_order(self, tmp_path, capsys):
        """The pass and a capped put over the same table keep the same entries:
        the most recently used ones, ties on last use broken by key."""
        cleaned, keys = _fill(tmp_path / "cleaned")
        rows = cache_rows(cleaned)
        assert rows[0][0] == keys[0]
        cap = sum(size for _, size, _ in rows[2:]) + 10  # room for the newest two
        assert _clean(cleaned, "--max-mb", _mb(cap)) == 0
        assert "evicted 2 least recently used entries" in capsys.readouterr().out

        capped, _ = _fill(tmp_path / "capped")
        # re-put the newest entry at its own stamp: the table is unchanged,
        # then the put-time cap runs
        with cache_clock(_STAMPS[-1]):
            ResultCache(capped.cache_dir, max_bytes=cap).put(keys[-1], _job(3), _payload(3))
        expected = {key for key, _, _ in rows[2:]}
        assert _survivors(cleaned) == _survivors(capped) == expected
        assert keys[0] not in expected and keys[3] in expected

    def test_a_get_refreshes_an_entrys_rank(self, warm_cache, capsys):
        """A get saves the oldest entry from the pass."""
        cache, keys = warm_cache
        with cache_clock(4000.0):
            assert cache.get(keys[0]) == _payload(0)
        sizes = {key: size for key, size, _ in cache_rows(cache)}
        cap = sizes[keys[0]] + sizes[keys[3]] + 10
        assert _clean(cache, "--max-mb", _mb(cap)) == 0
        assert "evicted 2 " in capsys.readouterr().out
        assert _survivors(cache) == {keys[0], keys[3]}

    def test_evict_ranked_dry_run_counts_what_the_real_pass_removes(self, warm_cache, capsys):
        """A ``--max-mb`` preview touches no row, not even a last use, and the
        count it prints is the LRU head the real pass then removes."""
        cache, keys = warm_cache
        rows = cache_rows(cache)
        cap = rows[-1][1] * 2 + 10  # room for the newest two
        assert _clean(cache, "--max-mb", _mb(cap), "--dry-run") == 0
        assert "would evict 2 " in capsys.readouterr().out
        assert cache_rows(cache) == rows
        assert _clean(cache, "--max-mb", _mb(cap)) == 0
        assert "evicted 2 " in capsys.readouterr().out
        assert cache_rows(cache) == rows[2:]
        assert keys[0] not in _survivors(cache)


class TestCleanCacheCli:
    def test_max_mb_dry_run_matches_the_real_eviction(self, warm_cache, capsys):
        cache, _keys = warm_cache
        total = sum(size for _, size, _ in cache_rows(cache))
        cap = _mb(total // 2 + 10)  # room for the newest two
        assert _clean(cache, "--max-mb", cap, "--dry-run") == 0
        preview = capsys.readouterr().out
        assert "would evict 2 " in preview
        assert len(cache) == 4  # nothing deleted
        assert _clean(cache, "--max-mb", cap) == 0
        real = capsys.readouterr().out
        # dry run predicted exactly what the real pass then did
        assert preview.replace("would evict", "evicted") == real
        assert len(cache) == 2

    def test_max_mb_is_a_noop_under_the_cap(self, warm_cache, capsys):
        cache, keys = warm_cache
        assert _clean(cache, "--max-mb", "10") == 0
        assert "evicted 0 " in capsys.readouterr().out
        assert _survivors(cache) == set(keys)

    @pytest.mark.parametrize("cap", ["0", "-1", "nan"])
    def test_a_non_positive_max_mb_exits_2(self, warm_cache, capsys, cap):
        cache, keys = warm_cache
        assert _clean(cache, "--max-mb", cap) == 2
        assert "--max-mb must be positive" in capsys.readouterr().err
        assert _survivors(cache) == set(keys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cache-stats", "--rank", "access"],
            ["clean-cache", "--watch", "--max-mb", "1"],
            ["clean-cache", "--max-mb", "1", "--interval", "1"],
            ["clean-cache", "--max-mb", "1", "--max-cycles", "1"],
        ],
        ids=["rank", "watch", "interval", "max-cycles"],
    )
    def test_removed_options_are_usage_errors(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2


# --------------------------------------------------------------------------
# a database written by the schema that kept hit and miss tallies

#: That schema's statements, verbatim.
_TALLIED_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY,"
    " cache_version INTEGER NOT NULL, job TEXT NOT NULL, record TEXT NOT NULL,"
    " bytes INTEGER NOT NULL, hits INTEGER NOT NULL DEFAULT 0, last_use REAL NOT NULL)",
    "CREATE TABLE IF NOT EXISTS totals (id INTEGER PRIMARY KEY CHECK (id = 0),"
    " misses INTEGER NOT NULL)",
    "INSERT OR IGNORE INTO totals VALUES (0, 0)",
    "PRAGMA user_version = 1",
)


@pytest.fixture()
def tallied_db(tmp_path):
    """Three tallied entries: the oldest was served most, the middle never."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    keys = []
    with contextlib.closing(sqlite3.connect(cache_dir / "cache.sqlite")) as conn:
        conn.execute("PRAGMA journal_mode = WAL")
        for statement in _TALLIED_SCHEMA:
            conn.execute(statement)
        for seed, (hits, last_use) in enumerate(((9, 1000.0), (0, 2000.0), (1, 3000.0))):
            job = _job(seed)
            key = config_key(job)
            job_json = json.dumps({k: v for k, v in job_to_dict(job).items() if k != "tags"})
            record_json = json.dumps(_payload(seed), separators=(",", ":"))
            size = len(key) + len(job_json) + len(record_json)
            conn.execute(
                "INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?, ?)",
                (key, CACHE_VERSION, job_json, record_json, size, hits, last_use),
            )
            keys.append(key)
        conn.execute("UPDATE totals SET misses = 4")
        conn.commit()
    return cache_dir, keys


class TestTalliedSchemaDatabase:
    def test_a_hit_returns_the_record_and_refreshes_its_last_use(self, tallied_db):
        cache_dir, keys = tallied_db
        cache = ResultCache(cache_dir)
        with cache_clock(5000.0):
            assert cache.get(keys[1]) == _payload(1)
        assert dict((key, use) for key, _, use in cache_rows(cache))[keys[1]] == 5000.0
        assert not cache.degraded and cache.corrupt_seen == 0

    def test_a_miss_returns_none(self, tallied_db):
        cache_dir, _keys = tallied_db
        cache = ResultCache(cache_dir)
        assert cache.get(config_key(_job(99))) is None
        assert cache.peek(config_key(_job(99))) is None
        assert not cache.degraded

    def test_a_capped_put_stores_a_row_and_evicts_in_lru_order(self, tallied_db):
        cache_dir, keys = tallied_db
        rows = cache_rows(ResultCache(cache_dir))
        cap = sum(size for _, size, _ in rows) + 10  # room for three of four
        cache = ResultCache(cache_dir, max_bytes=cap)
        with cache_clock(4000.0):
            cache.put(config_key(_job(3)), _job(3), _payload(3))
        # the oldest entry goes although it was served most
        assert _survivors(cache) == {keys[1], keys[2], config_key(_job(3))}
        assert cache.get(config_key(_job(3))) == _payload(3)
        assert cache.evicted == 1 and not cache.degraded

    def test_sweeps_preview_exactly_what_they_remove(self, tallied_db, capsys):
        cache_dir, keys = tallied_db
        cache = ResultCache(cache_dir)
        preview = cache.sweep_older_than(1500.0, dry_run=True, now=3000.0)
        assert preview["removed"] == 1 and len(cache) == 3
        assert cache.sweep_older_than(1500.0, now=3000.0) == preview
        assert _survivors(cache) == {keys[1], keys[2]}

        cap = _mb(min(size for _, size, _ in cache_rows(cache)) + 10)
        assert main(["clean-cache", "--cache-dir", str(cache_dir), "--max-mb", cap, "--dry-run"]) == 0
        dry = capsys.readouterr().out
        assert "would evict 1 " in dry
        assert main(["clean-cache", "--cache-dir", str(cache_dir), "--max-mb", cap]) == 0
        assert dry.replace("would evict", "evicted") == capsys.readouterr().out
        assert _survivors(cache) == {keys[2]}
        assert not cache.degraded

    def test_clear_and_stats(self, tallied_db):
        cache_dir, _keys = tallied_db
        cache = ResultCache(cache_dir)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["corrupt_entries"] == 0
        assert (stats["oldest_mtime"], stats["newest_mtime"]) == (1000.0, 3000.0)
        assert cache.clear() == 3
        assert len(cache) == 0 and cache.stats()["entries"] == 0
        assert not cache.degraded
