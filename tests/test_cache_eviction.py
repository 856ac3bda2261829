"""Tests for access-ranked eviction and its CLI surfaces.

The eviction daemon (``repro clean-cache --watch``) combines the TTL sweep
with an access-ranked pass: entries with the fewest recorded hits go first,
ties broken by least-recent use, then by entry name — and ``repro
cache-stats --rank access`` must print *exactly* that order, because it is
the operator's preview of what the daemon will delete.
"""

import json
import time

import pytest

from helpers import cache_clock
from repro.cli import main
from repro.experiments.engine import Job, ResultCache, config_key


def _job(seed):
    return Job(benchmark="BV", chiplet_width=4, rows=1, cols=2, seed=seed)


def _payload(seed):
    return {"record_type": "comparison", "seed": seed, "blob": "x" * 512}


@pytest.fixture()
def warm_cache(tmp_path):
    """Four entries with distinct hit counts and last uses, oldest first."""
    cache = ResultCache(tmp_path / "cache")
    keys = []
    now = time.time()
    for seed in range(4):
        job = _job(seed)
        key = config_key(job)
        with cache_clock(now - 1000 + seed):
            cache.put(key, job, _payload(seed))
        keys.append(key)
    # seed 2 gets two hits, seed 3 one hit; 0 and 1 stay cold
    cache.get(keys[2])
    cache.get(keys[2])
    cache.get(keys[3])
    return cache, keys


class TestEvictionRanking:
    def test_ranking_orders_by_hits_then_recency(self, warm_cache):
        cache, keys = warm_cache
        ranking = cache.eviction_ranking()
        assert [entry["key"] for entry in ranking] == [
            keys[0],  # 0 hits, oldest
            keys[1],  # 0 hits, newer
            keys[3],  # 1 hit
            keys[2],  # 2 hits — most valuable, evicted last
        ]
        assert all(entry["bytes"] > 0 for entry in ranking)

    def test_a_get_refreshes_an_entrys_rank(self, warm_cache):
        cache, keys = warm_cache
        cache.get(keys[0])
        cache.get(keys[0])
        cache.get(keys[0])
        ranking = cache.eviction_ranking()
        assert ranking[-1]["key"] == keys[0]  # 3 hits: now the most valuable

    def test_evict_ranked_removes_the_head_until_under_cap(self, warm_cache):
        cache, keys = warm_cache
        ranking = cache.eviction_ranking()
        total = sum(entry["bytes"] for entry in ranking)
        # cap sized to force out exactly the two cold entries
        cap = total - ranking[0]["bytes"] - ranking[1]["bytes"]
        result = cache.evict_ranked(cap)
        assert result["removed"] == 2
        assert result["total_bytes"] <= cap
        assert cache.peek(keys[0]) is None
        assert cache.peek(keys[1]) is None
        assert cache.peek(keys[2]) is not None
        assert cache.peek(keys[3]) is not None

    def test_evict_ranked_dry_run_counts_what_the_real_pass_removes(self, warm_cache):
        cache, keys = warm_cache
        cap = cache.eviction_ranking()[-1]["bytes"] * 2
        preview = cache.evict_ranked(cap, dry_run=True)
        assert len(cache) == 4  # nothing deleted
        assert cache.evict_ranked(cap) == preview
        assert preview["removed"] == 2 and cache.evicted == 2

    def test_evict_ranked_is_a_noop_under_the_cap(self, warm_cache):
        cache, _keys = warm_cache
        result = cache.evict_ranked(10 * 1024 * 1024)
        assert result["removed"] == 0
        assert len(cache) == 4


class TestCacheStatsRankCli:
    def test_rank_access_prints_the_daemons_exact_order(self, warm_cache, capsys):
        cache, keys = warm_cache
        assert main(["cache-stats", "--cache-dir", str(cache.cache_dir), "--rank", "access"]) == 0
        out = capsys.readouterr().out
        positions = {key: out.index(key[:16]) for key in keys}
        assert positions[keys[0]] < positions[keys[1]] < positions[keys[3]] < positions[keys[2]]

    def test_rank_access_json_document(self, warm_cache, capsys):
        cache, keys = warm_cache
        assert main(
            ["cache-stats", "--cache-dir", str(cache.cache_dir), "--rank", "access", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["key"] for entry in document] == [keys[0], keys[1], keys[3], keys[2]]
        assert [entry["rank"] for entry in document] == [1, 2, 3, 4]
        assert document[0]["hits"] == 0
        assert document[-1]["hits"] == 2

    def test_rank_access_on_an_empty_cache(self, tmp_path, capsys):
        assert main(["cache-stats", "--cache-dir", str(tmp_path / "none"), "--rank", "access"]) == 0
        assert "empty" in capsys.readouterr().out


class TestCleanCacheCli:
    def test_max_mb_dry_run_matches_the_real_eviction(self, warm_cache, capsys):
        cache, _keys = warm_cache
        total_mb = sum(e["bytes"] for e in cache.eviction_ranking()) / 1048576
        cap = f"{total_mb / 2:.6f}"
        assert main(
            ["clean-cache", "--cache-dir", str(cache.cache_dir), "--max-mb", cap, "--dry-run"]
        ) == 0
        preview = capsys.readouterr().out
        assert "would evict" in preview
        assert main(["clean-cache", "--cache-dir", str(cache.cache_dir), "--max-mb", cap]) == 0
        real = capsys.readouterr().out
        # dry run predicted exactly what the real pass then did
        assert preview.replace("would evict", "evicted") == real

    def test_watch_requires_a_policy(self, tmp_path, capsys):
        assert main(["clean-cache", "--cache-dir", str(tmp_path), "--watch"]) == 2
        assert "needs at least one policy" in capsys.readouterr().err

    def test_max_cycles_requires_watch(self, tmp_path, capsys):
        assert main(["clean-cache", "--cache-dir", str(tmp_path), "--max-cycles", "1"]) == 2
        assert "--max-cycles requires --watch" in capsys.readouterr().err

    def test_watch_rejects_dry_run(self, tmp_path, capsys):
        assert main(
            ["clean-cache", "--cache-dir", str(tmp_path), "--watch", "--max-mb", "1", "--dry-run"]
        ) == 2
        assert "drop --dry-run" in capsys.readouterr().err

    def test_daemon_cycles_combine_ttl_and_ranked_eviction(self, warm_cache, capsys):
        cache, keys = warm_cache
        # TTL sweeps nothing (entries are seconds old, threshold is 1 day);
        # the cap pass evicts the two cold entries — all in one daemon cycle
        ranking = cache.eviction_ranking()
        keep_bytes = sum(e["bytes"] for e in ranking[2:])
        cap_mb = f"{(keep_bytes + 10) / 1048576:.6f}"
        assert main(
            [
                "clean-cache", "--cache-dir", str(cache.cache_dir), "--watch",
                "--interval", "0.05", "--max-cycles", "2",
                "--older-than", "1", "--max-mb", cap_mb,
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "stopped after 2 cycle(s)" in captured.err
        lines = [line for line in captured.out.splitlines() if "evicted" in line]
        assert len(lines) == 2  # one ranked pass per cycle
        assert "evicted 2" in lines[0]  # first cycle did the work
        assert "evicted 0" in lines[1]  # second cycle found a healthy cache
        assert cache.peek(keys[2]) is not None
        assert cache.peek(keys[3]) is not None
        assert len(cache) == 2
