"""Unit tests for the experiment-orchestration engine.

Covers the acceptance properties of the engine: config-hash stability,
cache hit/miss behaviour, parallel/serial result identity, in-run
deduplication, tag handling and the JSON/CSV artifact writer.
"""

import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from helpers import cache_clock, rot_cache_entry, strip_timing
from repro.experiments import devices
from repro.experiments.devices import WarmStateRegistry
from repro.experiments.engine import (
    CACHE_VERSION,
    Job,
    ResultCache,
    config_key,
    job_from_dict,
    job_to_dict,
    noise_from_items,
    noise_to_items,
    record_from_payload,
    record_to_payload,
    run_jobs,
    run_jobs_report,
    set_warm_state_provider,
    write_artifacts,
)
from repro.experiments.fig13_sensitivity import sensitivity_results_from_records
from repro.hardware.noise import DEFAULT_NOISE

#: The cheapest meaningful job: BV on a 1x2 array of 4x4 chiplets.
TINY = Job(benchmark="BV", chiplet_width=4, rows=1, cols=2, seed=1)


def _dicts(records):
    return [r.as_dict() for r in records]


class TestConfigHash:
    def test_deterministic_and_sensitive(self):
        assert config_key(TINY) == config_key(Job(benchmark="BV", chiplet_width=4, rows=1, cols=2, seed=1))
        assert config_key(TINY) != config_key(TINY.with_(seed=2))
        assert config_key(TINY) != config_key(TINY.with_(chiplet_width=5))
        assert config_key(TINY) != config_key(TINY.with_(kind="sensitivity"))

    def test_tags_do_not_affect_the_hash(self):
        tagged = TINY.with_(tags=(("sweep_value", 3.0),))
        assert config_key(tagged) == config_key(TINY)

    def test_stable_across_serialization_roundtrip(self):
        job = TINY.with_(
            benchmark_kwargs=(("layers", 2),),
            params=(("meas_latencies", (1.0, 2.0)),),
            tags=(("label", "x"),),
        )
        clone = job_from_dict(job_to_dict(job))
        assert clone == job
        assert config_key(clone) == config_key(job)

    def test_pinned_hash_value(self):
        # Guards the canonical-JSON hashing scheme: if this changes, every
        # existing cache directory is invalidated, so change CACHE_VERSION too.
        # (Version 2: jobs hash their compiler list, see the backends package.)
        assert CACHE_VERSION == 2
        assert config_key(TINY) == (
            "386b64d3a435ab2050b0c797f8501019ec5453e1425b483d256c5ed1d88b90a7"
        )

    def test_noise_roundtrip(self):
        items = noise_to_items(DEFAULT_NOISE)
        assert noise_from_items(items) == DEFAULT_NOISE
        swept = DEFAULT_NOISE.with_ratios(meas_latency=8.0)
        assert config_key(TINY) != config_key(TINY.with_(noise=noise_to_items(swept)))


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = [TINY, TINY.with_(seed=2)]
        records1, report1 = run_jobs_report(jobs, cache=cache)
        assert (report1.cache_hits, report1.executed) == (0, 2)
        assert len(cache) == 2

        records2, report2 = run_jobs_report(jobs, cache=cache)
        assert (report2.cache_hits, report2.executed) == (2, 0)
        assert _dicts(records1) == _dicts(records2)

    def test_cache_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([TINY], cache=cache)
        rot_cache_entry(cache, config_key(TINY), None, cache_version=CACHE_VERSION + 1)
        assert cache.get(config_key(TINY)) is None
        # a skew is not rot: the row stays and nothing counts as corrupt
        assert cache.corrupt_seen == 0
        assert len(cache) == 1 and cache.stats()["corrupt_entries"] == 0

    def test_corrupt_entry_is_a_miss_and_gets_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        records1, _ = run_jobs_report([TINY], cache=cache)
        rot_cache_entry(cache, config_key(TINY))
        records2, report = run_jobs_report([TINY], cache=cache)
        assert report.executed == 1
        assert _dicts(records1) == _dicts(records2)

    def test_non_dict_json_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        for garbage in ("null", "[]", '"str"'):
            run_jobs([TINY], cache=cache)  # (re)stores the entry a get just dropped
            rot_cache_entry(cache, config_key(TINY), garbage)
            assert cache.get(config_key(TINY)) is None

    def test_completed_jobs_are_cached_even_when_a_later_job_fails(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = TINY.with_(benchmark="NOPE")
        with pytest.raises(ValueError):
            run_jobs([TINY, bad], cache=cache)
        # the job that finished before the failure survived in the cache
        assert cache.get(config_key(TINY)) is not None
        _, report = run_jobs_report([TINY], cache=cache)
        assert report.cache_hits == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([TINY], cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_cache_accepts_plain_paths(self, tmp_path):
        _, report1 = run_jobs_report([TINY], cache=str(tmp_path))
        _, report2 = run_jobs_report([TINY], cache=tmp_path)
        assert report1.executed == 1
        assert report2.cache_hits == 1

    def test_corrupt_entries_are_dropped_and_surfaced_in_the_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([TINY], cache=cache)
        rot_cache_entry(cache, config_key(TINY))
        _, report = run_jobs_report([TINY], cache=cache)
        assert report.corrupt_entries == 1
        assert report.executed == 1
        assert cache.corrupt_seen == 1
        assert "1 corrupt cache entry dropped" in report.summary()


def _fake_key(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()


def _fake_payload(label: str) -> dict:
    return {"benchmark": label, "padding": "x" * 64}


#: Puts ever new entries into the cache at ``sys.argv[1]`` until killed.
_PUT_LOOP = """
import sys
from repro.experiments.engine import Job, ResultCache
cache = ResultCache(sys.argv[1])
job = Job(benchmark="BV")
index = 0
while True:
    cache.put(f"{index:064x}", job, {"benchmark": "BV", "index": index, "pad": "x" * 4096})
    index += 1
"""


class TestShardedCache:
    """The store's layout, LRU eviction and crash safety."""

    def test_entries_live_in_one_database_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _fake_key("a")
        cache.put(key, TINY, _fake_payload("a"))
        assert cache.db_path == tmp_path / "cache.sqlite"
        assert [entry["key"] for entry in cache.eviction_ranking()] == [key]
        assert not any(path.is_dir() for path in tmp_path.iterdir())
        assert cache.get(key) == _fake_payload("a")

    def test_clear_removes_every_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fake_key("a"), TINY, _fake_payload("a"))
        cache.put(_fake_key("b"), TINY, _fake_payload("b"))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(_fake_key("a")) is None

    def test_lru_eviction_removes_oldest_entries_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache_clock(1000):
            cache.put(_fake_key("one"), TINY, _fake_payload("one"))
        cache.max_bytes = int(cache.eviction_ranking()[0]["bytes"] * 2.5)
        with cache_clock(2000):
            cache.put(_fake_key("two"), TINY, _fake_payload("two"))
        with cache_clock(3000):
            cache.put(_fake_key("three"), TINY, _fake_payload("three"))
        assert cache.peek(_fake_key("one")) is None  # oldest evicted
        assert cache.peek(_fake_key("two")) is not None
        assert cache.peek(_fake_key("three")) is not None
        assert cache.evicted == 1

    def test_get_refreshes_lru_rank(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache_clock(1000):
            cache.put(_fake_key("one"), TINY, _fake_payload("one"))
        with cache_clock(2000):
            cache.put(_fake_key("two"), TINY, _fake_payload("two"))
        with cache_clock(3000):
            assert cache.get(_fake_key("one")) is not None  # refreshes "one"
        cache.max_bytes = int(cache.eviction_ranking()[0]["bytes"] * 2.5)
        with cache_clock(4000):
            cache.put(_fake_key("three"), TINY, _fake_payload("three"))
        assert cache.peek(_fake_key("one")) is not None
        assert cache.peek(_fake_key("three")) is not None
        assert cache.peek(_fake_key("two")) is None  # "two" became the least recently used

    def test_a_killed_writer_leaves_every_entry_whole(self, tmp_path):
        cache_dir = tmp_path / "cache"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        writer = subprocess.Popen([sys.executable, "-c", _PUT_LOOP, str(cache_dir)], env=env)
        try:
            cache = ResultCache(cache_dir)
            deadline = time.monotonic() + 60
            while len(cache) < 20 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(cache) >= 20
        finally:
            writer.send_signal(signal.SIGKILL)
            writer.wait()
        cache = ResultCache(cache_dir)  # the store opens after the crash
        keys = [entry["key"] for entry in cache.eviction_ranking()]
        assert len(keys) >= 20
        for key in keys:
            record = cache.peek(key)
            assert record is not None and record["pad"] == "x" * 4096
            assert f"{record['index']:064x}" == key
        assert cache.stats()["corrupt_entries"] == 0

    def test_clear_leaves_no_entry_and_no_side_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fake_key("a"), TINY, _fake_payload("a"))
        assert cache.get(_fake_key("a")) is not None
        assert (tmp_path / "cache.sqlite-wal").exists()  # the write-ahead log
        assert cache.clear() == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache.sqlite"]
        assert len(cache) == 0  # (a read reopens the store)

    def test_sharded_json_entries_of_the_old_layout_only_miss(self, tmp_path):
        key = _fake_key("a")
        legacy = tmp_path / key[:2] / f"{key}.json"
        legacy.parent.mkdir()
        legacy.write_text(json.dumps({"cache_version": CACHE_VERSION, "record": {"x": 1}}))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert len(cache) == 0
        assert legacy.exists()

    def test_a_database_that_cannot_open_degrades_puts_to_pass_through(self, tmp_path):
        (tmp_path / "cache.sqlite").mkdir()  # sqlite cannot open a directory
        cache = ResultCache(tmp_path)
        cache.put(_fake_key("a"), TINY, _fake_payload("a"))
        assert cache.write_errors == 1 and cache.degraded
        assert cache.get(_fake_key("a")) is None

    def test_non_positive_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=-1)

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_fake_key("a"), TINY, _fake_payload("a"))
        cache.put(_fake_key("b"), TINY, _fake_payload("b"))
        rot_cache_entry(cache, _fake_key("b"), "{rotten")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["corrupt_entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]


class TestExecution:
    def test_parallel_matches_serial(self):
        jobs = [TINY, TINY.with_(rows=2), TINY.with_(seed=3)]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        assert _dicts(serial) == _dicts(parallel)

    def test_identical_jobs_deduplicated_within_a_run(self):
        records, report = run_jobs_report([TINY, TINY, TINY.with_(tags=(("t", 1.0),))])
        assert report.total == 3
        assert report.executed == 1
        assert report.deduplicated == 2
        assert len(records) == 3
        # the tagged copy shares the computation but keeps its own extras
        assert records[2].extra["t"] == 1.0
        assert "t" not in records[0].extra

    def test_tags_survive_cache_retrieval(self, tmp_path):
        tagged = TINY.with_(tags=(("highway_density", 2.0),))
        first = run_jobs([tagged], cache=tmp_path)
        second = run_jobs([tagged], cache=tmp_path)
        assert first[0].extra["highway_density"] == 2.0
        assert second[0].extra["highway_density"] == 2.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            run_jobs([TINY.with_(kind="nope")])

    def test_progress_callback_fires_per_executed_job(self):
        seen = []
        run_jobs([TINY, TINY.with_(seed=9)], progress=seen.append)
        assert len(seen) == 2

    def test_record_payload_roundtrip(self):
        record = run_jobs([TINY])[0]
        clone = record_from_payload(record_to_payload(record))
        assert clone.as_dict() == record.as_dict()
        assert clone.extra is not record.extra

    def test_sensitivity_job_series_roundtrip(self, tmp_path):
        job = TINY.with_(
            kind="sensitivity",
            params=(
                ("meas_latencies", (1.0, 4.0)),
                ("meas_error_ratios", (1.0, 3.0)),
                ("cross_error_ratios", (4.0, 8.0)),
            ),
        )
        cold = run_jobs([job], cache=tmp_path)
        warm, report = run_jobs_report([job], cache=tmp_path)
        assert report.cache_hits == 1
        assert _dicts(cold) == _dicts(warm)
        result = sensitivity_results_from_records(warm)[0]
        assert [x for x, _ in result.depth_vs_latency] == [1.0, 4.0]
        assert [x for x, _ in result.eff_vs_meas_error] == [1.0, 3.0]
        assert [x for x, _ in result.eff_vs_cross_error] == [4.0, 8.0]


#: Eight jobs on two devices: four benchmarks on each of two chiplet widths.
TWO_DEVICE_JOBS = [
    Job(benchmark=name, chiplet_width=width, rows=1, cols=2, seed=seed)
    for width in (3, 4)
    for seed, name in enumerate(("BV", "QFT", "QAOA", "VQE"))
]


def _payloads(records):
    return [json.dumps(strip_timing(record_to_payload(r)), sort_keys=True) for r in records]


class TestWarmStateOnRunPaths:
    """With no provider installed, every run path reuses device state."""

    @pytest.fixture
    def fresh_per_job(self):
        """Payloads with a fresh registry per job: every device built cold."""
        previous = set_warm_state_provider(lambda job: WarmStateRegistry().get(job))
        try:
            records, report = run_jobs_report(TWO_DEVICE_JOBS)
        finally:
            set_warm_state_provider(previous)
        assert report.executed == len(TWO_DEVICE_JOBS)
        return _payloads(records)

    def test_in_process_run_builds_each_device_once(self, monkeypatch, fresh_per_job):
        registry = WarmStateRegistry()
        monkeypatch.setattr(devices, "_DEFAULT", registry)
        records, report = run_jobs_report(TWO_DEVICE_JOBS)
        assert report.executed == len(TWO_DEVICE_JOBS)
        stats = registry.stats()
        assert (stats["cold_builds"], stats["warm_hits"]) == (2, 6)
        assert _payloads(records) == fresh_per_job

    def test_forked_workers_match_a_fresh_registry_per_job(self, fresh_per_job):
        records, report = run_jobs_report(TWO_DEVICE_JOBS, workers=2)
        assert report.executed == len(TWO_DEVICE_JOBS)
        assert _payloads(records) == fresh_per_job

    def test_a_forked_child_starts_with_a_fresh_default_registry(self):
        parent = devices.default_registry()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            fresh = devices._DEFAULT is None and devices.default_registry() is not parent
            os._exit(0 if fresh else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert devices.default_registry() is parent


class TestArtifacts:
    @pytest.fixture(scope="class")
    def records(self):
        return run_jobs([TINY, TINY.with_(seed=2, tags=(("sweep", 1.0),))])

    def test_json_and_csv_written(self, tmp_path, records):
        paths = write_artifacts(
            "demo", records, tmp_path, text="demo table", metadata={"scale": "small"}
        )
        doc = json.loads(paths["json"].read_text())
        assert doc["experiment"] == "demo"
        assert doc["scale"] == "small"
        assert len(doc["records"]) == 2
        assert doc["records"][0]["benchmark"] == "BV"
        assert "depth_improvement" in doc["records"][0]

        with open(paths["csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["benchmark"] == "BV"
        # the tag column exists for both rows; the untagged one is blank
        assert rows[1]["sweep"] == "1.0"
        assert rows[0]["sweep"] == ""

        assert paths["txt"].read_text().startswith("demo table")

    def test_json_matches_records(self, tmp_path, records):
        paths = write_artifacts("demo", records, tmp_path)
        doc = json.loads(paths["json"].read_text())
        for row, record in zip(doc["records"], records, strict=True):
            assert row["baseline_depth"] == record.baseline_depth
            assert row["mech_depth"] == record.mech_depth
            assert row["depth_improvement"] == pytest.approx(record.depth_improvement)


class TestVerifyHook:
    """REPRO_VERIFY gates in-line static verification of fresh compilations."""

    def test_clean_compilation_passes_under_verify(self, monkeypatch):
        from repro.experiments.engine import VERIFY_ENV

        monkeypatch.setenv(VERIFY_ENV, "1")
        records, report = run_jobs_report([TINY])
        assert report.failed == 0 and len(records) == 1

    def test_tampered_compilation_fails_the_job(self, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.engine import VERIFY_ENV, JobPolicy

        monkeypatch.setenv(VERIFY_ENV, "1")
        real = runner_module.compile_many

        def tampering(*args, **kwargs):
            compiled = real(*args, **kwargs)
            ops = compiled.results["mech"].circuit._ops
            index = max(
                i
                for i, op in enumerate(ops)
                if op.name in ("cx", "cz", "cp") and op.condition is None
            )
            del ops[index]
            return compiled

        monkeypatch.setattr(runner_module, "compile_many", tampering)
        records, report = run_jobs_report(
            [TINY], policy=JobPolicy(on_error="record")
        )
        assert report.failed == 1 and not records
        (error,) = report.errors
        assert error.error_type == "VerificationError"
        assert "backend 'mech'" in error.message
        assert "violation(s)" in error.message

    def test_verify_off_by_default(self, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.engine import VERIFY_ENV

        monkeypatch.delenv(VERIFY_ENV, raising=False)
        real = runner_module.compile_many

        def tampering(*args, **kwargs):
            compiled = real(*args, **kwargs)
            ops = compiled.results["mech"].circuit._ops
            del ops[max(i for i, op in enumerate(ops) if len(op.qubits) == 2)]
            return compiled

        monkeypatch.setattr(runner_module, "compile_many", tampering)
        records, report = run_jobs_report([TINY])
        # without the env var the tamper sails through: verification is opt-in
        assert report.failed == 0 and len(records) == 1
