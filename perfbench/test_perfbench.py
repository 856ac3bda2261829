"""Tests of the benchmark's own helpers (no compilation, a few seconds)."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from perfbench.spans import Span, Tracer, self_times_ns
from perfbench.stats import MIN_BEYOND, median, percentile, tail
from perfbench.workloads import (
    HIT_REPEATS,
    serve_mixed_stream,
    sweep_cache_jobs,
)

ROOT = Path(__file__).resolve().parent.parent


class TestTail:
    def test_no_tail_without_ten_samples_beyond_a_percentile_above_the_median(self):
        assert tail([1.0] * 39) is None
        assert tail(list(range(12))) is None

    def test_highest_qualifying_percentile(self):
        values = [float(v) for v in range(1, 1001)]
        found = tail(values)
        assert (found.percentile, found.samples) == (99.0, 1000)
        assert found.value == 990.0 and found.beyond == 10

    def test_every_reported_tail_has_min_beyond_samples_above_it(self):
        for count in (40, 100, 257, 512, 1600):
            found = tail([float(v) for v in range(count)])
            assert found is not None
            assert sum(1 for v in range(count) if v > found.value) >= MIN_BEYOND

    def test_percentile_is_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)


class TestMedian:
    def test_single_and_symmetric_samples(self):
        assert median([5.0]) == 5.0
        assert median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            median([])

    def test_moves_smoothly_across_a_gap_between_clusters(self):
        low, high = [1.0] * 49 + [10.0] * 51, [1.0] * 51 + [10.0] * 49
        assert percentile(low, 50) - percentile(high, 50) == 9.0
        assert 0.0 < median(low) - median(high) < 3.0


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            Span(1, "job", 0, 100, None, "j", 1),
            Span(2, "a", 10, 40, 1, "j", 1),
            Span(3, "b", 30, 60, 1, "j", 1),  # overlaps a: covered 10..60
            Span(4, "c", 20, 25, 2, "j", 1),
        ]
        assert self_times_ns(spans) == {"job": 50, "a": 25, "b": 30, "c": 5}

    def test_tracer_nests_spans(self):
        tracer = Tracer()
        with tracer.span("outer", "j"):
            with tracer.span("inner", "j") as args:
                args["x"] = 1
        inner, outer = tracer.spans
        assert inner.parent == outer.id and inner.args == {"x": 1}
        times = self_times_ns(tracer.spans)
        assert times["outer"] == outer.duration_ns - inner.duration_ns

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_chrome_export_is_trace_event_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("job", "j"):
            pass
        tracer.write_chrome(tmp_path / "t.json")
        events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        assert events[0]["ph"] == "X" and events[0]["name"] == "job"


class TestDeterminism:
    def test_job_lists_repeat_per_seed(self):
        assert sweep_cache_jobs(3) == sweep_cache_jobs(3)

    def test_seeds_change_the_inputs(self):
        assert sweep_cache_jobs(3) != sweep_cache_jobs(4)

    def test_sweep_cache_covers_every_cell_with_distinct_jobs(self):
        jobs = sweep_cache_jobs(0)
        assert len(jobs) == len(set(jobs)) == 256
        cells = Counter((job.structure, job.benchmark) for job in jobs)
        assert len(cells) == 16 and set(cells.values()) == {16}

    def test_serve_stream_repeats_per_seed(self):
        assert serve_mixed_stream(5, 400) == serve_mixed_stream(5, 400)
        assert serve_mixed_stream(5, 400) != serve_mixed_stream(6, 400)


class TestServePartition:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_clients_own_disjoint_jobs_and_counts_are_exact(self, seed):
        stream = serve_mixed_stream(seed, 1200)
        owned = [set(requests) for requests in stream.clients]
        assert not owned[0] & owned[1]
        compiles = hits = 0
        for requests in stream.clients:
            seen = set()
            for job in requests:
                if job in seen:
                    hits += 1
                else:
                    compiles += 1
                    seen.add(job)
        assert (compiles, hits) == (stream.compiles, stream.hits)
        assert hits == HIT_REPEATS * compiles
        assert stream.requests == sum(len(requests) for requests in stream.clients)


def test_benchmark_json_keeps_to_its_schema():
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
