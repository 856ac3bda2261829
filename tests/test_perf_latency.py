"""Tests for the serve-path latency suite (``repro bench --latency``)."""

import json

import pytest

from repro.perf.bench import BenchWorkload
from repro.perf.latency import (
    LATENCY_SCHEMA_VERSION,
    format_latency,
    latency_regressed,
    load_latency,
    run_latency,
    strip_timing,
    workload_job,
    write_latency,
)
from repro.perf.timers import percentile


# --------------------------------------------------------------------------
# percentile (nearest-rank)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.5)

    def test_nearest_rank_values(self):
        values = [4.0, 1.0, 3.0, 2.0]  # unsorted on purpose
        assert percentile(values, 50) == 2.0  # rank ceil(0.5*4) = 2
        assert percentile(values, 75) == 3.0
        assert percentile(values, 99) == 4.0  # rank ceil(3.96) = 4
        assert percentile(values, 100) == 4.0

    def test_q_zero_is_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0

    def test_single_element(self):
        assert percentile([7.5], 50) == 7.5
        assert percentile([7.5], 99) == 7.5


# --------------------------------------------------------------------------
# canonical payload form


class TestStripTiming:
    def test_drops_wall_clock_keys_only(self):
        payload = {
            "baseline_depth": 10,
            "baseline_seconds": 0.123,
            "mech_seconds": 0.456,
            "seconds": {"baseline": 0.1},
            "extra": {"note": "kept"},
        }
        stripped = strip_timing(payload)
        assert stripped == {"baseline_depth": 10, "extra": {"note": "kept"}}

    def test_does_not_mutate_input(self):
        payload = {"seconds": {"mech": 0.2}, "depth": 4}
        strip_timing(payload)
        assert "seconds" in payload


# --------------------------------------------------------------------------
# workload -> job mapping


class TestWorkloadJob:
    def test_field_mapping(self):
        workload = BenchWorkload(
            name="qft-w5-2x2",
            benchmark="QFT",
            structure="square",
            chiplet_width=5,
            rows=2,
            cols=2,
            seed=7,
        )
        job = workload_job(workload, ["baseline", "mech"])
        assert job.benchmark == "QFT"
        assert job.structure == "square"
        assert job.chiplet_width == 5
        assert (job.rows, job.cols) == (2, 2)
        assert job.seed == 7
        assert job.compilers == ("baseline", "mech")


# --------------------------------------------------------------------------
# gate logic on synthetic documents


def synthetic_document(
    *,
    warm_cold_ratio: float = 0.2,
    warm_concurrent_p99: float = 0.05,
    results_identical: bool = True,
) -> dict:
    return {
        "schema_version": LATENCY_SCHEMA_VERSION,
        "suite": "quick",
        "compilers": ["baseline", "mech"],
        "requests": 4,
        "concurrency": 2,
        "results_identical": results_identical,
        "aggregate": {
            "cold_p50": 1.0,
            "cold_p99": 1.2,
            "warm_p50": warm_cold_ratio,
            "warm_p99": warm_cold_ratio * 1.5,
            "warm_concurrent_p50": warm_concurrent_p99 * 0.8,
            "warm_concurrent_p99": warm_concurrent_p99,
            "warm_cold_ratio": warm_cold_ratio,
            "throughput_rps": 40.0,
        },
        "rows": [
            {
                "workload": "qft-w5-1x2",
                "results_identical": results_identical,
                "cold_p50": 1.0,
                "warm_p50": warm_cold_ratio,
                "warm_p99": warm_cold_ratio * 1.5,
                "warm_concurrent_p50": warm_concurrent_p99 * 0.8,
                "warm_concurrent_p99": warm_concurrent_p99,
            }
        ],
    }


class TestLatencyGate:
    def test_passing_document(self):
        assert latency_regressed(synthetic_document()) == []

    def test_ratio_gate(self):
        reasons = latency_regressed(
            synthetic_document(warm_cold_ratio=0.9), max_warm_ratio=0.75
        )
        assert len(reasons) == 1
        assert "warm/cold p50 ratio" in reasons[0]

    def test_p99_gate_only_when_requested(self):
        document = synthetic_document(warm_concurrent_p99=2.0)
        assert latency_regressed(document) == []
        reasons = latency_regressed(document, max_p99=1.0)
        assert len(reasons) == 1
        assert "p99" in reasons[0]

    def test_identity_failure_always_gates(self):
        reasons = latency_regressed(synthetic_document(results_identical=False))
        assert any("byte-identical" in reason for reason in reasons)

    def test_missing_aggregate_gates(self):
        document = synthetic_document()
        del document["aggregate"]
        reasons = latency_regressed(document)
        assert any("no aggregate" in reason for reason in reasons)

    def test_format_contains_rows_and_aggregate(self):
        text = format_latency(synthetic_document())
        assert "qft-w5-1x2" in text
        assert "warm/cold" in text
        assert "yes" in text

    def test_format_flags_identity_failure(self):
        text = format_latency(synthetic_document(results_identical=False))
        assert "NO" in text


# --------------------------------------------------------------------------
# document round-trip


class TestLatencyDocuments:
    def test_write_and_load_round_trip(self, tmp_path):
        document = synthetic_document()
        path = write_latency(document, tmp_path)
        assert path.name.startswith("LATENCY") and path.suffix == ".json"
        loaded = load_latency(path)
        assert loaded["aggregate"]["warm_cold_ratio"] == 0.2

    def test_load_rejects_wrong_schema(self, tmp_path):
        document = synthetic_document()
        document["schema_version"] = 99
        path = tmp_path / "LATENCY_bad.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="schema"):
            load_latency(path)

    def test_load_rejects_non_document(self, tmp_path):
        path = tmp_path / "LATENCY_junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a repro latency document"):
            load_latency(path)


# --------------------------------------------------------------------------
# one real (tiny) measurement run


class TestRunLatencySmall:
    def test_quick_limit_one_end_to_end(self):
        messages = []
        document = run_latency(
            "quick",
            requests=2,
            concurrency=2,
            cold_requests=1,
            limit=1,
            progress=messages.append,
        )
        assert document["schema_version"] == LATENCY_SCHEMA_VERSION
        assert document["suite"] == "quick"
        assert document["cold_includes_process_startup"] is True
        assert len(document["rows"]) == 1
        row = document["rows"][0]
        assert row["results_identical"] is True
        assert document["results_identical"] is True
        assert len(row["cold_seconds"]) == 1
        assert len(row["warm_seconds"]) == 2
        assert len(row["warm_concurrent_seconds"]) == 2
        aggregate = document["aggregate"]
        # the acceptance bar: warm p50 at most half of cold p50 (the CI gate
        # allows 0.75; a warm compile skips spawn+import+state entirely so in
        # practice the ratio sits well under both)
        assert aggregate["warm_cold_ratio"] < 0.75
        assert aggregate["throughput_rps"] > 0
        assert document["warm_state"]["devices_resident"] == 1
        assert latency_regressed(document) == []
        assert messages  # progress callback was exercised

    def test_run_latency_validates_arguments(self):
        with pytest.raises(ValueError, match="requests"):
            run_latency("quick", requests=0)
        with pytest.raises(ValueError, match="cold_requests"):
            run_latency("quick", cold_requests=0)
        with pytest.raises(ValueError, match="concurrency"):
            run_latency("quick", concurrency=0)
        with pytest.raises(ValueError, match="limit"):
            run_latency("quick", limit=0)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="quick"):
            run_latency("no-such-suite")
