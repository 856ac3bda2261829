"""Tests for the performance subsystem: phase timers, the ``repro bench``
suites/documents/comparisons, the CLI command, and what reads of the result
cache write (``repro cache-stats --json`` reports the cache)."""

from __future__ import annotations

import json
import os

import pytest

from helpers import cache_clock, cache_rows
from repro.cli import main
from repro.experiments.engine import Job, ResultCache, noise_to_items
from repro.hardware.noise import DEFAULT_NOISE
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    SUITES,
    BenchWorkload,
    compare_bench,
    format_bench,
    format_comparison,
    load_bench,
    measure_calibration,
    run_bench,
    workload_job,
    write_bench,
)
from repro.perf.timers import PhaseTimer, phase_breakdown

TINY_SUITE = (
    BenchWorkload(
        name="square4-1x2/qft",
        benchmark="QFT",
        structure="square",
        chiplet_width=4,
        rows=1,
        cols=2,
    ),
)


@pytest.fixture
def tiny_suite(monkeypatch):
    """Shrink the quick suite to one workload so CLI tests stay fast."""
    import repro.perf.bench as bench_module

    monkeypatch.setitem(bench_module.SUITES, "quick", TINY_SUITE)
    return TINY_SUITE


# --------------------------------------------------------------------------
# timers


class TestPhaseTimer:
    def test_phases_accumulate_and_write_stats(self):
        timer = PhaseTimer()
        with timer.phase("route"):
            pass
        with timer.phase("route"):
            pass
        timer.add("simulate", 0.25)
        stats = {"swaps_inserted": 3.0}
        timer.write_stats(stats)
        assert stats["phase_simulate_seconds"] == 0.25
        assert stats["phase_route_seconds"] >= 0.0
        assert stats["swaps_inserted"] == 3.0
        assert all(isinstance(v, float) for v in stats.values())

    def test_phase_breakdown_roundtrip(self):
        stats = {
            "phase_route_seconds": 1.5,
            "phase_layout_seconds": 0.5,
            "swaps_inserted": 7.0,
            "phase__seconds": 9.0,  # empty phase name is ignored
        }
        assert phase_breakdown(stats) == {"route": 1.5, "layout": 0.5}

    def test_compilers_record_phases(self):
        from repro.backends import get_backend
        from repro.hardware.array import ChipletArray

        array = ChipletArray("square", 4, 1, 2)
        for name, expected in (("baseline", "route"), ("mech", "schedule")):
            result = get_backend(name).configure(array, seed=1).compile(
                _tiny_circuit(array)
            )
            phases = phase_breakdown(result.stats)
            assert expected in phases and phases[expected] > 0
            assert "layout" in phases


def _tiny_circuit(array):
    from repro.highway.layout import HighwayLayout
    from repro.programs import qft_circuit

    return qft_circuit(HighwayLayout(array, density=1).num_data_qubits)


# --------------------------------------------------------------------------
# bench documents


class TestBenchDocument:
    def test_suites_are_pinned(self):
        assert set(SUITES) == {"quick", "fig12", "full"}
        for workloads in SUITES.values():
            assert workloads  # never empty
        fig12 = SUITES["fig12"]
        assert all(w.chiplet_width == 7 for w in fig12)
        assert {(w.rows, w.cols) for w in fig12} == {(2, 2), (2, 3), (3, 3), (3, 4)}

    def test_document_schema(self, tiny_suite, tmp_path):
        doc = run_bench("quick", compilers=("baseline", "mech"))
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["suite"] == "quick"
        assert doc["compilers"] == ["baseline", "mech"]
        assert doc["calibration_seconds"] > 0
        assert len(doc["rows"]) == len(tiny_suite) * 2
        for row in doc["rows"]:
            for field in (
                "workload",
                "benchmark",
                "architecture",
                "num_data_qubits",
                "backend",
                "seconds",
                "swaps",
                "depth",
                "eff_cnots",
                "phases",
            ):
                assert field in row
            assert row["seconds"] > 0
            assert isinstance(row["phases"], dict) and row["phases"]
        path = write_bench(doc, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        assert load_bench(path)["rows"] == doc["rows"]
        assert format_bench(doc)  # renders without raising

    def test_write_bench_never_overwrites(self, tiny_suite, tmp_path):
        doc = run_bench("quick", compilers=("baseline", "mech"))
        first = write_bench(doc, tmp_path)
        second = write_bench(doc, tmp_path)
        assert first != second and first.exists() and second.exists()

    def test_same_second_writes_do_not_collide(self, tmp_path, monkeypatch):
        # regression: BENCH_<timestamp>.json is second-granular, so two runs
        # starting in the same second used to race onto the same filename;
        # the name now carries the pid and a counter, and creation is atomic
        import repro.perf.bench as bench_module

        monkeypatch.setattr(
            bench_module.time, "strftime", lambda fmt: "20260101-000000"
        )
        doc = _fake_doc({("w1", "baseline"): 1.0})
        paths = [write_bench(doc, tmp_path) for _ in range(3)]
        assert len(set(paths)) == 3
        assert all(p.exists() for p in paths)
        pid = f"-p{os.getpid()}"
        assert all(pid in p.name for p in paths)
        # the counter kicks in, never an overwrite
        assert paths[0].name == f"BENCH_20260101-000000{pid}.json"
        assert paths[1].name == f"BENCH_20260101-000000{pid}.1.json"
        assert paths[2].name == f"BENCH_20260101-000000{pid}.2.json"
        for path in paths:
            assert json.loads(path.read_text())["rows"] == doc["rows"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_bench("nope")

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema_version": 99, "rows": []}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

    def test_calibration_is_positive_and_repeatable(self):
        assert measure_calibration(repeats=1) > 0

    def test_records_the_fastest_per_workload_calibration(self, monkeypatch):
        import repro.perf.bench as bench_module
        import repro.perf.workloads as workloads_module

        suite = tuple(
            BenchWorkload(name=f"w{i}", benchmark="QFT", structure="square",
                          chiplet_width=4, rows=1, cols=2)
            for i in range(3)
        )
        monkeypatch.setitem(bench_module.SUITES, "quick", suite)
        compiled: list[str] = []

        def fake_compile(workload, compilers, *, verify=False):
            compiled.append(workload.name)
            return {name: {"backend": name, "seconds": 1.0} for name in compilers}

        samples = iter([0.8, 0.5, 0.9])
        calls: list[int] = []

        def fake_calibration(repeats=5):
            # one probe after each workload, never before its compile
            calls.append(len(compiled))
            return next(samples)

        monkeypatch.setattr(workloads_module, "compile_workload", fake_compile)
        monkeypatch.setattr(bench_module, "measure_calibration", fake_calibration)
        doc = run_bench("quick", compilers=("baseline",), repeat=2)
        assert calls == [2, 4, 6]
        assert doc["calibration_seconds"] == 0.5


def _fake_doc(seconds_by_row, calibration=1.0, metrics=None):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "quick",
        "seed": 7,
        "compilers": ["baseline"],
        "calibration_seconds": calibration,
        "rows": [
            {"workload": workload, "backend": backend, "seconds": seconds, **(metrics or {})}
            for (workload, backend), seconds in seconds_by_row.items()
        ],
    }


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


class TestCompareBench:
    def test_speedup_and_geomean(self):
        old = _fake_doc({("w1", "baseline"): 4.0, ("w2", "baseline"): 9.0})
        new = _fake_doc({("w1", "baseline"): 1.0, ("w2", "baseline"): 1.0})
        cmp = compare_bench(old, new)
        assert cmp["matched"] == 2
        assert cmp["geomean_speedup"] == pytest.approx(6.0)
        assert not cmp["regressed"]
        assert format_comparison(cmp)

    def test_regression_detected_beyond_threshold(self):
        old = _fake_doc({("w1", "baseline"): 1.0})
        new = _fake_doc({("w1", "baseline"): 1.5})
        cmp = compare_bench(old, new, max_regression=0.25)
        assert cmp["regressed"]
        assert "REGRESSION" in format_comparison(cmp)
        ok = compare_bench(old, _fake_doc({("w1", "baseline"): 1.2}))
        assert not ok["regressed"]

    def test_calibration_rescales_old_timings(self):
        # old machine was 2x faster (calibration 0.5 vs 1.0): its 1.0s
        # workload corresponds to 2.0s here, so a 2.0s run is no regression
        old = _fake_doc({("w1", "baseline"): 1.0}, calibration=0.5)
        new = _fake_doc({("w1", "baseline"): 2.0}, calibration=1.0)
        cmp = compare_bench(old, new)
        assert cmp["calibration_ratio"] == pytest.approx(2.0)
        assert cmp["rows"][0]["speedup"] == pytest.approx(1.0)
        assert not cmp["regressed"]

    def test_routing_output_drift_fails(self):
        old = _fake_doc({("w1", "baseline"): 1.0, ("w2", "mech"): 1.0})
        new = _fake_doc({("w1", "baseline"): 1.0, ("w2", "mech"): 1.0})
        for doc in (old, new):
            for row in doc["rows"]:
                row.update(swaps=476.0, depth=1165.0, eff_cnots=4969.8)
        same = compare_bench(old, new)
        assert same["drift"] == [] and not same["failed"]
        new["rows"][1]["swaps"] = 508.0
        drifted = compare_bench(old, new)
        assert not drifted["regressed"]  # wall-clock is unchanged ...
        assert drifted["failed"]  # ... but the routed output moved
        assert drifted["drift"] == ["w2::mech swaps 476 -> 508"]
        assert "OUTPUT DRIFT: w2::mech swaps 476 -> 508" in format_comparison(drifted)

    def test_rows_without_output_fields_are_not_drift(self):
        cmp = compare_bench(
            _fake_doc({("w1", "baseline"): 1.0}), _fake_doc({("w1", "baseline"): 1.0})
        )
        assert cmp["drift"] == [] and not cmp["failed"]

    def test_unmatched_rows_reported(self):
        old = _fake_doc({("w1", "baseline"): 1.0})
        new = _fake_doc({("w2", "baseline"): 1.0})
        cmp = compare_bench(old, new)
        assert cmp["matched"] == 0
        assert set(cmp["missing"]) == {"w1::baseline", "w2::baseline"}


# --------------------------------------------------------------------------
# CLI


class TestBenchCli:
    def test_bench_quick_writes_document(self, tiny_suite, tmp_path, capsys):
        code = main(["bench", "--quick", "--out-dir", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "square4-1x2/qft" in out and "bench document:" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION

    def test_bench_json_mode(self, tiny_suite, tmp_path, capsys):
        code = main(
            ["bench", "--quick", "--out-dir", str(tmp_path), "--quiet", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"]["suite"] == "quick"
        assert payload["path"].endswith(".json")

    def test_bench_against_passes_and_fails(self, tiny_suite, tmp_path, capsys):
        assert main(["bench", "--quick", "--out-dir", str(tmp_path), "--quiet"]) == 0
        baseline = next(iter(tmp_path.glob("BENCH_*.json")))
        code = main(
            [
                "bench",
                "--quick",
                "--out-dir",
                str(tmp_path),
                "--quiet",
                "--against",
                str(baseline),
                "--max-regression",
                "1000",
            ]
        )
        assert code == 0
        assert "geometric-mean speedup" in capsys.readouterr().out
        # doctor the baseline to claim near-zero old timings -> regression
        doc = json.loads(baseline.read_text())
        for row in doc["rows"]:
            row["seconds"] = 1e-9
        fast = tmp_path / "BENCH_fast.json"
        fast.write_text(json.dumps(doc))
        code = main(
            [
                "bench",
                "--quick",
                "--out-dir",
                str(tmp_path),
                "--quiet",
                "--against",
                str(fast),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_against_fails_on_output_drift(self, tiny_suite, tmp_path, capsys):
        assert main(["bench", "--quick", "--out-dir", str(tmp_path), "--quiet"]) == 0
        doc = json.loads(next(iter(tmp_path.glob("BENCH_*.json"))).read_text())
        doc["rows"][0]["depth"] += 1  # a stale pinned routing output
        stale = tmp_path / "BENCH_stale.json"
        stale.write_text(json.dumps(doc))
        code = main(
            [
                "bench",
                "--quick",
                "--out-dir",
                str(tmp_path),
                "--quiet",
                "--against",
                str(stale),
                "--max-regression",
                "1000",
            ]
        )
        assert code == 1
        assert "OUTPUT DRIFT" in capsys.readouterr().out

    def test_bench_usage_errors(self, tmp_path, capsys):
        assert main(["bench", "--repeat", "0"]) == 2
        assert main(["bench", "--compilers", "baseline,nope"]) == 2
        assert main(["bench", "--against", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()


def _sweep_doc(compilers):
    """What a fake ``run_bench`` returns: one row per backend, with metrics."""
    return _fake_doc(
        {("w", name): 1.0 for name in compilers},
        metrics={"swaps": 10.0, "depth": 20.0, "eff_cnots": 30.0},
    )


class TestBackendsSweepCli:
    def test_backends_all_expands_to_registry(self, tmp_path, monkeypatch, capsys):
        import repro.perf.bench as bench_module
        from repro.backends import available_backends

        captured = {}

        def fake_run_bench(suite, *, compilers=None, repeat=1, progress=None, verify=False):
            captured["compilers"] = tuple(compilers)
            return _sweep_doc(compilers)

        monkeypatch.setattr(bench_module, "run_bench", fake_run_bench)
        code = main(
            ["bench", "--quick", "--backends", "all", "--out-dir", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert captured["compilers"] == tuple(available_backends())

    def test_single_backend_sweep_is_allowed(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_module

        monkeypatch.setattr(
            bench_module,
            "run_bench",
            lambda suite, *, compilers=None, repeat=1, progress=None, verify=False: _sweep_doc(
                compilers
            ),
        )
        assert (
            main(
                ["bench", "--quick", "--backends", "mech", "--out-dir", str(tmp_path), "--quiet"]
            )
            == 0
        )

    def test_duplicate_and_unknown_backends_rejected(self, capsys):
        assert main(["bench", "--backends", "mech,mech"]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert main(["bench", "--backends", "mech,nope"]) == 2
        assert "unknown compiler" in capsys.readouterr().err


class TestVerifyCli:
    def test_verify_quick_is_clean(self, tiny_suite, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "quick",
                "--compilers",
                "baseline,mech",
                "--out-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify suite=quick: 2/2 rows clean" in out
        files = list(tmp_path.glob("VERIFY_*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["clean"] is True and doc["dirty_rows"] == 0
        assert {row["backend"] for row in doc["rows"]} == {"baseline", "mech"}
        for row in doc["rows"]:
            assert row["verified"] is True and row["violations"] == 0
            assert row["verify"]["ok"] is True
            assert row["verify"]["ops_checked"] > 0
            assert "verify" in row["phases"]

    def test_verify_json_mode(self, tiny_suite, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--compilers",
                "baseline",
                "--out-dir",
                str(tmp_path),
                "--quiet",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify"]["clean"] is True
        assert payload["verify"]["compilers"] == ["baseline"]
        assert payload["path"].endswith(".json")

    def test_verify_unknown_backend_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["verify", "--compilers", "baseline,nope", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_verify_dirty_rows_exit_one(self, tiny_suite, tmp_path, capsys, monkeypatch):
        import repro.perf.workloads as workloads_module

        real = workloads_module.compile_workload

        def sabotaged(workload, compilers, *, verify=False):
            rows = real(workload, compilers, verify=verify)
            row = rows["baseline"]
            report = dict(row["verify"])
            report["ok"] = False
            report["violations"] = [
                {
                    "rule": "hardware",
                    "code": "uncoupled-2q",
                    "message": "cx acts on physical pair (0, 9)",
                    "gate_index": 3,
                    "qubits": [0, 9],
                    "counterexample": {},
                }
            ]
            row.update(verified=False, violations=1, verify=report)
            return rows

        monkeypatch.setattr(workloads_module, "compile_workload", sabotaged)
        code = main(
            [
                "verify",
                "--compilers",
                "baseline",
                "--out-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "0/1 rows clean" in captured.out
        assert "uncoupled-2q" in captured.err
        doc = json.loads(next(iter(tmp_path.glob("VERIFY_*.json"))).read_text())
        assert doc["clean"] is False and doc["dirty_rows"] == 1

    def test_bench_verify_flag_annotates_rows(self, tiny_suite, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--quick",
                "--compilers",
                "baseline",
                "--verify",
                "--out-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert "verify: all 1 rows clean" in capsys.readouterr().out
        doc = json.loads(next(iter(tmp_path.glob("BENCH_*.json"))).read_text())
        assert doc["verify"] is True
        assert all(row["verified"] for row in doc["rows"])

    def test_bench_without_verify_has_no_verdict(self, tiny_suite, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--quick",
                "--compilers",
                "baseline",
                "--out-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(next(iter(tmp_path.glob("BENCH_*.json"))).read_text())
        assert doc["verify"] is False
        assert all("verified" not in row for row in doc["rows"])


# --------------------------------------------------------------------------
# cache access telemetry


def _job(seed=0):
    return Job(
        benchmark="QFT",
        structure="square",
        chiplet_width=4,
        rows=1,
        cols=2,
        seed=seed,
        noise=noise_to_items(DEFAULT_NOISE),
    )


class TestCacheAccessTelemetry:
    """A read writes nothing but a hit's last use, and only :meth:`get` writes it."""

    def test_read_against_missing_cache_creates_nothing(self, tmp_path):
        cache_dir = tmp_path / "never-written"
        cache = ResultCache(cache_dir)
        assert cache.get("aa11") is None
        assert cache.peek("aa11") is None
        assert not cache_dir.exists()

    def test_peek_is_silent(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with cache_clock(1000.0):
            cache.put("aa11", _job(), {"kind": "compare", "record": {"x": 1.0}})
        assert cache.peek("aa11") is not None
        assert cache_rows(cache)[0][2] == 1000.0  # last use unchanged
        # so a TTL sweep after the peek still removes the entry
        assert cache.sweep_older_than(500.0, now=2000.0)["removed"] == 1
        assert cache.peek("aa11") is None

    def test_cache_stats_cli_json(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        cache.put("aa11", _job(), {"kind": "compare", "record": {"x": 1.0}})
        assert cache.get("aa11") is not None
        assert cache.get("cc33") is None
        code = main(["cache-stats", "--cache-dir", str(tmp_path / "cache"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 1
        assert doc["corrupt_entries"] == 0
        assert "access" not in doc  # no hit or miss tallies are kept


class TestZeroMatchComparisonFails:
    def test_cli_rejects_comparison_with_no_common_rows(self, tiny_suite, tmp_path, capsys):
        foreign = tmp_path / "BENCH_foreign.json"
        foreign.write_text(
            json.dumps(
                _fake_doc({("some-other-workload", "baseline"): 1.0})
            )
        )
        code = main(
            [
                "bench",
                "--quick",
                "--out-dir",
                str(tmp_path),
                "--quiet",
                "--against",
                str(foreign),
            ]
        )
        assert code == 2
        assert "no (workload, backend) rows in common" in capsys.readouterr().err

    def test_format_comparison_mentions_unmatched_rows(self):
        old = _fake_doc({("w1", "baseline"): 1.0, ("w2", "baseline"): 1.0})
        new = _fake_doc({("w1", "baseline"): 1.0})
        text = format_comparison(compare_bench(old, new))
        assert "unmatched row" in text and "w2::baseline" in text
