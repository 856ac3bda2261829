"""Tests for the longitudinal bench-history analytics: ``repro.perf.history``
loading/sorting/rescaling, the per-backend trend deltas, the drift gate, the
TREND document, and the ``repro bench --history`` CLI exit codes.

The synthetic-document tests build BENCH documents by hand so every number
in the trend report is checkable against arithmetic; the committed-samples
test runs the real pipeline over ``benchmarks/history/`` — the same
documents the CI bench-history job seeds its cache from.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.bench import BENCH_SCHEMA_VERSION
from repro.perf.history import (
    TREND_SCHEMA_VERSION,
    HistoryError,
    compute_history,
    format_history,
    history_report,
    load_history,
    write_trend,
)

REPO_HISTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "history"


def _doc(
    seconds_by_row,
    *,
    created=0.0,
    calibration=1.0,
    metrics=None,
    phases=None,
):
    """A synthetic BENCH document; ``seconds_by_row`` maps
    ``(workload, backend) -> seconds``."""
    rows = []
    for (workload, backend), seconds in seconds_by_row.items():
        row = {
            "workload": workload,
            "backend": backend,
            "seconds": seconds,
            **(metrics or {"swaps": 10.0, "depth": 20.0, "eff_cnots": 30.0}),
        }
        if phases is not None:
            row["phases"] = dict(phases)
        rows.append(row)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "quick",
        "seed": 7,
        "created_at": "synthetic",
        "created_unix": created,
        "compilers": sorted({backend for _, backend in seconds_by_row}),
        "calibration_seconds": calibration,
        "rows": rows,
    }


def _write(directory, name, document):
    path = Path(directory) / name
    path.write_text(json.dumps(document))
    return path


class TestLoadHistory:
    def test_sorted_by_created_unix_not_filename(self, tmp_path):
        # filenames deliberately sort against the recording times
        _write(tmp_path, "BENCH_a.json", _doc({("w", "mech"): 1.0}, created=300))
        _write(tmp_path, "BENCH_b.json", _doc({("w", "mech"): 2.0}, created=100))
        _write(tmp_path, "BENCH_c.json", _doc({("w", "mech"): 3.0}, created=200))
        documents, skipped = load_history(tmp_path)
        assert [p.name for p, _ in documents] == [
            "BENCH_b.json",
            "BENCH_c.json",
            "BENCH_a.json",
        ]
        assert skipped == []

    def test_invalid_documents_are_skipped_not_fatal(self, tmp_path):
        _write(tmp_path, "BENCH_good.json", _doc({("w", "mech"): 1.0}))
        (tmp_path / "BENCH_junk.json").write_text("{not json")
        _write(
            tmp_path,
            "BENCH_oldschema.json",
            {"schema_version": 99, "rows": []},
        )
        documents, skipped = load_history(tmp_path)
        assert [p.name for p, _ in documents] == ["BENCH_good.json"]
        assert sorted(entry["file"] for entry in skipped) == [
            "BENCH_junk.json",
            "BENCH_oldschema.json",
        ]

    def test_non_bench_files_ignored(self, tmp_path):
        _write(tmp_path, "BENCH_one.json", _doc({("w", "mech"): 1.0}))
        (tmp_path / "TREND_x.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("hi")
        documents, _ = load_history(tmp_path)
        assert len(documents) == 1

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(HistoryError, match="does not exist"):
            load_history(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(HistoryError, match="no BENCH_"):
            load_history(tmp_path)

    def test_all_invalid_raises(self, tmp_path):
        (tmp_path / "BENCH_junk.json").write_text("{not json")
        with pytest.raises(HistoryError, match="passed schema validation"):
            load_history(tmp_path)


class TestComputeHistory:
    _dirs = 0

    def _history(self, tmp_path, docs, **kwargs):
        TestComputeHistory._dirs += 1
        root = tmp_path / f"h{TestComputeHistory._dirs}"
        root.mkdir()
        for index, doc in enumerate(docs):
            _write(root, f"BENCH_{index}.json", doc)
        documents, skipped = load_history(root)
        return compute_history(documents, skipped=skipped, **kwargs)

    def test_deltas_vs_oldest_and_previous(self, tmp_path):
        report = self._history(
            tmp_path,
            [
                _doc({("w", "mech"): 4.0}, created=1),
                _doc({("w", "mech"): 2.0}, created=2),
                _doc({("w", "mech"): 1.0}, created=3),
            ],
        )
        entry = report["backends"]["mech"]
        assert entry["vs_oldest"]["wallclock_speedup"] == pytest.approx(4.0)
        assert entry["vs_previous"]["wallclock_speedup"] == pytest.approx(2.0)
        assert entry["vs_oldest"]["matched"] == 1
        assert not entry["drifted"]
        assert not report["regressed"]
        assert report["schema_version"] == TREND_SCHEMA_VERSION

    def test_calibration_rescales_every_document(self, tmp_path):
        # the old machine was 2x faster (calibration 0.5 vs the newest 1.0):
        # its 1.0s equals 2.0s on the reference machine, so an identical-speed
        # run shows speedup 1.0 only after rescaling
        report = self._history(
            tmp_path,
            [
                _doc({("w", "mech"): 1.0}, created=1, calibration=0.5),
                _doc({("w", "mech"): 2.0}, created=2, calibration=1.0),
            ],
        )
        entry = report["backends"]["mech"]
        assert entry["vs_previous"]["wallclock_speedup"] == pytest.approx(1.0)
        assert entry["points"][0]["wallclock_geomean"] == pytest.approx(2.0)
        assert entry["points"][1]["wallclock_geomean"] == pytest.approx(2.0)
        assert report["reference_calibration_seconds"] == pytest.approx(1.0)

    def test_drift_gate_fires_past_threshold(self, tmp_path):
        docs = [
            _doc({("w", "mech"): 1.0}, created=1),
            _doc({("w", "mech"): 1.6}, created=2),  # 60% slower than previous
        ]
        drifted = self._history(tmp_path, docs, max_drift=0.5)
        assert drifted["backends"]["mech"]["drifted"]
        assert drifted["regressed"]
        assert "DRIFT" in format_history(drifted)

        tolerant = self._history(tmp_path, docs, max_drift=0.75)
        assert not tolerant["regressed"]
        assert "no backend drifted" in format_history(tolerant)

    def test_drift_compares_previous_not_oldest(self, tmp_path):
        # slow creep: each step within the gate even though the total is not
        report = self._history(
            tmp_path,
            [
                _doc({("w", "mech"): 1.0}, created=1),
                _doc({("w", "mech"): 1.4}, created=2),
                _doc({("w", "mech"): 1.96}, created=3),
            ],
            max_drift=0.5,
        )
        entry = report["backends"]["mech"]
        assert entry["vs_oldest"]["wallclock_speedup"] == pytest.approx(1 / 1.96)
        assert not entry["drifted"]

    def test_backend_missing_from_some_documents(self, tmp_path):
        report = self._history(
            tmp_path,
            [
                _doc({("w", "baseline"): 1.0}, created=1),
                _doc({("w", "baseline"): 1.0, ("w", "mech"): 2.0}, created=2),
                _doc({("w", "baseline"): 1.0, ("w", "mech"): 1.0}, created=3),
            ],
        )
        mech = report["backends"]["mech"]
        assert mech["documents"] == [1, 2]
        assert mech["points"][0] is None
        # mech's "previous" is document 1, not the mech-less document 0
        assert mech["vs_previous"]["wallclock_speedup"] == pytest.approx(2.0)
        single = self._history(tmp_path, [_doc({("w", "mech"): 1.0})])
        assert single["backends"]["mech"]["vs_oldest"] is None
        assert single["backends"]["mech"]["vs_previous"] is None
        assert not single["regressed"]

    def test_metric_ratios_are_new_over_old(self, tmp_path):
        report = self._history(
            tmp_path,
            [
                _doc(
                    {("w", "mech"): 1.0},
                    created=1,
                    metrics={"swaps": 10.0, "depth": 20.0, "eff_cnots": 40.0},
                ),
                _doc(
                    {("w", "mech"): 1.0},
                    created=2,
                    metrics={"swaps": 5.0, "depth": 30.0, "eff_cnots": 40.0},
                ),
            ],
        )
        delta = report["backends"]["mech"]["vs_previous"]
        assert delta["swaps_ratio"] == pytest.approx(0.5)
        assert delta["depth_ratio"] == pytest.approx(1.5)
        assert delta["eff_cnots_ratio"] == pytest.approx(1.0)

    def test_phase_seconds_summed_and_rescaled(self, tmp_path):
        report = self._history(
            tmp_path,
            [
                _doc(
                    {("a", "mech"): 1.0, ("b", "mech"): 1.0},
                    created=1,
                    calibration=0.5,
                    phases={"route": 0.25, "layout": 0.05},
                ),
                _doc(
                    {("a", "mech"): 1.0},
                    created=2,
                    calibration=1.0,
                    phases={"route": 0.5},
                ),
            ],
        )
        points = report["backends"]["mech"]["points"]
        assert points[0]["phase_seconds"]["route"] == pytest.approx(1.0)
        assert points[0]["phase_seconds"]["layout"] == pytest.approx(0.2)
        assert points[1]["phase_seconds"] == {"route": pytest.approx(0.5)}

    def test_write_trend_document(self, tmp_path):
        report = self._history(tmp_path, [_doc({("w", "mech"): 1.0})])
        path = write_trend(report, tmp_path / "out")
        assert path.name.startswith("TREND_") and path.suffix == ".json"
        assert json.loads(path.read_text())["schema_version"] == TREND_SCHEMA_VERSION

    def test_bad_max_drift_rejected(self, tmp_path):
        docs = [(Path("x"), _doc({("w", "mech"): 1.0}))]
        with pytest.raises(ValueError, match="max_drift"):
            compute_history(docs, max_drift=-0.1)
        with pytest.raises(ValueError, match="max_drift"):
            compute_history(docs, max_drift=float("nan"))
        with pytest.raises(HistoryError, match="at least one"):
            compute_history([])


class TestCommittedSamples:
    """The repo ships real bench documents the CI job seeds its cache from."""

    def test_at_least_two_documents_committed(self):
        assert len(sorted(REPO_HISTORY.glob("BENCH_*.json"))) >= 2

    def test_history_report_over_committed_samples(self):
        report = history_report(REPO_HISTORY)
        assert report["skipped"] == []
        assert len(report["documents"]) >= 2
        # the default pair spans every committed document
        for backend in ("baseline", "mech"):
            entry = report["backends"][backend]
            assert len(entry["documents"]) == len(report["documents"])
            assert entry["vs_oldest"]["wallclock_speedup"] > 0
            assert entry["vs_previous"]["matched"] >= 1
        text = format_history(report)
        assert "baseline" in text and "mech" in text


class TestHistoryCli:
    def _seed(self, tmp_path, seconds=(1.0, 1.0)):
        history = tmp_path / "history"
        history.mkdir()
        for index, value in enumerate(seconds):
            _write(
                history,
                f"BENCH_{index}.json",
                _doc({("w", "mech"): value}, created=float(index)),
            )
        return history

    def test_history_passes_and_writes_trend(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        code = main(
            ["bench", "--history", str(history), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro bench history: 2 documents" in out
        assert "trend report:" in out
        assert len(list((tmp_path / "out").glob("TREND_*.json"))) == 1

    def test_history_drift_gate_exits_1(self, tmp_path, capsys):
        history = self._seed(tmp_path, seconds=(1.0, 2.0))
        code = main(
            [
                "bench",
                "--history",
                str(history),
                "--out-dir",
                str(tmp_path / "out"),
                "--max-drift",
                "0.5",
            ]
        )
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_history_json_mode(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        code = main(
            [
                "bench",
                "--history",
                str(history),
                "--out-dir",
                str(tmp_path / "out"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trend"]["schema_version"] == TREND_SCHEMA_VERSION
        assert "mech" in payload["trend"]["backends"]
        assert payload["path"].endswith(".json")

    def test_history_usage_errors(self, tmp_path, capsys):
        history = self._seed(tmp_path)
        # empty / missing directory
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", "--history", str(empty)]) == 2
        assert main(["bench", "--history", str(tmp_path / "missing")]) == 2
        # --history and --against are mutually exclusive
        assert (
            main(
                [
                    "bench",
                    "--history",
                    str(history),
                    "--against",
                    str(history / "BENCH_0.json"),
                ]
            )
            == 2
        )
        # bad drift threshold
        assert main(["bench", "--history", str(history), "--max-drift", "-1"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert "--max-drift must be >= 0" in err

    def test_history_does_not_compile(self, tmp_path, monkeypatch):
        # analysis-only: the compile path must never be touched
        import repro.perf.bench as bench_module

        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("--history must not run the bench suite")

        monkeypatch.setattr(bench_module, "run_bench", boom)
        history = self._seed(tmp_path)
        assert (
            main(
                ["bench", "--history", str(history), "--out-dir", str(tmp_path / "o")]
            )
            == 0
        )


class TestBackendsSweepCli:
    def test_backends_all_expands_to_registry(self, tmp_path, monkeypatch, capsys):
        import repro.perf.bench as bench_module
        from repro.backends import available_backends

        captured = {}

        def fake_run_bench(suite, *, compilers=None, repeat=1, progress=None, verify=False):
            captured["compilers"] = tuple(compilers)
            return _doc({("w", name): 1.0 for name in compilers}, created=1.0)

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
            lambda suite, *, compilers=None, repeat=1, progress=None, verify=False: _doc(
                {("w", name): 1.0 for name in compilers}, created=1.0
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
