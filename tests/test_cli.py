"""End-to-end tests for the ``python -m repro`` CLI."""

import csv
import json
import os
import time

import pytest

from helpers import set_chaos_spec
from repro.cli import main
from repro.experiments.engine import ResultCache


@pytest.fixture()
def dirs(tmp_path):
    return {
        "cache": str(tmp_path / "cache"),
        "out": str(tmp_path / "artifacts"),
    }


def _run_fig12(dirs, *extra):
    return main(
        [
            "run",
            "fig12",
            "--scale",
            "small",
            "--benchmarks",
            "BV",
            "--jobs",
            "2",
            "--cache-dir",
            dirs["cache"],
            "--out-dir",
            dirs["out"],
            *extra,
        ]
    )


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table2", "fig12", "fig13", "fig14", "fig15", "fig16"):
            assert name in out


class TestRun:
    def test_run_writes_artifacts_and_caches(self, dirs, tmp_path, capsys):
        assert _run_fig12(dirs) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "0 cached, 3 executed" in out

        json_path = tmp_path / "artifacts" / "fig12.json"
        csv_path = tmp_path / "artifacts" / "fig12.csv"
        assert json_path.is_file() and csv_path.is_file()
        doc = json.loads(json_path.read_text())
        assert doc["experiment"] == "fig12"
        assert doc["scale"] == "small"
        assert len(doc["records"]) == 3
        first_records = doc["records"]

        # warm re-run: everything served from the cache, identical artifacts
        assert _run_fig12(dirs) == 0
        out = capsys.readouterr().out
        assert "3 cached, 0 executed" in out
        assert json.loads(json_path.read_text())["records"] == first_records

    def test_no_cache_disables_memoization(self, dirs, capsys):
        assert _run_fig12(dirs, "--no-cache") == 0
        assert _run_fig12(dirs, "--no-cache") == 0
        out = capsys.readouterr().out
        assert "0 cached, 3 executed" in out

    def test_run_verify_flag_checks_fresh_compilations(self, dirs, capsys, monkeypatch):
        from repro.experiments.engine import VERIFY_ENV

        # seed the key so monkeypatch restores the pre-test state afterwards
        # (the CLI exports VERIFY_ENV=1 for its worker processes)
        monkeypatch.setenv(VERIFY_ENV, "0")
        assert _run_fig12(dirs, "--verify") == 0
        assert os.environ[VERIFY_ENV] == "1"
        assert "0 cached, 3 executed" in capsys.readouterr().out

    def test_unknown_experiment_is_a_usage_error(self, dirs, capsys):
        assert main(["run", "fig99", "--cache-dir", dirs["cache"]]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "choose from" in err

    def test_unknown_scale_rejected_by_argparse(self, dirs):
        with pytest.raises(SystemExit):
            _run_fig12(dirs, "--scale", "galactic")


class TestCleanCache:
    def test_clean_cache_removes_entries(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", dirs["cache"]]) == 0
        assert "removed 3" in capsys.readouterr().out
        # next run recomputes
        assert _run_fig12(dirs) == 0
        assert "0 cached, 3 executed" in capsys.readouterr().out


class TestCacheStats:
    def test_stats_on_a_populated_cache(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        capsys.readouterr()
        assert main(["cache-stats", "--cache-dir", dirs["cache"]]) == 0
        out = capsys.readouterr().out
        assert "entries:      3" in out
        assert "corrupt:      0" in out

    def test_stats_on_an_empty_cache(self, dirs, capsys):
        assert main(["cache-stats", "--cache-dir", dirs["cache"]]) == 0
        assert "entries:      0" in capsys.readouterr().out


class TestFaultTolerance:
    def test_policy_flags_are_accepted(self, dirs):
        assert (
            _run_fig12(
                dirs, "--timeout", "600", "--retries", "1", "--reseed-on-retry",
                "--on-error", "record", "--cache-max-mb", "64",
            )
            == 0
        )

    def test_injected_failure_yields_exit_1_and_error_artifacts(
        self, dirs, tmp_path, monkeypatch, capsys
    ):
        set_chaos_spec(monkeypatch, "job-fail:BV")
        assert _run_fig12(dirs) == 1
        captured = capsys.readouterr()
        assert "FAILED BV" in captured.err
        assert "injected fault" in captured.err
        assert "3 failed" in captured.out

        doc = json.loads((tmp_path / "artifacts" / "fig12.json").read_text())
        assert doc["records"] == []
        assert len(doc["errors"]) == 3
        assert doc["errors"][0]["error_type"] == "RuntimeError"
        with open(tmp_path / "artifacts" / "fig12.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["error"] * 3

        checkpoint = json.loads(
            (tmp_path / "artifacts" / "fig12.checkpoint.json").read_text()
        )
        assert checkpoint["finished"] is True
        assert len(checkpoint["failed"]) == 3

        # failures were not cached: clearing the fault and rerunning recovers
        set_chaos_spec(monkeypatch, None)
        assert _run_fig12(dirs) == 0
        assert "0 cached, 3 executed" in capsys.readouterr().out

    def test_on_error_record_appends_failed_rows_to_the_table(
        self, dirs, tmp_path, monkeypatch, capsys
    ):
        set_chaos_spec(monkeypatch, "job-fail:BV")
        assert _run_fig12(dirs) == 1
        assert "FAILED after 1 attempt" in capsys.readouterr().out
        txt = (tmp_path / "artifacts" / "fig12.txt").read_text()
        assert "FAILED after 1 attempt" in txt

    def test_on_error_skip_omits_error_artifacts(self, dirs, tmp_path, monkeypatch, capsys):
        set_chaos_spec(monkeypatch, "job-fail:BV")
        assert _run_fig12(dirs, "--on-error", "skip") == 1
        assert "FAILED" not in capsys.readouterr().err
        doc = json.loads((tmp_path / "artifacts" / "fig12.json").read_text())
        assert doc["errors"] == []

    def test_malformed_chaos_spec_is_a_usage_error(self, dirs, monkeypatch, capsys):
        set_chaos_spec(monkeypatch, "explode")
        assert _run_fig12(dirs, "--no-cache") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_CHAOS: unknown fault kind 'explode'")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [("--timeout", "0"), ("--timeout", "nan"), ("--timeout", "inf"), ("--retries", "-1")],
    )
    def test_bad_policy_flags_are_usage_errors(self, dirs, tmp_path, capsys, flags):
        checkpoint = str(tmp_path / "artifacts" / "fig12.checkpoint.json")
        commands = [
            ["run", "fig12", "--cache-dir", dirs["cache"]],
            ["resume", checkpoint],
            ["farm", "run", "fig12", "--cache-dir", dirs["cache"]],
        ]
        if flags[0] == "--timeout":  # submit sends a timeout but no retry budget
            commands.append(["submit", "--port", "1", "--benchmark", "BV"])
        for argv in commands:
            assert main([*argv, *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flags[0][2:]} must be"), err
            assert "Traceback" not in err
        assert len(ResultCache(dirs["cache"])) == 0

    def test_negative_jobs_is_a_usage_error(self, dirs, tmp_path, capsys):
        checkpoint = str(tmp_path / "artifacts" / "fig12.checkpoint.json")
        for argv in (["run", "fig12", "--cache-dir", dirs["cache"]], ["resume", checkpoint]):
            assert main([*argv, "--jobs", "-3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --jobs must be >= 0"), err
        assert len(ResultCache(dirs["cache"])) == 0

    def test_farm_abort_prints_resume_hint_without_traceback(
        self, dirs, tmp_path, monkeypatch, capsys
    ):
        from repro.farm.launcher import LocalWorkerLauncher

        class ExitedWorker:
            def poll(self):
                return 0

            def terminate(self):
                pass

            def kill(self):
                pass

        monkeypatch.setattr(LocalWorkerLauncher, "launch", lambda self, *args: ExitedWorker())
        checkpoint = tmp_path / "artifacts" / "table2.checkpoint.json"
        argv = ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                "--cache-dir", dirs["cache"], "--out-dir", dirs["out"], "--quiet"]
        for command in (argv, ["resume", str(checkpoint), "--quiet"]):
            assert main([*command, "--jobs", "2"]) == 1
            err = capsys.readouterr().err
            assert "error: farm run aborted: every farm worker exited" in err
            assert f"resume with: repro resume {checkpoint}" in err
            assert "Traceback" not in err
        # the hint is actionable: an in-process resume finishes the sweep
        assert main(["resume", str(checkpoint), "--quiet"]) == 0

    def test_non_positive_cache_max_mb_is_a_usage_error(self, dirs, capsys):
        assert _run_fig12(dirs, "--cache-max-mb", "0") == 2
        assert "--cache-max-mb" in capsys.readouterr().err

    def test_healthy_run_writes_finished_checkpoint(self, dirs, tmp_path):
        assert _run_fig12(dirs) == 0
        checkpoint = json.loads(
            (tmp_path / "artifacts" / "fig12.checkpoint.json").read_text()
        )
        assert checkpoint["finished"] is True
        assert checkpoint["pending"] == [] and checkpoint["failed"] == []


class TestBenchmarkValidation:
    def test_unknown_benchmark_is_a_usage_error(self, dirs, capsys):
        assert main(["run", "fig12", "--benchmarks", "FOO", "--cache-dir", dirs["cache"]]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_empty_benchmarks_is_a_usage_error(self, dirs, capsys):
        assert main(["run", "fig12", "--benchmarks", "--cache-dir", dirs["cache"]]) == 2
        assert "no benchmarks given" in capsys.readouterr().err

    def test_lowercase_benchmark_shares_cache_with_uppercase(self, dirs, capsys):
        args = ["run", "fig12", "--scale", "small", "--jobs", "1",
                "--cache-dir", dirs["cache"], "--out-dir", dirs["out"]]
        assert main([*args, "--benchmarks", "bv"]) == 0
        capsys.readouterr()
        assert main([*args, "--benchmarks", "BV"]) == 0
        assert "3 cached, 0 executed" in capsys.readouterr().out


class TestDryRun:
    """Golden tests: the dry-run plan output is a stable contract."""

    COLD_PLAN = (
        "fig12: 3 jobs, 3 unique (0 duplicates) — 0 cached, 3 pending, 0 failed\n"
        "  kind compare: 0 cached, 3 pending, 0 failed\n"
        "  benchmark BV: 0 cached, 3 pending, 0 failed\n"
        "dry-run: no jobs executed, no artifacts written\n"
    )
    WARM_PLAN = (
        "fig12: 3 jobs, 3 unique (0 duplicates) — 3 cached, 0 pending, 0 failed\n"
        "  kind compare: 3 cached, 0 pending, 0 failed\n"
        "  benchmark BV: 3 cached, 0 pending, 0 failed\n"
        "dry-run: no jobs executed, no artifacts written\n"
    )

    def test_cold_cache_human_plan_is_golden(self, dirs, capsys):
        assert _run_fig12(dirs, "--dry-run") == 0
        assert capsys.readouterr().out == self.COLD_PLAN

    def test_warm_cache_human_plan_is_golden(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        capsys.readouterr()
        assert _run_fig12(dirs, "--dry-run") == 0
        assert capsys.readouterr().out == self.WARM_PLAN

    def test_cold_cache_json_plan_is_golden(self, dirs, capsys):
        assert _run_fig12(dirs, "--dry-run", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {
            "dry_run": True,
            "scale": "small",
            "benchmarks": ["BV"],
            "seed": 0,
            "cache_dir": dirs["cache"],
            "compilers": ["baseline", "mech"],
            "experiments": [
                {
                    "experiment": "fig12",
                    "total": 3,
                    "unique": 3,
                    "duplicates": 0,
                    "cached": 0,
                    "pending": 3,
                    "failed": 0,
                    "by_kind": {"compare": {"cached": 0, "pending": 3, "failed": 0}},
                    "by_benchmark": {"BV": {"cached": 0, "pending": 3, "failed": 0}},
                }
            ],
        }

    def test_dry_run_executes_nothing_and_writes_nothing(self, dirs, tmp_path, capsys):
        assert _run_fig12(dirs, "--dry-run") == 0
        assert not (tmp_path / "artifacts").exists()
        assert len(ResultCache(dirs["cache"])) == 0

    def test_dry_run_counts_match_the_subsequent_real_run(self, dirs, capsys):
        assert _run_fig12(dirs, "--dry-run", "--json") == 0
        plan = json.loads(capsys.readouterr().out)["experiments"][0]
        assert _run_fig12(dirs) == 0
        out = capsys.readouterr().out
        assert f"{plan['cached']} cached, {plan['pending']} executed" in out

    def test_failed_jobs_from_the_checkpoint_are_classified(self, dirs, monkeypatch, capsys):
        set_chaos_spec(monkeypatch, "job-fail:BV")
        assert _run_fig12(dirs) == 1
        set_chaos_spec(monkeypatch, None)
        capsys.readouterr()
        assert _run_fig12(dirs, "--dry-run", "--json") == 0
        plan = json.loads(capsys.readouterr().out)["experiments"][0]
        assert (plan["cached"], plan["pending"], plan["failed"]) == (0, 0, 3)

    def test_json_without_dry_run_is_a_usage_error(self, dirs, capsys):
        assert _run_fig12(dirs, "--json") == 2
        assert "--json requires --dry-run" in capsys.readouterr().err

    def test_multiple_experiments_emit_one_plan_each(self, dirs, capsys):
        args = ["run", "fig12", "table2", "--benchmarks", "BV", "--dry-run",
                "--cache-dir", dirs["cache"], "--out-dir", dirs["out"]]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("fig12: ")
        assert "\ntable2: " in out
        assert out.count("dry-run: no jobs executed") == 1


class TestCleanCacheTtl:
    def _age_half_of_the_cache(self, dirs, days=40):
        cache = ResultCache(dirs["cache"])
        entries = cache.entries()
        stamp = time.time() - days * 86400
        aged = entries[: len(entries) // 2 or 1]
        aged_keys = {path.stem for path in aged}
        for path in aged:
            os.utime(path, (stamp, stamp))
        # recency is mtime-independent too: the access log's P/H lines count
        # as last use, so aging an entry means aging its logged timestamps
        log = cache.access_log_path
        if log.exists():
            lines = []
            for line in log.read_text().splitlines():
                parts = line.split()
                timestamped = (
                    len(parts) == 3 and parts[0] in ("H", "M", "P")
                ) or (len(parts) == 4 and parts[0] == "A")
                if timestamped and parts[1] in aged_keys:
                    parts[-1] = f"{stamp:.6f}"
                    line = " ".join(parts)
                lines.append(line)
            log.write_text("\n".join(lines) + "\n")
        return len(entries), len(aged)

    def test_older_than_removes_only_aged_entries(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        total, aged = self._age_half_of_the_cache(dirs)
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", dirs["cache"], "--older-than", "30"]) == 0
        out = capsys.readouterr().out
        assert f"removed {aged} of {total} cache entries older than 30 days" in out
        assert len(ResultCache(dirs["cache"])) == total - aged

    def test_older_than_dry_run_removes_nothing(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        total, aged = self._age_half_of_the_cache(dirs)
        capsys.readouterr()
        assert main(
            ["clean-cache", "--cache-dir", dirs["cache"], "--older-than", "30", "--dry-run"]
        ) == 0
        assert f"would remove {aged} of {total}" in capsys.readouterr().out
        assert len(ResultCache(dirs["cache"])) == total

    def test_full_clear_dry_run_reports_the_count(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", dirs["cache"], "--dry-run"]) == 0
        assert "would remove 3 cache entries" in capsys.readouterr().out
        assert len(ResultCache(dirs["cache"])) == 3

    def test_negative_older_than_is_a_usage_error(self, dirs, capsys):
        assert main(["clean-cache", "--cache-dir", dirs["cache"], "--older-than", "-1"]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_swept_jobs_recompute_on_the_next_run(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        self._age_half_of_the_cache(dirs, days=40)
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", dirs["cache"], "--older-than", "30"]) == 0
        capsys.readouterr()
        assert _run_fig12(dirs) == 0
        assert "2 cached, 1 executed" in capsys.readouterr().out

    def test_nan_older_than_is_a_usage_error(self, dirs, capsys):
        assert _run_fig12(dirs) == 0
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", dirs["cache"], "--older-than", "nan"]) == 2
        assert "--older-than" in capsys.readouterr().err
        assert len(ResultCache(dirs["cache"])) == 3  # the cache survived

    def test_nan_cache_max_mb_is_a_usage_error(self, dirs, capsys):
        assert _run_fig12(dirs, "--cache-max-mb", "nan") == 2
        assert "--cache-max-mb" in capsys.readouterr().err

    def test_unreadable_checkpoint_warns_during_dry_run(self, dirs, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        (out_dir / "fig12.checkpoint.json").write_text("{not json")
        assert _run_fig12(dirs, "--dry-run") == 0
        captured = capsys.readouterr()
        assert "warning: ignoring unreadable checkpoint" in captured.err
        assert "0 cached, 3 pending, 0 failed" in captured.out
