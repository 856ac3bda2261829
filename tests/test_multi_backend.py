"""N-way comparison tests: compile_many/MultiComparisonRecord, the engine's
backend dispatch, plan-time compiler validation, artifacts with per-backend
columns, and the CLI surface (--compilers, repro compilers, --only-failed).
"""

import csv
import json
import warnings

import pytest

from helpers import drop_cache_entry
from repro.backends import available_backends
from repro.cli import main
from repro.experiments.engine import (
    Job,
    ResultCache,
    config_key,
    job_from_dict,
    plan_jobs,
    record_from_payload,
    record_row,
    record_to_payload,
    run_jobs_report,
    write_artifacts,
)
from repro.experiments.registry import build_experiment_jobs
from repro.experiments.runner import (
    MultiComparisonRecord,
    compare_many,
    compile_many,
    format_records,
    normalize_compilers,
    primary_compiler,
    resolve_compilers,
)
from repro.hardware.array import ChipletArray

THREE = ("baseline", "mech", "sabre-x")


@pytest.fixture(scope="module")
def small_array():
    return ChipletArray("square", 4, 1, 2)


@pytest.fixture(scope="module")
def three_way_record(small_array):
    return compare_many("BV", small_array, compilers=THREE, seed=1)


class TestCompilerNormalisation:
    def test_none_resolves_to_default_pair(self):
        assert resolve_compilers(None) == ("baseline", "mech")

    def test_case_folding(self):
        assert normalize_compilers(["Baseline", " MECH "]) == ("baseline", "mech")

    def test_fewer_than_two_is_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            normalize_compilers(["mech"])

    def test_duplicates_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            normalize_compilers(["mech", "baseline", "mech"])

    def test_primary_prefers_mech(self):
        assert primary_compiler(("baseline", "mech", "sabre-x")) == "mech"
        assert primary_compiler(("baseline", "sabre-x", "mech-nofuse")) == "mech-nofuse"
        assert primary_compiler(("baseline", "mech")) == "mech"


class TestCompileMany:
    def test_unknown_backend_raises_registry_error(self, small_array):
        with pytest.raises(ValueError, match="unknown compiler"):
            compile_many("BV", small_array, compilers=("baseline", "nope"))

    def test_every_backend_compiles_once(self, small_array):
        compiled = compile_many("BV", small_array, compilers=THREE, seed=1)
        assert set(compiled.results) == set(THREE)
        assert set(compiled.seconds) == set(THREE)
        assert compiled.reference == "baseline"
        assert compiled.primary == "mech"
        for name in THREE:
            assert compiled.results[name].compiler == name

    def test_record_carries_per_backend_columns(self, three_way_record):
        record = three_way_record
        assert isinstance(record, MultiComparisonRecord)
        assert record.compilers == THREE
        assert set(record.depths) == set(THREE)
        assert record.depth_improvement == record.depth_improvement_for("mech")
        # reference improvement over itself would be zero by construction
        assert record.depth_improvement_for("baseline") == 0.0
        # stat extras name every backend
        assert "baseline_swaps" in record.extra
        assert "sabre-x_swaps" in record.extra
        assert "mech_shuttles" in record.extra

    def test_payload_roundtrip(self, three_way_record):
        clone = record_from_payload(record_to_payload(three_way_record))
        assert clone == three_way_record

    def test_record_row_flattens_per_backend(self, three_way_record):
        row = record_row(three_way_record)
        for name in THREE:
            assert f"{name}_depth" in row
            assert f"{name}_eff_cnots" in row
            assert f"{name}_seconds" in row
        assert "mech_depth_improvement" in row
        assert "sabre-x_normalized_depth" in row
        assert "baseline_depth_improvement" not in row  # reference has no ratio

    def test_format_records_switches_to_long_table(self, three_way_record):
        text = format_records([three_way_record], title="three-way")
        assert "baseline*" in text  # the reference is marked
        assert "sabre-x" in text
        assert text.splitlines()[0] == "three-way"


class TestPlanValidation:
    """Unknown names must fail at plan time, before any cache consultation."""

    class _TrippedCache(ResultCache):
        def __init__(self, cache_dir):
            super().__init__(cache_dir)
            self.consultations = 0

        def get(self, key):
            self.consultations += 1
            return super().get(key)

        def peek(self, key):
            self.consultations += 1
            return super().peek(key)

    def test_unknown_compiler_message_mirrors_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind 'nope'; choose from"):
            plan_jobs([Job("BV", kind="nope")])
        with pytest.raises(ValueError, match="unknown compiler 'nope'; choose from"):
            plan_jobs([Job("BV", compilers=("baseline", "nope"))])

    def test_unknown_names_are_sorted_in_the_message(self):
        jobs = [Job("BV", compilers=("zzz", "aaa", "mech"))]
        with pytest.raises(ValueError, match="unknown compiler 'aaa', 'zzz'"):
            plan_jobs(jobs)

    def test_unknown_compiler_fires_before_cache_consultation(self, tmp_path):
        cache = self._TrippedCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="unknown compiler"):
            plan_jobs([Job("BV", compilers=("baseline", "nope"))], cache=cache)
        assert cache.consultations == 0
        assert not (tmp_path / "cache").exists()

    def test_unknown_kind_fires_before_cache_consultation(self, tmp_path):
        # the regression test that previously existed only as a bare raise:
        # the kind check must also precede every cache read
        cache = self._TrippedCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="unknown job kind"):
            plan_jobs([Job("BV", kind="nope")], cache=cache)
        assert cache.consultations == 0


class TestEngineThreeWay:
    def test_compilers_enter_the_config_hash(self):
        default = Job("BV", seed=1)
        three = default.with_(compilers=THREE)
        assert config_key(default) != config_key(three)
        # order matters: the reference changes the meaning of every ratio
        assert config_key(three) != config_key(
            default.with_(compilers=("mech", "baseline", "sabre-x"))
        )

    def test_three_way_jobs_cache_and_rehydrate(self, tmp_path):
        jobs = [Job("BV", compilers=THREE, seed=1)]
        records1, report1 = run_jobs_report(jobs, cache=tmp_path)
        assert (report1.cache_hits, report1.executed) == (0, 1)
        records2, report2 = run_jobs_report(jobs, cache=tmp_path)
        assert (report2.cache_hits, report2.executed) == (1, 0)
        assert records1 == records2
        assert isinstance(records2[0], MultiComparisonRecord)

    def test_sensitivity_three_way_prefixes_secondary_series(self):
        job = Job(
            "BV",
            kind="sensitivity",
            compilers=THREE,
            params=(("meas_latencies", (1.0, 4.0)),),
        )
        records, _ = run_jobs_report([job])
        extra = records[0].extra
        # the primary (mech) keeps the historic unprefixed keys
        assert "depth_vs_latency@1" in extra
        # other non-reference backends get a name prefix
        assert "sabre-x:depth_vs_latency@1" in extra

    def test_artifacts_have_per_backend_columns(self, tmp_path):
        records, report = run_jobs_report([Job("BV", compilers=THREE, seed=1)])
        paths = write_artifacts("three", records, tmp_path)
        doc = json.loads(paths["json"].read_text())
        assert doc["records"][0]["compilers"] == "baseline,mech,sabre-x"
        with open(paths["csv"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert "sabre-x_depth" in rows[0]
        assert "mech_depth_improvement" in rows[0]
        # the legacy-only derived columns are absent rather than empty
        assert "depth_improvement" not in rows[0]

    def test_registry_builders_thread_compilers(self):
        for name in ("table2", "fig12", "fig13", "fig14", "fig15", "fig16"):
            jobs = build_experiment_jobs(name, scale="small", compilers=THREE)
            assert jobs, name
            assert all(job.compilers == THREE for job in jobs), name


class TestCliCompilers:
    def test_three_way_run_end_to_end(self, tmp_path, capsys):
        args = [
            "run", "table2", "--scale", "small", "--benchmarks", "BV",
            "--compilers", "baseline,mech,sabre-x",
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out"),
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "baseline*" in out and "sabre-x" in out
        doc = json.loads((tmp_path / "out" / "table2.json").read_text())
        assert doc["compilers"] == ["baseline", "mech", "sabre-x"]
        assert all(r["compilers"] == "baseline,mech,sabre-x" for r in doc["records"])
        checkpoint = json.loads((tmp_path / "out" / "table2.checkpoint.json").read_text())
        assert checkpoint["meta"]["compilers"] == ["baseline", "mech", "sabre-x"]
        assert all(j["compilers"] == ["baseline", "mech", "sabre-x"] for j in checkpoint["jobs"])
        # warm rerun hits the cache under the compiler-aware keys
        assert main(args) == 0
        assert "2 cached, 0 executed" in capsys.readouterr().out

    def test_unknown_compiler_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "fig12", "--compilers", "baseline,nope",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown compiler(s) nope" in err
        assert "choose from" in err

    def test_single_compiler_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "fig12", "--compilers", "mech",
                     "--out-dir", str(tmp_path)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_duplicate_compilers_are_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "fig12", "--compilers", "mech,baseline,mech",
                     "--out-dir", str(tmp_path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_dry_run_validates_compilers_against_the_plan(self, tmp_path, capsys):
        assert main([
            "run", "fig12", "--scale", "small", "--benchmarks", "BV",
            "--compilers", "baseline,mech,sabre-x", "--dry-run", "--json",
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out"),
        ]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["compilers"] == ["baseline", "mech", "sabre-x"]
        assert plan["experiments"][0]["pending"] == 3


class TestCompilersCommand:
    def test_lists_every_backend(self, capsys):
        assert main(["compilers"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "reference" in out

    def test_json_output_is_golden(self, capsys):
        assert main(["compilers", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "compilers": [
                {
                    "name": "baseline",
                    "description": "SABRE-routed SWAP baseline"
                    " (layout selection + SWAP-chain routing)",
                },
                {
                    "name": "mech",
                    "description": "MECH highway compiler:"
                    " aggregation + highway-mediated communication",
                },
                {
                    "name": "mech-noagg",
                    "description": "MECH ablation: commuting-gate aggregation"
                    " disabled (no highway gates)",
                },
                {
                    "name": "mech-nofuse",
                    "description": "MECH ablation: highway routing with the"
                    " CX-RZ-CX fusion rewrite disabled",
                },
                {
                    "name": "mech-singleentry",
                    "description": "MECH ablation: one highway-entrance"
                    " candidate per component (multi-entry off)",
                },
                {
                    "name": "sabre-noise",
                    "description": "noise-adaptive SABRE baseline"
                    " (layout packed into the lowest-noise region)",
                },
                {
                    "name": "sabre-x",
                    "description": "extended-effort SABRE baseline"
                    " (4x routing trials, deeper lookahead)",
                },
            ],
            "default": ["baseline", "mech"],
        }


class TestResumeOnlyFailed:
    def _doctored_checkpoint(self, tmp_path, capsys):
        """A real fig12 run, then its checkpoint doctored so that one job is
        failed, one is cached and one never started."""
        cache_dir = tmp_path / "cache"
        out_dir = tmp_path / "out"
        assert main([
            "run", "fig12", "--scale", "small", "--benchmarks", "BV",
            "--cache-dir", str(cache_dir), "--out-dir", str(out_dir), "--quiet",
        ]) == 0
        capsys.readouterr()
        path = out_dir / "fig12.checkpoint.json"
        doc = json.loads(path.read_text())
        keys = [config_key(job_from_dict(j)) for j in doc["jobs"]]
        failed_key, kept_key, dropped_key = keys
        cache = ResultCache(cache_dir)
        for key in (failed_key, dropped_key):
            drop_cache_entry(cache, key)
        doc["completed"] = []
        doc["cached"] = [kept_key]
        doc["failed"] = [{
            "key": failed_key, "benchmark": "BV", "kind": "compare",
            "error_type": "RuntimeError", "message": "injected", "traceback_tail": "",
            "attempts": 1, "seconds": 0.1,
        }]
        doc["finished"] = False
        path.write_text(json.dumps(doc))
        return path

    def test_only_failed_skips_never_started_jobs(self, tmp_path, capsys):
        path = self._doctored_checkpoint(tmp_path, capsys)
        assert main(["resume", str(path), "--only-failed", "--quiet"]) == 0
        out = capsys.readouterr().out
        # 3 checkpoint jobs -> 1 cached + 1 failed re-run; the never-started
        # job is dropped by the plan-level filter
        assert "2 jobs: 1 cached, 1 executed" in out
        doc = json.loads((tmp_path / "out" / "fig12.json").read_text())
        assert len(doc["records"]) == 2

    def test_completed_but_uncached_jobs_are_kept(self, tmp_path, capsys):
        # the filter must classify by the *checkpoint*, not the cache: a
        # completed job whose cache entry was swept away is re-executed, not
        # silently dropped as never-started
        path = self._doctored_checkpoint(tmp_path, capsys)
        doc = json.loads(path.read_text())
        (kept_key,) = doc["cached"]
        doc["cached"] = []
        doc["completed"] = [kept_key]
        path.write_text(json.dumps(doc))
        drop_cache_entry(ResultCache(tmp_path / "cache"), kept_key)
        assert main(["resume", str(path), "--only-failed", "--quiet"]) == 0
        assert "2 jobs: 0 cached, 2 executed" in capsys.readouterr().out

    def test_plain_resume_still_runs_everything(self, tmp_path, capsys):
        path = self._doctored_checkpoint(tmp_path, capsys)
        assert main(["resume", str(path), "--quiet"]) == 0
        assert "3 jobs: 1 cached, 2 executed" in capsys.readouterr().out

    def test_only_failed_with_nothing_to_do_is_an_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = out_dir / "fig12.checkpoint.json"
        assert main([
            "run", "fig12", "--scale", "small", "--benchmarks", "BV", "--no-cache",
            "--out-dir", str(out_dir), "--quiet",
        ]) == 0
        capsys.readouterr()
        # nothing failed: --only-failed refuses rather than re-running work
        assert main(["resume", str(path), "--only-failed", "--no-cache",
                     "--quiet"]) == 2
        assert "no failed jobs" in capsys.readouterr().err


class TestNoNewWarningsFromTheEngine:
    def test_engine_dispatch_does_not_emit_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_jobs_report([Job("BV", seed=3)])
            run_jobs_report([Job("BV", seed=3, compilers=THREE)])
