"""Integration tests for the table/figure reproduction harness (small scale)."""

import pytest

from repro.experiments import (
    BENCHMARK_NAMES,
    TABLE1_SETTINGS,
    TABLE2_PAPER_REFERENCE,
    ArchitectureSetting,
    Job,
    format_fig12,
    format_fig13,
    format_fig14,
    format_fig15,
    format_fig16,
    format_records,
    format_table2,
    improvement_series,
    jobs_for_fig12,
    jobs_for_fig13,
    jobs_for_fig14,
    jobs_for_fig15,
    jobs_for_fig16,
    jobs_for_table2,
    normalized_by_density,
    normalized_by_sparsity,
    normalized_by_structure,
    run_jobs,
    run_jobs_report,
    scaled_setting,
    sensitivity_results_from_records,
)
from repro.metrics import improvement


class TestSettings:
    def test_table1_settings_build(self):
        setting = TABLE1_SETTINGS["program-360"]
        array = setting.build_array()
        assert array.num_qubits == 441
        assert setting.num_chiplets == 9

    def test_scaled_setting_shrinks_chiplets(self):
        setting = TABLE1_SETTINGS["program-360"]
        small = scaled_setting(setting, "small")
        assert small.chiplet_width < setting.chiplet_width
        assert (small.rows, small.cols) == (setting.rows, setting.cols)
        assert scaled_setting(setting, "paper") == setting
        with pytest.raises(ValueError):
            scaled_setting(setting, "huge")

    def test_paper_reference_improvements_are_positive(self):
        for row in TABLE2_PAPER_REFERENCE.values():
            assert improvement(row["base_depth"], row["mech_depth"]) > 0
            assert improvement(row["base_eff"], row["mech_eff"]) > 0


class TestCompare:
    @pytest.fixture(scope="class")
    def record(self):
        records, _ = run_jobs_report([Job("BV", seed=1)])
        return records[0]

    def test_record_fields(self, record):
        assert record.benchmark == "BV"
        assert record.baseline_depth > 0 and record.mech_depth > 0
        assert 0 < record.highway_qubit_fraction < 1
        assert record.num_data_qubits > 0

    def test_improvements_and_ratios_consistent(self, record):
        assert record.depth_improvement == pytest.approx(1 - record.normalized_depth)
        assert record.eff_cnots_improvement == pytest.approx(
            1 - record.normalized_eff_cnots
        )

    def test_as_dict_and_formatting(self, record):
        d = record.as_dict()
        assert "depth_improvement" in d and "eff_cnots_improvement" in d
        table = format_records([record], title="t")
        assert "BV" in table and "t" in table


class TestExperimentRunners:
    """Each figure/table runner is exercised on a deliberately tiny instance."""

    def test_table2_smallest(self):
        records = run_jobs(jobs_for_table2(scale="small", benchmarks=["BV"], chiplet_sizes=(4,)))
        assert len(records) == 1
        text = format_table2(records)
        assert "BV" in text
        assert records[0].depth_improvement > 0

    def test_fig12_series(self):
        records = run_jobs(
            jobs_for_fig12(
                scale="small", benchmarks=["BV"], chiplet_width=4, array_shapes=((1, 2), (2, 2))
            )
        )
        assert len(records) == 2
        series = improvement_series(records)["BV"]
        assert [count for count, _, _ in series] == [2, 4]
        assert "Fig. 12" in format_fig12(records)

    def test_fig13_sensitivity_shapes(self):
        results = sensitivity_results_from_records(
            run_jobs(
                jobs_for_fig13(
                    scale="small",
                    benchmarks=["BV"],
                    meas_latencies=(1, 4, 8),
                    meas_error_ratios=(1.0, 3.0),
                    cross_error_ratios=(4.0, 8.0),
                )
            )
        )
        assert len(results) == 1
        r = results[0]
        assert len(r.depth_vs_latency) == 3
        assert len(r.eff_vs_meas_error) == 2
        assert len(r.eff_vs_cross_error) == 2
        # MECH uses more measurements, so its depth advantage shrinks with latency
        assert r.depth_vs_latency[0][1] >= r.depth_vs_latency[-1][1] - 1e-9
        # and its eff advantage grows when cross-chip links get noisier
        assert r.eff_vs_cross_error[-1][1] >= r.eff_vs_cross_error[0][1] - 1e-9
        assert "Fig. 13" in format_fig13(results)

    def test_fig14_sparsity(self):
        records = run_jobs(jobs_for_fig14(scale="small", benchmarks=["BV"], sparsity_levels=(4, 1)))
        series = normalized_by_sparsity(records)["BV"]
        assert len(series) == 2
        assert "Fig. 14" in format_fig14(records)

    def test_fig15_density(self):
        records = run_jobs(jobs_for_fig15(scale="small", benchmarks=["BV"], densities=(1, 2)))
        series = normalized_by_density(records)["BV"]
        fractions = [fraction for _, fraction, _, _ in series]
        assert fractions[0] < fractions[1]
        # same circuit width across densities (the paper's convention)
        assert len({r.num_data_qubits for r in records}) == 1
        assert "Fig. 15" in format_fig15(records)

    def test_fig16_structures(self):
        settings = [
            ArchitectureSetting("sq", "square", 4, 1, 2),
            ArchitectureSetting("hex", "hexagon", 4, 1, 2),
        ]
        records = run_jobs(jobs_for_fig16(benchmarks=["BV"], settings=settings))
        series = normalized_by_structure(records)["BV"]
        assert {s for s, _, _ in series} == {"square", "hexagon"}
        assert "Fig. 16" in format_fig16(records)

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            jobs_for_table2(scale="galactic")
        with pytest.raises(ValueError):
            jobs_for_fig12(scale="galactic")
        with pytest.raises(ValueError):
            jobs_for_fig13(scale="galactic")
        with pytest.raises(ValueError):
            jobs_for_fig14(scale="galactic")
        with pytest.raises(ValueError):
            jobs_for_fig15(scale="galactic")

    def test_benchmark_names_constant(self):
        assert BENCHMARK_NAMES == ("QFT", "QAOA", "VQE", "BV")
