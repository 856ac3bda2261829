"""Benchmark regenerating Fig. 13 (latency / fidelity sensitivity analysis)."""

from conftest import run_once

from repro.experiments import format_fig13, run_experiment, sensitivity_results_from_records


def test_fig13_sensitivity(benchmark, repro_scale, engine_opts, checkpoint_for):
    """Regenerate the three sensitivity panels and check their monotone trends."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "fig13",
        scale=repro_scale,
        checkpoint=checkpoint_for("fig13"),
        **engine_opts,
    )
    results = sensitivity_results_from_records(records)
    print()
    print(format_fig13(results))

    for r in results:
        # (a) depth improvement decreases (roughly linearly) with measurement latency
        latencies = [impr for _, impr in r.depth_vs_latency]
        assert latencies[0] >= latencies[-1] - 1e-9, f"{r.benchmark}: latency trend reversed"
        # (b) eff_CNOT improvement decreases with noisier measurements
        meas = [impr for _, impr in r.eff_vs_meas_error]
        assert meas[0] >= meas[-1] - 1e-9, f"{r.benchmark}: measurement-error trend reversed"
        # (c) eff_CNOT improvement increases with noisier cross-chip links
        cross = [impr for _, impr in r.eff_vs_cross_error]
        assert cross[-1] >= cross[0] - 1e-9, f"{r.benchmark}: cross-chip trend reversed"
