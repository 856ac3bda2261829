"""Benchmark regenerating Fig. 15 (highway qubit percentage)."""

from conftest import run_once

from repro.experiments import format_fig15, normalized_by_density, run_experiment


def test_fig15_highway_density(benchmark, repro_scale, engine_opts, checkpoint_for):
    """Doubling the highway must increase the highway-qubit fraction and keep
    the compiled circuits valid; the normalised metrics are reported."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "fig15",
        scale=repro_scale,
        checkpoint=checkpoint_for("fig15"),
        **engine_opts,
    )
    print()
    print(format_fig15(records))

    series = normalized_by_density(records)
    for name, points in series.items():
        fractions = [fraction for _, fraction, _, _ in points]
        assert fractions == sorted(fractions), f"{name}: highway fraction not increasing"
        assert all(depth_ratio > 0 and eff_ratio > 0 for _, _, depth_ratio, eff_ratio in points)
