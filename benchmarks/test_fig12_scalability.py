"""Benchmark regenerating Fig. 12 (improvement vs number of chiplets)."""

from conftest import run_once

from repro.experiments import format_fig12, improvement_series, run_experiment


def test_fig12_scalability(benchmark, repro_scale, engine_opts, checkpoint_for):
    """Improvements should not shrink as the chiplet array grows."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "fig12",
        scale=repro_scale,
        checkpoint=checkpoint_for("fig12"),
        **engine_opts,
    )
    print()
    print(format_fig12(records))

    series = improvement_series(records)
    for name, points in series.items():
        depth_first = points[0][1]
        depth_last = points[-1][1]
        eff_first = points[0][2]
        eff_last = points[-1][2]
        # the paper's scalability trend: larger arrays favour MECH (allow a
        # small tolerance for noise at the reduced default scale)
        assert depth_last >= depth_first - 0.15, f"{name}: depth trend reversed"
        assert eff_last >= eff_first - 0.15, f"{name}: eff_CNOT trend reversed"
