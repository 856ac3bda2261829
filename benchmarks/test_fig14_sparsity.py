"""Benchmark regenerating Fig. 14 (cross-chip link sparsity)."""

from conftest import run_once

from repro.experiments import format_fig14, normalized_by_sparsity, run_experiment


def test_fig14_sparsity(benchmark, repro_scale, engine_opts, checkpoint_for):
    """MECH's normalised depth should not degrade as cross-chip links get sparser."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "fig14",
        scale=repro_scale,
        checkpoint=checkpoint_for("fig14"),
        **engine_opts,
    )
    print()
    print(format_fig14(records))

    series = normalized_by_sparsity(records)
    for name, points in series.items():
        # points are ordered dense -> sparse; the paper reports the normalised
        # depth *decreasing* (MECH is insensitive, the baseline suffers)
        dense_depth = points[0][1]
        sparse_depth = points[-1][1]
        assert sparse_depth <= dense_depth * 1.15, (
            f"{name}: normalised depth degraded under sparse cross-chip links"
        )
