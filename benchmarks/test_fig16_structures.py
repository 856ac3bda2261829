"""Benchmark regenerating Fig. 16 (generality across coupling structures)."""

from conftest import run_once

from repro.experiments import format_fig16, normalized_by_structure, run_experiment


def test_fig16_structures(benchmark, repro_scale, engine_opts, checkpoint_for):
    """MECH should work (and keep its eff_CNOT advantage) on all four structures."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "fig16",
        scale=repro_scale,
        checkpoint=checkpoint_for("fig16"),
        **engine_opts,
    )
    print()
    print(format_fig16(records))

    series = normalized_by_structure(records)
    structures_seen = set()
    for name, points in series.items():
        for structure, depth_ratio, eff_ratio in points:
            structures_seen.add(structure)
            assert depth_ratio > 0 and eff_ratio > 0
        if name == "BV":
            assert all(depth_ratio < 1.0 for _, depth_ratio, _ in points)
    assert {"square", "hexagon", "heavy_square", "heavy_hexagon"} <= structures_seen
