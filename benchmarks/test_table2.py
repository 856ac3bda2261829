"""Benchmark regenerating Table 2 (baseline vs MECH on square arrays)."""

from conftest import run_once

from repro.experiments import format_table2, run_experiment


def test_table2(benchmark, repro_scale, engine_opts, checkpoint_for):
    """Regenerate the paper's main results table and check the headline claim."""
    records, report = run_once(
        benchmark,
        run_experiment,
        "table2",
        scale=repro_scale,
        checkpoint=checkpoint_for("table2"),
        **engine_opts,
    )
    print()
    print(format_table2(records))

    # MECH reduces the error-weighted operation count on every benchmark, and
    # the depth collapse on BV (the paper's >90% rows) shows up at every scale.
    for record in records:
        assert record.eff_cnots_improvement > 0.0, (
            f"{record.benchmark}-{record.num_data_qubits}: MECH eff_CNOTs did not improve"
        )
    for record in records:
        if record.benchmark == "BV":
            assert record.depth_improvement > 0.5
    # the full depth advantage on QFT/QAOA/VQE needs larger devices than the
    # "small" tier (see the scale tiers in src/repro/experiments/settings.py);
    # assert it only at medium/paper scale
    if repro_scale != "small":
        for record in records:
            assert record.depth_improvement > 0.0
