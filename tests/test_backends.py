"""Backend registry tests plus the contract suite every registered compiler
backend must satisfy: fixed-seed determinism, CompilationResult schema
completeness, and full-statevector routed-circuit equivalence on a small
GHZ/QFT pair.

The contract tests parametrise over ``available_backends()``, so a newly
registered backend is automatically held to the same bar as the built-ins.
"""

import pytest

from helpers import assert_all_two_qubit_ops_coupled, assert_semantically_equivalent
from repro.backends import (
    BUILTIN_BACKENDS,
    DEFAULT_COMPILERS,
    CompilerBackend,
    available_backends,
    backend_descriptions,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.circuits import Circuit
from repro.compiler.result import CompilationResult
from repro.hardware.array import ChipletArray
from repro.hardware.noise import DEFAULT_NOISE
from repro.highway.layout import HighwayLayout
from repro.programs import ghz_circuit, qft_circuit

BUILTINS = (
    "baseline",
    "mech",
    "mech-noagg",
    "mech-nofuse",
    "mech-singleentry",
    "sabre-noise",
    "sabre-x",
)


@pytest.fixture(scope="module")
def tiny_array():
    """18 physical qubits: small enough for full statevector verification."""
    return ChipletArray("square", 3, 1, 2)


def _configured(name, array, seed=0):
    return get_backend(name).configure(array, noise=DEFAULT_NOISE, seed=seed)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(BUILTINS) <= set(available_backends())

    def test_builtin_table_matches_the_backend_classes(self):
        # the registry lists the built-ins without importing their module
        from repro.backends import builtin

        assert sorted(BUILTIN_BACKENDS) == sorted(BUILTINS)
        for name, (class_name, description) in BUILTIN_BACKENDS.items():
            cls = getattr(builtin, class_name)
            assert (cls.name, cls.description) == (name, description)
            assert type(get_backend(name)) is cls

    def test_available_backends_is_sorted(self):
        names = available_backends()
        assert names == sorted(names)

    def test_default_pair_is_registered(self):
        assert DEFAULT_COMPILERS == ("baseline", "mech")
        assert set(DEFAULT_COMPILERS) <= set(available_backends())

    def test_get_backend_returns_fresh_instances(self):
        assert get_backend("mech") is not get_backend("mech")

    def test_get_backend_is_case_insensitive(self):
        assert get_backend("MECH").name == "mech"

    def test_unknown_name_error_lists_choices(self):
        with pytest.raises(ValueError, match="unknown compiler 'nope'"):
            get_backend("nope")
        with pytest.raises(ValueError, match="choose from"):
            get_backend("nope")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("mech", lambda: None)

    def test_replace_and_unregister(self):
        class Fake:
            name = "test-fake"
            description = "fake backend for the registry test"

        try:
            register_backend("test-fake", Fake)
            assert "test-fake" in available_backends()
            register_backend("test-fake", Fake, replace=True)
            assert isinstance(get_backend("test-fake"), Fake)
        finally:
            unregister_backend("test-fake")
        assert "test-fake" not in available_backends()

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("  ", lambda: None)

    def test_descriptions_cover_every_backend(self):
        descriptions = backend_descriptions()
        assert sorted(descriptions) == available_backends()
        for name in BUILTINS:
            assert descriptions[name], f"backend {name} has no description"


class TestBackendContract:
    """Every registered backend must satisfy these invariants."""

    @pytest.fixture(scope="class")
    def compiled(self, tiny_array):
        """name -> (ghz circuit, ghz result, qft circuit, qft result)."""
        capacity = HighwayLayout(tiny_array).num_data_qubits
        n = min(5, capacity)
        ghz = ghz_circuit(n, measure=False)
        qft = qft_circuit(n, measure=False)
        out = {}
        for name in available_backends():
            ghz_result = _configured(name, tiny_array).compile(ghz)
            qft_result = _configured(name, tiny_array).compile(qft)
            out[name] = (ghz, ghz_result, qft, qft_result)
        return out

    @pytest.mark.parametrize("name", BUILTINS)
    def test_satisfies_protocol(self, name):
        assert isinstance(get_backend(name), CompilerBackend)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_compile_before_configure_fails_loudly(self, name):
        with pytest.raises(RuntimeError, match="configure"):
            get_backend(name).compile(Circuit(2).cx(0, 1))

    @pytest.mark.parametrize("name", BUILTINS)
    def test_result_schema_is_complete(self, name, tiny_array, compiled):
        _, result, _, qft_result = compiled[name]
        for res in (result, qft_result):
            assert isinstance(res, CompilationResult)
            assert res.topology is tiny_array.topology
            assert res.compiler == name
            assert res.circuit.num_qubits == tiny_array.num_qubits
            # layouts are injective logical -> physical maps over the circuit
            for layout in (res.initial_layout, res.final_layout):
                assert set(layout) == set(range(5))
                assert len(set(layout.values())) == 5
            assert all(isinstance(v, (int, float)) for v in res.stats.values())
            assert res.metrics(DEFAULT_NOISE).depth > 0
            assert res.metrics(DEFAULT_NOISE).eff_cnots > 0

    @pytest.mark.parametrize("name", BUILTINS)
    def test_fixed_seed_determinism(self, name, tiny_array, compiled):
        _, first, _, _ = compiled[name]
        ghz = ghz_circuit(5, measure=False)
        again = _configured(name, tiny_array).compile(ghz)
        assert again.metrics(DEFAULT_NOISE).depth == first.metrics(DEFAULT_NOISE).depth
        assert again.metrics(DEFAULT_NOISE).eff_cnots == first.metrics(DEFAULT_NOISE).eff_cnots
        assert len(again.circuit) == len(first.circuit)
        assert again.initial_layout == first.initial_layout
        assert again.final_layout == first.final_layout

    @pytest.mark.parametrize("name", BUILTINS)
    def test_two_qubit_ops_respect_the_coupling_graph(self, name, compiled):
        _, ghz_result, _, qft_result = compiled[name]
        assert_all_two_qubit_ops_coupled(ghz_result)
        assert_all_two_qubit_ops_coupled(qft_result)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_routed_ghz_is_equivalent(self, name, compiled):
        ghz, ghz_result, _, _ = compiled[name]
        assert_semantically_equivalent(ghz, ghz_result)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_routed_qft_is_equivalent(self, name, compiled):
        _, _, qft, qft_result = compiled[name]
        assert_semantically_equivalent(qft, qft_result)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_static_verifier_certifies_the_compilation(self, name, compiled):
        from repro.analysis import format_report, verify_compilation

        ghz, ghz_result, qft, qft_result = compiled[name]
        for source, result in ((ghz, ghz_result), (qft, qft_result)):
            report = verify_compilation(source, result, noise=DEFAULT_NOISE)
            assert report.ok, format_report(report)
            assert report.ops_checked == len(result.circuit.operations)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_unknown_knobs_are_ignored(self, name, tiny_array):
        backend = get_backend(name).configure(
            tiny_array, noise=DEFAULT_NOISE, seed=0, not_a_real_knob=17
        )
        assert backend.compile(ghz_circuit(4, measure=False)).compiler == name


class TestBackendDifferences:
    """The variant backends genuinely differ from their parents."""

    def test_sabre_x_runs_more_trials(self, tiny_array):
        base = _configured("baseline", tiny_array)
        extended = _configured("sabre-x", tiny_array)
        qft = qft_circuit(5, measure=False)
        assert extended.compile(qft).stats["trials"] > base.compile(qft).stats["trials"]

    def test_mech_nofuse_disables_the_rewrite(self, tiny_array):
        fused = _configured("mech", tiny_array)
        unfused = _configured("mech-nofuse", tiny_array)
        assert fused.compiler.rewrite_zz is True
        assert unfused.compiler.rewrite_zz is False
        # a ZZ ladder is exactly what the rewrite targets; without it the
        # compiled circuit keeps more 2-qubit operations
        ladder = Circuit(4)
        ladder.h(0).h(1)
        ladder.cx(0, 2).rz(0.8, 2).cx(0, 2)
        ladder.cx(1, 3).rz(0.4, 3).cx(1, 3)
        with_rewrite = fused.compile(ladder)
        without_rewrite = unfused.compile(ladder)
        assert without_rewrite.stats.get("fused_zz", 0.0) == 0.0
        assert with_rewrite.stats.get("fused_zz", 0.0) >= 0.0
        assert_semantically_equivalent(ladder, without_rewrite)

    def test_mech_noagg_never_forms_highway_gates(self, tiny_array):
        aggregated = _configured("mech", tiny_array)
        ablated = _configured("mech-noagg", tiny_array)
        qft = qft_circuit(5, measure=False)
        with_agg = aggregated.compile(qft)
        without_agg = ablated.compile(qft)
        # QFT is the aggregation pass's best case (all-commuting controlled
        # phases); the ablation must route every gate individually
        assert with_agg.stats.get("aggregated_units", 0.0) > 0.0
        assert without_agg.stats.get("aggregated_units", 0.0) == 0.0
        assert_semantically_equivalent(qft, without_agg)

    def test_mech_singleentry_pins_one_entrance(self, tiny_array):
        multi = _configured("mech", tiny_array)
        single = _configured("mech-singleentry", tiny_array)
        assert multi.compiler.entrance_candidates > 1
        assert single.compiler.entrance_candidates == 1
        qft = qft_circuit(5, measure=False)
        assert_semantically_equivalent(qft, single.compile(qft))

    def test_sabre_noise_changes_the_layout(self, tiny_array):
        corner = _configured("baseline", tiny_array)
        adaptive = _configured("sabre-noise", tiny_array)
        qft = qft_circuit(5, measure=False)
        corner_result = corner.compile(qft)
        adaptive_result = adaptive.compile(qft)
        assert adaptive_result.initial_layout != corner_result.initial_layout
        assert_semantically_equivalent(qft, adaptive_result)
