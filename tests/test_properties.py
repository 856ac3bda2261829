"""Property-based tests (hypothesis) on the core data structures and invariants."""

import tempfile
import time

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.engine import Job, ResultCache

from repro.baseline import BaselineCompiler
from repro.circuits import Circuit, DependencyDag, Simulator, circuit_unitary, commutes, expand_macros
from repro.circuits import gates as g
from repro.compiler import MechCompiler, fuse_zz_ladders
from repro.hardware import ChipletArray, NoiseModel
from repro.highway import measurement_based_ghz
from repro.metrics import count_operations, geometric_mean, improvement
from repro.programs import random_two_qubit_circuit

from helpers import (
    assert_all_two_qubit_ops_coupled,
    assert_semantically_equivalent,
    cache_clock,
    cache_rows,
)

# shared small devices (building them is comparatively expensive)
TINY_ARRAY = ChipletArray("square", 3, 1, 2)
TINY_MECH = MechCompiler(TINY_ARRAY)
TINY_BASE = BaselineCompiler(TINY_ARRAY.topology)


# --------------------------------------------------------------------------- #
# circuit-level strategies
# --------------------------------------------------------------------------- #
def random_ops(num_qubits: int):
    """Strategy producing a random gate on ``num_qubits`` qubits."""
    pairs = st.tuples(
        st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1)
    ).filter(lambda ab: ab[0] != ab[1])
    angle = st.floats(0.1, 3.0)
    return st.one_of(
        st.builds(lambda q: g.h(q), st.integers(0, num_qubits - 1)),
        st.builds(lambda t, q: g.rz(t, q), angle, st.integers(0, num_qubits - 1)),
        st.builds(lambda t, q: g.rx(t, q), angle, st.integers(0, num_qubits - 1)),
        st.builds(lambda ab: g.cx(*ab), pairs),
        st.builds(lambda ab: g.cz(*ab), pairs),
        st.builds(lambda t, ab: g.cp(t, *ab), angle, pairs),
    )


def circuits(num_qubits=4, max_ops=12):
    return st.lists(random_ops(num_qubits), min_size=1, max_size=max_ops).map(
        lambda ops: Circuit(num_qubits).extend(ops)
    )


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
class TestCircuitProperties:
    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_depth_never_exceeds_weighted_op_count(self, circuit):
        depth = circuit.depth(meas_latency=2.0)
        upper = sum(1.0 for op in circuit if op.num_qubits >= 2) + 2.0 * circuit.num_measurements()
        assert 0.0 <= depth <= upper + 1e-9

    @given(circuits())
    @settings(max_examples=25, deadline=None)
    def test_remap_round_trip_preserves_structure(self, circuit):
        n = circuit.num_qubits
        forward = {i: (i + 1) % n for i in range(n)}
        backward = {v: k for k, v in forward.items()}
        round_tripped = circuit.remap(forward).remap(backward)
        assert round_tripped == circuit

    @given(circuits())
    @settings(max_examples=20, deadline=None)
    def test_inverse_composes_to_identity(self, circuit):
        u = circuit_unitary(circuit.compose(circuit.inverse()))
        assert np.allclose(u, np.eye(u.shape[0]), atol=1e-7)

    @given(circuits())
    @settings(max_examples=25, deadline=None)
    def test_expand_macros_never_changes_metric_relevant_counts(self, circuit):
        counts_before = count_operations(circuit)
        counts_after = count_operations(expand_macros(circuit))
        assert counts_after.measurements == counts_before.measurements
        assert counts_after.total_cnots >= counts_before.total_cnots


class TestDagProperties:
    @given(circuits(num_qubits=5, max_ops=20))
    @settings(max_examples=30, deadline=None)
    def test_dag_edges_only_between_noncommuting_or_ordered_gates(self, circuit):
        dag = DependencyDag(circuit)
        for node in dag:
            for pred in node.predecessors:
                assert pred < node.index  # respects program order
        # strict DAG always has at least as many constrained pairs
        strict = DependencyDag(circuit, commutation_aware=False)
        relaxed_edges = sum(len(n.predecessors) for n in dag)
        strict_longest = len(strict.layers())
        relaxed_longest = len(dag.layers())
        assert relaxed_longest <= strict_longest

    @given(circuits(num_qubits=4, max_ops=14))
    @settings(max_examples=20, deadline=None)
    def test_commutation_aware_reordering_is_sound(self, circuit):
        """Executing gates layer by layer gives the same unitary as program order."""
        dag = DependencyDag(circuit)
        reordered = Circuit(circuit.num_qubits)
        for layer in dag.layers():
            for node in sorted(layer, key=lambda n: n.index):
                reordered.append(node.op)
        u1 = circuit_unitary(circuit)
        u2 = circuit_unitary(reordered)
        assert np.allclose(u1, u2, atol=1e-7)


class TestCommutationProperties:
    @given(random_ops(3), random_ops(3))
    @settings(max_examples=60, deadline=None)
    def test_commutes_is_symmetric(self, a, b):
        assert commutes(a, b) == commutes(b, a)


class TestGhzProperties:
    @given(st.integers(1, 9), st.integers(0, 4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ghz_preparation_for_any_path_length(self, length, seed):
        path = list(range(length))
        plan = measurement_based_ghz(path)
        circuit = Circuit(length).extend(plan.operations)
        sim = Simulator(length, seed=seed)
        sim.run(circuit)
        members = plan.members
        verify = Circuit(length)
        for m in members[1:]:
            verify.cx(members[0], m)
        verify.h(members[0])
        sim.run(verify)
        assert all(abs(sim.expectation_z(q) - 1.0) < 1e-8 for q in members)


class TestMetricProperties:
    @given(st.floats(1.0, 1e6), st.floats(0.5, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_improvement_sign_matches_ordering(self, baseline, ours):
        value = improvement(baseline, ours)
        assert (value > 0) == (ours < baseline)

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_geometric_mean_bounded_by_extremes(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(
        st.integers(0, 500), st.integers(0, 100), st.integers(0, 200),
        st.floats(1.0, 20.0), st.floats(0.5, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_effective_cnots_monotone_in_counts_and_ratios(self, on, cross, meas, r_cross, r_meas):
        noise = NoiseModel(cross_on_ratio=r_cross, meas_on_ratio=r_meas)
        base = noise.effective_cnots(on, cross, meas)
        assert noise.effective_cnots(on + 1, cross, meas) > base
        assert noise.effective_cnots(on, cross + 1, meas) > base
        assert noise.effective_cnots(on, cross, meas + 1) > base


class TestCompilerProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mech_output_is_always_routable_and_equivalent(self, seed):
        circuit = random_two_qubit_circuit(5, 14, seed=seed)
        result = TINY_MECH.compile(circuit)
        assert_all_two_qubit_ops_coupled(result)
        assert_semantically_equivalent(circuit, result, seeds=(seed % 3,))

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_baseline_output_is_always_routable_and_equivalent(self, seed):
        circuit = random_two_qubit_circuit(5, 14, seed=seed)
        result = TINY_BASE.compile(circuit)
        assert_all_two_qubit_ops_coupled(result)
        assert_semantically_equivalent(circuit, result, seeds=(seed % 3,))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_zz_rewrite_is_always_equivalent(self, seed):
        circuit = random_two_qubit_circuit(4, 16, seed=seed, one_qubit_fraction=0.5)
        fused = fuse_zz_ladders(circuit)
        u1 = circuit_unitary(circuit)
        u2 = circuit_unitary(fused)
        product = u1.conj().T @ u2
        phase = product[0, 0]
        assert np.isclose(abs(phase), 1.0, atol=1e-7)
        assert np.allclose(product, phase * np.eye(u1.shape[0]), atol=1e-7)


# --------------------------------------------------------------------------- #
# result-cache invariants (LRU cap, TTL sweep, recency)
# --------------------------------------------------------------------------- #
_CACHE_JOB = Job(benchmark="BV")
_CACHE_PAYLOAD = {"benchmark": "BV", "architecture": "prop-1x1"}


def _cache_key(index: int) -> str:
    """A distinct (hex) config key per index."""
    return f"{index:02x}" * 32


class TestResultCacheProperties:
    @given(
        ages=st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
        max_age=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_ttl_sweep_never_evicts_entries_newer_than_the_cutoff(self, ages, max_age):
        """Exactly the entries strictly older than ``now - max_age`` go."""
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            now = time.time()
            for index, age in enumerate(ages):
                with cache_clock(now - age):
                    cache.put(_cache_key(index), _CACHE_JOB, _CACHE_PAYLOAD)
            result = cache.sweep_older_than(max_age, now=now)
            for index, age in enumerate(ages):
                survived = cache.peek(_cache_key(index)) is not None
                assert survived == (age <= max_age), (age, max_age)
            assert result["removed"] == sum(1 for age in ages if age > max_age)
            assert result["scanned"] == len(ages)

    @given(
        ages=st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
        max_age=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_ttl_dry_run_removes_nothing_but_counts_identically(self, ages, max_age):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            now = time.time()
            for index, age in enumerate(ages):
                with cache_clock(now - age):
                    cache.put(_cache_key(index), _CACHE_JOB, _CACHE_PAYLOAD)
            preview = cache.sweep_older_than(max_age, dry_run=True, now=now)
            assert len(cache) == len(ages)  # nothing deleted
            real = cache.sweep_older_than(max_age, now=now)
            assert preview == real

    @given(n_entries=st.integers(1, 10), cap_entries=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_lru_cap_evicts_oldest_first_and_never_the_newest(self, n_entries, cap_entries):
        """After a capped put, survivors are exactly the most recently used."""
        with tempfile.TemporaryDirectory() as tmp:
            uncapped = ResultCache(tmp)
            now = time.time()
            for index in range(n_entries):
                # distinct last uses: index 0 is the least recently used
                with cache_clock(now - (n_entries - index)):
                    uncapped.put(_cache_key(index), _CACHE_JOB, _CACHE_PAYLOAD)
            size = cache_rows(uncapped)[0][1]
            capped = ResultCache(tmp, max_bytes=size * cap_entries)
            newest = _cache_key(n_entries)
            with cache_clock(now):
                capped.put(newest, _CACHE_JOB, _CACHE_PAYLOAD)  # triggers eviction
            survivors = {key for key, _, _ in cache_rows(capped)}
            expected = {
                _cache_key(index)
                for index in range(n_entries + 1)
                if index >= (n_entries + 1) - cap_entries
            }
            assert survivors == expected
            assert newest in survivors

    @given(n_entries=st.integers(2, 10), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_get_refreshes_recency_so_served_entries_survive_a_ttl_sweep(
        self, n_entries, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            now = time.time()
            with cache_clock(now - 1000):
                for index in range(n_entries):
                    cache.put(_cache_key(index), _CACHE_JOB, _CACHE_PAYLOAD)
            touched = data.draw(st.integers(0, n_entries - 1))
            assert cache.get(_cache_key(touched)) == _CACHE_PAYLOAD  # refreshes recency
            cache.sweep_older_than(500, now=time.time())
            survivors = {key for key, _, _ in cache_rows(cache)}
            assert survivors == {_cache_key(touched)}
