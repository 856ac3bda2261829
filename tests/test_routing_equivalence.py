"""Golden-output equivalence suite for the optimized routing cores.

``tests/goldens/routing_goldens.json`` pins the exact routed output — swap
sequence, operation counts, depth, effective CNOTs, final layout — that the
*pre-vectorization* SABRE router and MECH scheduler produced for fixed-seed
GHZ/QFT/QAOA inputs at two device sizes, for **every registered backend**
(the PR-4 contract surface).  The optimized hot paths must reproduce those
circuits bit for bit, which is what keeps every paper figure unchanged.
Differential tests also route every coupling structure through both SABRE
decision paths, the compiled kernel (``repro.baseline.kernel``) and the
interpreted loop with its cached delta scorer, and check every decision of
the delta scorer against the historic per-candidate scorer
(:func:`scalar_scores`, kept here as its oracle).

If a future PR changes routing behaviour *on purpose*, regenerate with::

    PYTHONPATH=src python tests/goldens/generate_goldens.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "goldens"))

from generate_goldens import (  # noqa: E402  (path inserted above)
    GOLDEN_PATH,
    build_case_circuit,
    record_result,
)
from helpers import strip_timing  # noqa: E402
from repro.backends import available_backends, get_backend  # noqa: E402
from repro.baseline import kernel  # noqa: E402
from repro.baseline.sabre import SabreRouter, _DeltaScorer  # noqa: E402
from repro.experiments.engine import Job, config_key, job_to_dict  # noqa: E402
from repro.experiments.execute import _execute_keyed  # noqa: E402
from repro.hardware.array import ChipletArray  # noqa: E402
from repro.highway.layout import HighwayLayout  # noqa: E402
from repro.programs import build_benchmark, qft_circuit  # noqa: E402

GOLDENS = json.loads(Path(GOLDEN_PATH).read_text())

#: Fields a case must reproduce exactly (everything record_result captures).
COMPARED_FIELDS = (
    "num_operations",
    "op_counts",
    "swap_sequence",
    "depth",
    "eff_cnots",
    "swaps_inserted",
    "final_layout",
)


@pytest.fixture(scope="module")
def environments():
    """Shared arrays/layouts/circuits so 24 cases build each device once."""
    built = {}
    for case in GOLDENS["cases"]:
        key = tuple(case["array"])
        if key not in built:
            structure, width, rows, cols = case["array"]
            array = ChipletArray(structure, width, rows, cols)
            built[key] = (array, HighwayLayout(array, density=1), {})
    return built


def test_goldens_cover_every_registered_backend():
    """New backends must be added to the golden suite, not silently skipped."""
    recorded = {case["backend"] for case in GOLDENS["cases"]}
    assert set(available_backends()) <= recorded


def test_golden_file_shape():
    assert GOLDENS["version"] == 1
    assert len(GOLDENS["cases"]) >= 24
    for case in GOLDENS["cases"]:
        for field in COMPARED_FIELDS:
            assert field in case, f"{case['case']} lacks {field}"


@pytest.mark.parametrize(
    "case", GOLDENS["cases"], ids=[c["case"] for c in GOLDENS["cases"]]
)
def test_routed_output_matches_golden(case, environments):
    array, layout, circuits = environments[tuple(case["array"])]
    benchmark = case["benchmark"]
    if benchmark not in circuits:
        circuits[benchmark] = build_case_circuit(benchmark, case["num_data_qubits"])
    backend = get_backend(case["backend"]).configure(
        array, seed=case["seed"], layout=layout
    )
    result = backend.compile(circuits[benchmark])
    recorded = record_result(result)
    for field in COMPARED_FIELDS:
        assert recorded[field] == case[field], (
            f"{case['case']}: optimized router diverged on {field!r} — routing"
            " is no longer output-identical to the recorded implementation"
        )


def scalar_scores(router, candidates, front_pairs, ext_pairs, l2p, decay):
    """The historic per-candidate SABRE scorer: the delta scorer's oracle.

    Scores each candidate SWAP ``(a, b)`` from scratch: the front and
    extended-set base sums count duplicate pairs, the change a SWAP makes
    counts each affected pair once.
    """
    dist = router._distance
    blocked_phys = [(l2p[p], l2p[q]) for p, q in front_pairs]
    ext_phys = [(l2p[p], l2p[q]) for p, q in ext_pairs]
    n_front = max(len(blocked_phys), 1)
    n_ext = max(len(ext_phys), 1)
    base_front = sum(dist[p][q] for p, q in blocked_phys)
    base_ext = sum(dist[p][q] for p, q in ext_phys)

    touching_front = {}
    touching_ext = {}
    for pair in blocked_phys:
        touching_front.setdefault(pair[0], []).append(pair)
        touching_front.setdefault(pair[1], []).append(pair)
    for pair in ext_phys:
        touching_ext.setdefault(pair[0], []).append(pair)
        touching_ext.setdefault(pair[1], []).append(pair)

    def delta(pairs_by_qubit, a, b):
        change = 0.0
        for p, q in set(pairs_by_qubit.get(a, []) + pairs_by_qubit.get(b, [])):
            np_ = b if p == a else (a if p == b else p)
            nq = b if q == a else (a if q == b else q)
            change += dist[np_][nq] - dist[p][q]
        return change

    scores = []
    for a, b in candidates:
        front_cost = (base_front + delta(touching_front, a, b)) / n_front
        ext_cost = (base_ext + delta(touching_ext, a, b)) / n_ext
        scores.append(
            max(decay[a], decay[b]) * (front_cost + router.extended_set_weight * ext_cost)
        )
    return scores


def tied_best(scores):
    """The candidates :meth:`SabreRouter._pick_swap` draws among: its
    sequential tie chain, without the draw."""
    best_score = float("inf")
    best = []
    for i, score in enumerate(scores):
        if score < best_score - 1e-12:
            best_score = score
            best = [i]
        elif abs(score - best_score) <= 1e-12:
            best.append(i)
    return best


class TestScalarFallbackEquivalence:
    """The cached delta scorer and the historic scalar scorer agree bit for
    bit: hop distances are exact integers, so summation order cannot move a
    score."""

    @staticmethod
    def _shuffled_mapping(topo, num_logical):
        rng = np.random.default_rng(0)
        perm = np.arange(topo.num_qubits, dtype=np.int64)
        rng.shuffle(perm)
        l2p = perm[:num_logical].tolist()
        p2l = [-1] * topo.num_qubits
        for logical, physical in enumerate(l2p):
            p2l[physical] = logical
        return l2p, p2l

    def test_batched_and_scalar_scores_identical(self):
        array = ChipletArray("square", 4, 1, 2)
        topo = array.topology
        router = SabreRouter(topo, seed=3)
        circuit = qft_circuit(topo.num_qubits - 4)
        l2p, p2l = self._shuffled_mapping(topo, circuit.num_qubits)
        front_list = [(0, 5), (1, 9), (2, 5), (0, 5)]  # duplicate pair on purpose
        ext_list = [(3, 7), (0, 5), (4, 8)]
        decay = [1.0] * topo.num_qubits
        decay[3] = 1.002
        front_qubits = {q for pair in front_list for q in pair}
        candidates = router._candidate_edges(front_qubits, l2p)
        scorer = _DeltaScorer(router, l2p, p2l)
        scorer.rebuild(front_list, ext_list)
        fast = scorer.scores(candidates, decay)
        scalar = scalar_scores(
            router,
            [(router._edge_u[e], router._edge_v[e]) for e in candidates],
            front_list,
            ext_list,
            l2p,
            decay,
        )
        assert fast == scalar
        assert len(fast) == len(candidates)

    def test_cached_terms_match_a_fresh_scorer_after_swaps(self):
        """Invalidation after each SWAP and each extended-set change leaves no
        stale delta behind."""
        array = ChipletArray("square", 4, 1, 2)
        topo = array.topology
        router = SabreRouter(topo, seed=3)
        l2p, p2l = self._shuffled_mapping(topo, topo.num_qubits - 4)
        front_list = [(0, 5), (1, 9), (2, 6)]
        ext_lists = ([(3, 7), (0, 5), (4, 8), (9, 2), (3, 7)], [(3, 7), (1, 4), (8, 9)])
        ext_list = ext_lists[0]
        front_qubits = {q for pair in front_list for q in pair}
        decay = [1.0] * topo.num_qubits
        scorer = _DeltaScorer(router, l2p, p2l)
        scorer.rebuild(front_list, ext_list)
        rng = np.random.default_rng(1)
        for step in range(30):
            if step % 5 == 4:
                ext_list = ext_lists[(step // 5 + 1) % 2]
                scorer.rebuild(front_list, ext_list)
            candidates = router._candidate_edges(front_qubits, l2p)
            cached = scorer.scores(candidates, decay)
            fresh = _DeltaScorer(router, l2p, p2l)
            fresh.rebuild(front_list, ext_list)
            fresh._base_front, fresh._base_ext = scorer._base_front, scorer._base_ext
            assert fresh.scores(candidates, decay) == cached
            edge = candidates[int(rng.integers(len(candidates)))]
            a, b = router._edge_u[edge], router._edge_v[edge]
            la, lb = p2l[a], p2l[b]
            if la >= 0:
                l2p[la] = b
            if lb >= 0:
                l2p[lb] = a
            p2l[a], p2l[b] = lb, la
            scorer.swapped(edge)


class TestPartialLayoutRejected:
    """A partial explicit layout must fail loudly (the historic dict-based
    mapping raised KeyError at the first unmapped gate; the index-array
    mapping rejects it up front instead of routing qubit -1)."""

    def test_partial_layout_raises(self):
        from repro.circuits.circuit import Circuit

        array = ChipletArray("square", 4, 1, 2)
        router = SabreRouter(array.topology, seed=0)
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        with pytest.raises(ValueError, match="does not map logical qubit 2"):
            router.run(circuit, layout={0: 0, 1: 1})

    def test_idle_unmapped_qubit_still_allowed(self):
        from repro.circuits.circuit import Circuit

        array = ChipletArray("square", 4, 1, 2)
        router = SabreRouter(array.topology, seed=0)
        circuit = Circuit(3).h(0).cx(0, 1)  # qubit 2 never used
        result = router.run(circuit, layout={0: 0, 1: 1})
        assert result.final_layout == {0: 0, 1: 1}

    def test_out_of_range_layout_key_rejected(self):
        from repro.circuits.circuit import Circuit

        array = ChipletArray("square", 4, 1, 2)
        router = SabreRouter(array.topology, seed=0)
        with pytest.raises(ValueError, match="outside"):
            router.run(Circuit(2).cx(0, 1), layout={0: 0, 1: 1, 7: 2})


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("program", ["QFT", "QAOA", "BV", "VQE"])
@pytest.mark.parametrize(
    "structure", ["square", "hexagon", "heavy_square", "heavy_hexagon"]
)
def test_exact_path_matches_scalar_fallback(structure, program, seed, monkeypatch):
    """Per-decision differential on the interpreted loop: at every SWAP the
    delta scorer and the historic scalar scorer (once the router's fallback,
    now :func:`scalar_scores`) pick the same candidates as tied for best,
    over the same front, extended set, mapping and decay.

    The two scores need not be equal: between rebuilds the delta scorer moves
    its base sums by each SWAP's unique-pair delta, while the scalar scorer
    re-sums every pair, so a group that repeats a pair shifts all candidates'
    scores by one constant.
    """
    array = ChipletArray(structure, 4, 1, 2)
    width = HighwayLayout(array, density=1).num_data_qubits
    kwargs = {"seed": seed} if program != "QFT" else {}
    circuit = build_benchmark(program, width, **kwargs)
    router = SabreRouter(array.topology, seed=seed)
    rebuild, scores = _DeltaScorer.rebuild, _DeltaScorer.scores
    decisions = []

    def recording_rebuild(scorer, front_pairs, ext_pairs):
        scorer.oracle_pairs = (list(front_pairs), list(ext_pairs))
        rebuild(scorer, front_pairs, ext_pairs)

    def checked_scores(scorer, candidates, decay):
        fast = scores(scorer, candidates, decay)
        edges = [(router._edge_u[e], router._edge_v[e]) for e in candidates]
        oracle = scalar_scores(router, edges, *scorer.oracle_pairs, scorer._l2p, decay)
        assert tied_best(fast) == tied_best(oracle)
        decisions.append(fast == oracle)
        return fast

    monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setattr(_DeltaScorer, "rebuild", recording_rebuild)
    monkeypatch.setattr(_DeltaScorer, "scores", checked_scores)
    result = router.run(circuit)
    assert len(decisions) == result.stats["swaps_inserted"] > 0


STRUCTURES = ("square", "hexagon", "heavy_square", "heavy_hexagon")


@pytest.fixture(scope="module")
def compiled_kernel():
    """The built kernel; the tests that compare against it skip without a
    C compiler (CI's smoke job asserts that it builds)."""
    module = kernel.load()
    if module is None:
        pytest.skip("no C compiler or Python headers to build the SABRE kernel")
    return module


@pytest.fixture
def interpreted(monkeypatch):
    """Route as a process without a C compiler does: the loader yields
    nothing."""
    monkeypatch.setattr(kernel, "load", lambda: None)


def _routed(router, circuit):
    """The op list, the final layout and the router RNG's next draw, which
    shows that tied decisions consumed the same draws."""
    result = router.run(circuit)
    ops = [(op.name, op.qubits, op.params) for op in result.circuit]
    return ops, result.final_layout, router._rng.integers(1 << 30)


def _kernel_and_interpreted(monkeypatch, array, circuit, **kwargs):
    compiled = _routed(SabreRouter(array.topology, **kwargs), circuit)
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "load", lambda: None)
        interpreted = _routed(SabreRouter(array.topology, **kwargs), circuit)
    return compiled, interpreted


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("program", ["QFT", "QAOA", "VQE", "BV"])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_kernel_matches_interpreted_loop(structure, program, seed, compiled_kernel, monkeypatch):
    array = ChipletArray(structure, 4, 1, 2)
    width = HighwayLayout(array, density=1).num_data_qubits
    kwargs = {"seed": seed} if program != "QFT" else {}
    circuit = build_benchmark(program, width, **kwargs)
    compiled, interpreted = _kernel_and_interpreted(monkeypatch, array, circuit, seed=seed)
    assert compiled == interpreted


@pytest.mark.parametrize(
    "width, rows, router_kwargs",
    [
        (7, 2, {"seed": 5}),
        (7, 2, {"seed": 2, "extended_set_size": 7, "decay_reset_interval": 3}),
        (7, 2, {"seed": 1, "extended_set_weight": 0.25, "decay_factor": 0.01}),
    ],
    ids=["square7-2x2", "lookahead-7-reset-3", "weight-decay"],
)
def test_kernel_matches_interpreted_loop_on_larger_devices(
    width, rows, router_kwargs, compiled_kernel, monkeypatch
):
    array = ChipletArray("square", width, rows, 2)
    circuit = qft_circuit(HighwayLayout(array, density=1).num_data_qubits)
    compiled, interpreted = _kernel_and_interpreted(monkeypatch, array, circuit, **router_kwargs)
    assert compiled == interpreted


@pytest.mark.parametrize(
    "case", GOLDENS["cases"], ids=[c["case"] for c in GOLDENS["cases"]]
)
def test_interpreted_path_matches_golden(case, environments, interpreted):
    test_routed_output_matches_golden(case, environments)


def test_kernel_is_what_routes_by_default(compiled_kernel, monkeypatch):
    calls = []

    def counting_route(*args):
        calls.append(args)
        return compiled_kernel.route(*args)

    monkeypatch.setattr(kernel, "load", lambda: SimpleNamespace(route=counting_route))
    topology = ChipletArray("square", 4, 1, 2).topology
    SabreRouter(topology).run(qft_circuit(8))
    assert len(calls) == 1


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
def test_a_signal_interrupts_the_kernel(compiled_kernel, monkeypatch):
    """Job timeouts (SIGALRM) still cut off a route: the kernel checks for
    signals on every decision instead of running to the end first."""
    armed = []

    def route_with_alarm(*args):
        armed.append(time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        return compiled_kernel.route(*args)

    def alarm(signum, frame):
        raise TimeoutError

    array = ChipletArray("square", 7, 3, 3)  # about a second in the kernel
    circuit = qft_circuit(HighwayLayout(array, density=1).num_data_qubits)
    monkeypatch.setattr(kernel, "load", lambda: SimpleNamespace(route=route_with_alarm))
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        with pytest.raises(TimeoutError):
            SabreRouter(array.topology).run(circuit)
        assert time.perf_counter() - armed[0] < 0.5
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _payloads(jobs):
    """Each job's record payload without wall-clock keys, as JSON."""
    return [
        json.dumps(strip_timing(_execute_keyed((config_key(job), job_to_dict(job), None))[1]))
        for job in jobs
    ]


def test_payloads_without_a_compiler_are_identical(compiled_kernel, monkeypatch):
    jobs = [
        Job(program, structure=structure, chiplet_width=4, rows=1, cols=2, seed=seed)
        for seed, (structure, program) in enumerate(zip(STRUCTURES, ("QFT", "QAOA", "VQE", "BV")))
    ]
    compiled = _payloads(jobs)
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert _payloads(jobs) == compiled


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty kernel cache and temp dir, and a loader that has not tried
    yet; the process's own loader state comes back afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    load = kernel.load
    load.cache_clear()
    yield tmp_path
    load.cache_clear()


def test_failed_build_falls_back_once_per_process(fresh_loader, monkeypatch):
    attempts = []

    def missing_compiler():
        attempts.append(1)
        return [str(fresh_loader / "no-such-cc")]

    monkeypatch.setattr(kernel, "compiler", missing_compiler)
    jobs = [
        Job("QAOA", structure="square", chiplet_width=4, rows=1, cols=2, seed=seed)
        for seed in range(3)
    ]
    failed = _payloads(jobs)
    assert all("job_error" not in payload for payload in failed)
    assert kernel.load() is None
    assert attempts == [1]  # one attempt per process, not one per job
    assert not [path for path in fresh_loader.rglob("*") if path.is_file()]  # no partial file
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert failed == _payloads(jobs)


def test_unwritable_cache_dir_builds_in_the_temp_dir(fresh_loader, monkeypatch, compiled_kernel):
    blocker = fresh_loader / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    module = kernel.load()
    assert module is not None
    directory = Path(module.__file__).parent
    assert directory.parent == fresh_loader / "tmp"
    assert directory.name.startswith("repro-kernels-")
