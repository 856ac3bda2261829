"""SABRE-style SWAP-insertion router (the baseline compiler's core).

The paper's baseline is Qiskit at optimisation level 3, whose routing stage is
SABRE (Li, Ding, Xie; ASPLOS 2019).  This module implements the same
algorithm from scratch so the reproduction runs offline:

* maintain the *front layer* of the dependency DAG, in program order (as
  mainstream transpilers route),
* execute every front-layer gate whose two logical qubits sit on coupled
  physical qubits,
* otherwise score every candidate SWAP (an edge touching a front-layer qubit)
  by the change in total distance of the front layer plus a discounted
  *extended set* lookahead, with a decay factor discouraging ping-pong swaps,
  and apply the best one.

SWAPs are emitted as ``swap`` macros; metric accounting counts each as three
CNOTs, exactly as the paper does.

:meth:`SabreRouter.run` builds the dependency DAG, lets one of two decision
paths turn it into events (an executed node index, or ``~edge`` for a SWAP)
and replays the events into the routed circuit.  Both are
**output-identical** to the original gate-by-gate implementation (the golden
suite and the differential tests in ``tests/test_routing_equivalence.py`` pin
this):

* the compiled kernel (``_sabre_kernel.c``, built on the first route in a
  process by :mod:`repro.baseline.kernel`) runs whenever a C compiler and the
  Python headers are available;
* the interpreted loop (:meth:`SabreRouter._decide`) with the cached delta
  scorer (:class:`_DeltaScorer`) runs when the kernel cannot be built, and is
  the kernel's test oracle.

Distances are hop counts on the flat coupling graph, as Qiskit's SABRE sees
it: cross-chip links cost one hop like on-chip ones (their higher error rate
enters only the eff-CNOT metric).  Hop counts are exact integers, so float
sums of them are exact in any order, which is what lets the delta scorer
cache partial sums; the differential tests check each of its decisions
against the historic per-candidate scorer.

The interpreted loop runs on plain Python ints and lists:

* the logical<->physical mapping is a pair of lists, and distances and
  couplings are the topology's cached row lists;
* swapping edge ``(a, b)`` changes the front (or extended-set) distance by
  ``D(a->b) + D(b->a)``, where the directed term ``D(u->v)`` is the distance
  change of the pairs of ``u``'s occupant when it moves to ``v``.  The terms
  are cached and invalidated only where a SWAP or a front change can move
  them (see :class:`_DeltaScorer`), so a decision mostly re-reads cached sums;
* the executable front is drained generation by generation through a ready
  queue — after a SWAP only the blocked gates touching the swapped qubits are
  re-examined — instead of re-scanning ``sorted(front)`` until a full pass
  makes no progress;
* the extended set is only re-derived when a gate actually executed since the
  previous SWAP (its membership depends on the front layer alone, not on the
  mapping), and its BFS walks the DAG's cached successor lists.

The kernel does the same work in C, except that it recomputes each
candidate's delta from the partner lists on every decision instead of caching
it; in C that costs less than the cache bookkeeping would.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..circuits.circuit import Circuit, _rebuild_trusted
from ..circuits.dag import DependencyDag
from ..circuits.gates import Gate
from ..hardware.topology import Topology
from ..compiler.result import CompilationResult
from ..rng import default_rng
from .layout import initial_layout

__all__ = ["SabreRouter"]

#: Absolute score slack under which two candidate SWAPs count as tied.
_TIE_EPS = 1e-12


class SabreRouter:
    """Route a logical circuit onto a topology by inserting SWAP gates.

    Parameters
    ----------
    topology:
        Device coupling graph (on-chip and cross-chip links alike, as the
        paper passes both to the baseline).
    extended_set_size:
        Number of lookahead 2-qubit gates in the extended set.
    extended_set_weight:
        Discount applied to the extended-set term of the heuristic.
    decay_factor / decay_reset_interval:
        SABRE's decay on recently swapped physical qubits, discouraging the
        router from moving the same qubit repeatedly.
    seed:
        Tie-breaking randomisation seed.

    Raises ``ValueError`` on a disconnected topology: a gate across two
    components could never be routed.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        decay_factor: float = 0.001,
        decay_reset_interval: int = 5,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_factor = decay_factor
        self.decay_reset_interval = decay_reset_interval
        self._rng = default_rng(seed)
        self._distance = topology.distance_rows()
        # row 0 reaches every qubit exactly when the device is connected
        if float("inf") in self._distance[0]:
            raise ValueError(
                f"device {topology.name!r} is disconnected: SABRE needs a"
                " connected coupling graph"
            )
        self._coupled = topology.coupling_rows()
        # Every normalized edge once, ascending lexicographically (the
        # historic sorted-set-of-tuples candidate order), plus per-qubit
        # incident edge ids and the matching far endpoints; the topology
        # caches them, so a warm device builds them once.
        self._edge_u, self._edge_v, self._edge_ids, self._neighbours = topology.edge_tables()

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        circuit: Circuit,
        *,
        layout: dict[int, int] | None = None,
        layout_strategy: str = "compact",
    ) -> CompilationResult:
        """Compile ``circuit`` and return the routed physical circuit."""
        if layout is None:
            layout = initial_layout(circuit.num_qubits, self.topology, layout_strategy)
        num_physical = self.topology.num_qubits
        l2p = [-1] * circuit.num_qubits
        p2l = [-1] * num_physical
        for logical, physical in layout.items():
            if not 0 <= logical < circuit.num_qubits:
                raise ValueError(
                    f"layout maps logical qubit {logical}, which is outside"
                    f" the circuit's 0..{circuit.num_qubits - 1} register"
                )
            physical = int(physical)  # emitted gates carry built-in ints
            l2p[logical] = physical
            if p2l[physical] >= 0:
                raise ValueError(
                    "initial layout maps two logical qubits to one physical qubit"
                )
            p2l[physical] = logical

        if len(layout) < circuit.num_qubits:
            # the historic dict-based mapping failed loudly (KeyError) when a
            # gate touched a logical qubit the explicit layout did not map;
            # -1 sentinels in the mapping would route silently instead, so
            # reject partial layouts up front (idle unmapped qubits are fine,
            # as before)
            for op in circuit.operations:
                for qubit in op.qubits:
                    if l2p[qubit] < 0:
                        raise ValueError(
                            f"layout does not map logical qubit {qubit},"
                            f" which is used by {op}"
                        )

        dag = DependencyDag(circuit, commutation_aware=False)
        ops: list[Gate] = [node.op for node in dag]
        successors = dag.successor_lists()
        in_degree = dag.in_degrees()
        # NOTE: ``front`` must stay a plain set with the same add/discard
        # history as the historic implementation — the extended-set BFS seeds
        # from ``list(front)``, whose iteration order decides which lookahead
        # gates make the size cut.
        front: set[int] = {i for i in range(len(ops)) if in_degree[i] == 0}
        route = _compiled_route()
        if route is None:
            events = self._decide(ops, successors, in_degree, front, l2p[:], p2l[:])
        else:
            events = route(
                ops, successors, in_degree, front, l2p, p2l, self._distance,
                self._edge_u, self._edge_v, self._edge_ids, self.extended_set_size,
                self.extended_set_weight, self.decay_factor, self.decay_reset_interval,
                self._rng.integers,
            )

        # replay the decisions: every emitted qubit index is an l2p value or
        # a topology edge endpoint, both < num_physical by construction, so
        # gates go straight onto the op list
        out = Circuit(num_physical, name=f"{circuit.name}@{self.topology.name}")
        out_append = out.operations.append
        edge_u = self._edge_u
        edge_v = self._edge_v
        swaps_inserted = 0
        for event in events:
            if event >= 0:
                op = ops[event]
                qubits = op.qubits
                if len(qubits) == 1:
                    mapped: tuple[int, ...] = (l2p[qubits[0]],)
                elif len(qubits) == 2:
                    mapped = (l2p[qubits[0]], l2p[qubits[1]])
                else:
                    mapped = tuple(l2p[q] for q in qubits)
                out_append(_rebuild_trusted(op, mapped))
                continue
            a, b = edge_u[~event], edge_v[~event]
            out_append(Gate.trusted("swap", (a, b)))
            swaps_inserted += 1
            la, lb = p2l[a], p2l[b]
            if la >= 0:
                l2p[la] = b
            if lb >= 0:
                l2p[lb] = a
            p2l[a], p2l[b] = lb, la

        final_layout = {
            logical: physical for logical, physical in enumerate(l2p) if physical >= 0
        }
        return CompilationResult(
            circuit=out,
            topology=self.topology,
            initial_layout=dict(layout),
            final_layout=final_layout,
            compiler="baseline",
            stats={"swaps_inserted": float(swaps_inserted)},
        )

    # ------------------------------------------------------------------ #
    # heuristic machinery
    # ------------------------------------------------------------------ #
    def _decide(
        self,
        ops: Sequence[Gate],
        successors: Sequence[Sequence[int]],
        in_degree: list[int],
        front: set[int],
        l2p: list[int],
        p2l: list[int],
    ) -> list[int]:
        """The interpreted decision loop: the compiled kernel's fallback and
        oracle.

        Returns the same events as the kernel — an executed node index, or
        ``~edge`` (``-(edge + 1)``) for a SWAP — and mutates its arguments.
        """
        num_nodes = len(ops)
        num_physical = len(p2l)
        executed = 0
        events: list[int] = []
        emit = events.append
        # each node's qubit pair when it is a 2-qubit node (the extended set's
        # membership test), else None
        node_pairs = [op.qubits if len(op.qubits) == 2 else None for op in ops]
        decay = [1.0] * num_physical
        steps_since_progress = 0
        coupled = self._coupled
        edge_u = self._edge_u
        edge_v = self._edge_v
        scorer = _DeltaScorer(self, l2p, p2l)

        # Rebuilt whenever a gate executes (the front layer changed): the
        # logical pairs of the blocked front (the scorer also takes the
        # extended set's), the logical qubits of the front, and the candidate
        # SWAPs — the edge ids touching those qubits' current positions,
        # ascending.
        front_list: list[tuple[int, ...]] = []
        front_qubits: set[int] = set()
        candidates: list[int] = []
        front_dirty = True

        # blocked 2-qubit front gates bucketed by their *current* physical
        # endpoints: after a SWAP of (a, b) only bucket[a] | bucket[b] can
        # have become executable, so nothing else is re-examined.  The
        # parallel ``blocked_pairs`` map keeps their logical pairs at hand so
        # rebuilds need not re-scan the whole front (exact sums are
        # order-insensitive, so its order does not matter).
        buckets: list[set[int]] = [set() for _ in range(num_physical)]
        blocked_pairs: dict[int, tuple[int, ...]] = {}

        def drain(generation: list[int]) -> None:
            """Execute every executable gate, generation by generation.

            ``generation`` is an ascending-index snapshot of candidate nodes;
            successors readied by an execution form the next generation (again
            ascending), which reproduces the emission order of the historic
            rescan-``sorted(front)``-until-stuck loop without re-examining
            blocked gates whose mapping did not change.
            """
            nonlocal executed, front_dirty
            while generation:
                ready: list[int] = []
                for index in generation:
                    op = ops[index]
                    qubits = op.qubits
                    if len(qubits) == 2 and not (op.is_barrier or op.is_measurement):
                        a, b = l2p[qubits[0]], l2p[qubits[1]]
                        if not coupled[a][b]:
                            # stays blocked: only a SWAP can free it
                            buckets[a].add(index)
                            buckets[b].add(index)
                            blocked_pairs[index] = qubits
                            continue
                        buckets[a].discard(index)
                        buckets[b].discard(index)
                        blocked_pairs.pop(index, None)
                    elif len(qubits) > 2 and not (op.is_barrier or op.is_measurement):
                        raise ValueError(
                            "baseline router only handles 1- and 2-qubit "
                            f"operations; got {op}"
                        )
                    emit(index)
                    executed += 1
                    front_dirty = True
                    front.discard(index)
                    for succ in successors[index]:
                        in_degree[succ] -= 1
                        if in_degree[succ] == 0:
                            front.add(succ)
                            ready.append(succ)
                generation = sorted(ready)

        drain(sorted(front))
        while executed < num_nodes:
            if front_dirty:
                front_list = list(blocked_pairs.values())
                scorer.rebuild(front_list, self._extended_pairs(node_pairs, successors, front))
                front_qubits = {q for pair in front_list for q in pair}
                candidates = self._candidate_edges(front_qubits, l2p)
                front_dirty = False
            if not front_list:  # pragma: no cover
                raise RuntimeError(
                    "router made no progress but no 2-qubit gate is blocked"
                )

            edge = candidates[self._pick_swap(scorer.scores(candidates, decay))]
            a, b = edge_u[edge], edge_v[edge]
            emit(~edge)
            la, lb = p2l[a], p2l[b]
            if la >= 0:
                l2p[la] = b
            if lb >= 0:
                l2p[lb] = a
            p2l[a], p2l[b] = lb, la
            scorer.swapped(edge)
            decay[a] += self.decay_factor
            decay[b] += self.decay_factor
            steps_since_progress += 1
            if steps_since_progress % self.decay_reset_interval == 0:
                decay = [1.0] * num_physical

            # the SWAP exchanged the two qubits' blocked-gate populations;
            # only those gates can have become executable
            buckets[a], buckets[b] = buckets[b], buckets[a]
            drain(sorted(buckets[a] | buckets[b]))
            if not front_dirty and (la in front_qubits) != (lb in front_qubits):
                # nothing executed, but the SWAP carried a front qubit off the
                # front's positions: the candidate set moved
                candidates = self._candidate_edges(front_qubits, l2p)
        return events

    def _extended_pairs(
        self,
        node_pairs: Sequence[tuple[int, ...] | None],
        successors: Sequence[Sequence[int]],
        front: set[int],
    ) -> list[tuple[int, ...]]:
        """Logical pairs of upcoming 2-qubit gates (the lookahead window).

        Breadth-first over the dependency DAG from the front layer, truncated
        at ``extended_set_size`` — the exact traversal (and therefore the
        exact membership at the truncation boundary) of the historic
        implementation, seeded from ``list(front)`` and walking the cached
        successor lists in their sets' iteration order.  ``node_pairs`` holds
        each node's qubit pair, or None when it is not a 2-qubit node.
        """
        limit = self.extended_set_size
        extended: list[tuple[int, ...]] = []
        seen: set[int] = set()
        frontier = list(front)
        while frontier and len(extended) < limit:
            next_frontier: list[int] = []
            for index in frontier:
                for succ in successors[index]:
                    if succ in seen:
                        continue
                    seen.add(succ)
                    pair = node_pairs[succ]
                    if pair is not None:
                        extended.append(pair)
                        if len(extended) >= limit:
                            break
                    next_frontier.append(succ)
                if len(extended) >= limit:
                    break
            frontier = next_frontier
        return extended

    def _candidate_edges(self, front_qubits: set[int], l2p: list[int]) -> list[int]:
        """Ids of the edges touching a front qubit's position, ascending.

        Edge ids follow the sorted edge list, so ascending ids are the
        historic ``sorted(set(...))`` order of normalized edge tuples.
        """
        edge_ids = self._edge_ids
        return sorted({e for q in front_qubits for e in edge_ids[l2p[q]]})

    def _pick_swap(self, scores: Sequence[float]) -> int:
        """The historic sequential tie-break over ascending candidates.

        A candidate within ``1e-12`` of the running best joins the tie
        *without* lowering the bar, so the chain is order-sensitive; ties
        consume one draw from the router's RNG exactly as before, and a
        unique best consumes none.
        """
        best_score = float("inf")
        best: list[int] = []
        for i, score in enumerate(scores):
            if score - best_score > _TIE_EPS:
                # neither better nor tied (both tests below fail): skip them
                continue
            if score < best_score - _TIE_EPS:
                best_score = score
                best = [i]
            elif abs(score - best_score) <= _TIE_EPS:
                best.append(i)
        return best[self._rng.integers(len(best))] if len(best) > 1 else best[0]


def _compiled_route() -> Callable[..., list[int]] | None:
    """The compiled decision loop's entry point, or None without it."""
    from .kernel import load

    module = load()
    return None if module is None else module.route


class _DeltaScorer:
    """Exact-integer SWAP scores from cached directed delta terms.

    Swapping edge ``(a, b)`` changes a pair group's total distance by
    ``D(a->b) + D(b->a)``.  The directed term ``D(u->v)`` sums, over the
    unique pairs of ``u``'s occupant, ``dist[v][partner] - dist[u][partner]``
    (a pair whose partner sits on ``v`` keeps its distance).  It depends only
    on ``u``'s occupant, that occupant's partner lists and the partners'
    positions, so the terms are cached per owner ``u`` (front and extended
    group together) and dropped only when one of those changes:

    * a SWAP on ``(a, b)`` stales the owners ``a`` and ``b`` and the current
      positions of the swapped occupants' partners;
    * a front or extended-set rebuild stales the positions of the endpoints
      of the unique pairs that joined or left a group.

    Each edge also caches its summed ``(front, extended)`` delta.  As in the
    historic scorer, deltas count unique pairs while the pair counts
    ``n_front``/``n_ext`` and the base sums count duplicates; between
    rebuilds each base advances by the chosen SWAP's delta.
    """

    def __init__(self, router: SabreRouter, l2p: list[int], p2l: list[int]) -> None:
        self._dist = router._distance
        self._edge_u = router._edge_u
        self._edge_v = router._edge_v
        self._edge_ids = router._edge_ids
        self._neighbours = router._neighbours
        self._weight = router.extended_set_weight
        self._l2p = l2p
        self._p2l = p2l
        # unique logical pairs per group and the partner lists they induce
        self._front_set: set[tuple[int, ...]] = set()
        self._ext_set: set[tuple[int, ...]] = set()
        self._front: dict[int, list[int]] = {}
        self._ext: dict[int, list[int]] = {}
        # owner -> {neighbour v: (front D(u->v), extended D(u->v))}
        self._terms: list[dict[int, tuple[float, float]] | None] = [None] * len(p2l)
        # edge id -> (front delta, extended delta, u, v) of swapping that edge
        self._edge_delta: list[tuple[float, float, int, int] | None] = [None] * len(
            self._edge_u
        )
        self._base_front = 0.0
        self._base_ext = 0.0
        self._n_front = 1
        self._n_ext = 1

    def rebuild(
        self, front_pairs: list[tuple[int, ...]], ext_pairs: list[tuple[int, ...]]
    ) -> None:
        """Adopt a new front and extended set (logical pairs, duplicates kept)."""
        front_set = set(front_pairs)
        ext_set = set(ext_pairs)
        self._regroup(self._front, self._front_set, front_set)
        self._regroup(self._ext, self._ext_set, ext_set)
        self._front_set, self._ext_set = front_set, ext_set
        dist, l2p = self._dist, self._l2p
        self._n_front = max(len(front_pairs), 1)
        self._n_ext = max(len(ext_pairs), 1)
        self._base_front = float(sum(dist[l2p[p]][l2p[q]] for p, q in front_pairs))
        self._base_ext = float(sum(dist[l2p[p]][l2p[q]] for p, q in ext_pairs))

    def scores(self, candidates: list[int], decay: list[float]) -> list[float]:
        """``max(decay) * (front cost + weight * extended cost)`` per edge id."""
        edge_delta = self._edge_delta
        base_front, base_ext = self._base_front, self._base_ext
        n_front, n_ext, weight = self._n_front, self._n_ext, self._weight
        scores = []
        for e in candidates:
            cached = edge_delta[e]
            if cached is None:
                cached = edge_delta[e] = self._delta(e)
            delta_front, delta_ext, a, b = cached
            decay_a = decay[a]
            decay_b = decay[b]
            scores.append(
                (decay_a if decay_a > decay_b else decay_b)
                * (
                    (base_front + delta_front) / n_front
                    + weight * ((base_ext + delta_ext) / n_ext)
                )
            )
        return scores

    def swapped(self, edge: int) -> None:
        """Invalidate after the SWAP on ``edge`` (mapping already updated)
        and move each base sum by that SWAP's delta, scored just before; a
        rebuild, if the front changes next, recomputes the bases anyway."""
        moved = self._edge_delta[edge]
        assert moved is not None
        self._base_front += moved[0]
        self._base_ext += moved[1]
        a, b = moved[2], moved[3]
        stale = self._stale
        stale(a)
        stale(b)
        l2p = self._l2p
        for logical in (self._p2l[a], self._p2l[b]):
            for partner in self._front.get(logical, ()):
                stale(l2p[partner])
            for partner in self._ext.get(logical, ()):
                stale(l2p[partner])

    def _regroup(
        self,
        partners: dict[int, list[int]],
        old: set[tuple[int, ...]],
        new: set[tuple[int, ...]],
    ) -> None:
        """Apply one group's pair changes to its partner lists and stale the
        positions of every endpoint whose list changed."""
        l2p = self._l2p
        for p, q in old - new:
            partners[p].remove(q)
            partners[q].remove(p)
            self._stale(l2p[p])
            self._stale(l2p[q])
        for p, q in new - old:
            partners.setdefault(p, []).append(q)
            partners.setdefault(q, []).append(p)
            self._stale(l2p[p])
            self._stale(l2p[q])

    def _stale(self, owner: int) -> None:
        self._terms[owner] = None
        edge_delta = self._edge_delta
        for e in self._edge_ids[owner]:
            edge_delta[e] = None

    def _delta(self, e: int) -> tuple[float, float, int, int]:
        a, b = self._edge_u[e], self._edge_v[e]
        terms = self._terms
        from_a = terms[a]
        if from_a is None:
            from_a = terms[a] = self._owner_terms(a)
        from_b = terms[b]
        if from_b is None:
            from_b = terms[b] = self._owner_terms(b)
        front_a, ext_a = from_a[b]
        front_b, ext_b = from_b[a]
        return front_a + front_b, ext_a + ext_b, a, b

    def _owner_terms(self, u: int) -> dict[int, tuple[float, float]]:
        """``D(u->v)`` for every neighbour ``v`` of ``u``, both groups."""
        logical = self._p2l[u]
        l2p = self._l2p
        front = [l2p[m] for m in self._front.get(logical, ())]
        ext = [l2p[m] for m in self._ext.get(logical, ())]
        if not front and not ext:
            return dict.fromkeys(self._neighbours[u], (0.0, 0.0))
        dist = self._dist
        dist_u = dist[u]
        terms: dict[int, tuple[float, float]] = {}
        for v in self._neighbours[u]:
            dist_v = dist[v]
            delta_front = 0.0
            for partner in front:
                if partner != v:
                    delta_front += dist_v[partner] - dist_u[partner]
            delta_ext = 0.0
            for partner in ext:
                if partner != v:
                    delta_ext += dist_v[partner] - dist_u[partner]
            terms[v] = (delta_front, delta_ext)
        return terms
