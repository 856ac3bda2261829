"""Rules 2 and 3 — semantic preservation and highway-protocol invariants.

The replayer walks a compiled (physical) circuit in emission order while
tracking the logical-to-physical mapping.  It elides pure *movement* (routing
SWAPs, the four-CNOT bridge identity) and the highway protocol's scaffolding
(GHZ preparation, cat-entangler, cat-disentangler, measurement corrections),
reconstructs the logical gate every remaining operation implements, and
consumes matching nodes of the input circuit's commutation-aware dependency
DAG (:class:`repro.circuits.dag.DependencyDag`).

A clean replay therefore proves the routed circuit is a dependency-preserving
reordering of the input modulo the commutation relations in
:mod:`repro.circuits.commutation`, with the tracked final layout equal to the
reported one.  Along the way the same walk checks the paper's protocol
invariants: fan-out gates only fire from an *established* (carrier-entangled)
GHZ member, a highway qubit is never re-initialised while it is still
entangled in an open shuttle (occupancy windows never overlap), and the
components aggregated into one protocol instance pairwise commute.

Known, deliberate limits (documented in the README rule catalogue):

* An input ``swap`` gate that falls back to the highway is decomposed into
  three CNOTs by the scheduler; the replayer matches those CNOTs only if the
  input itself contains them.  No repository workload emits this path.
* Operations on *unmapped* qubits that are not part of a recognised protocol
  shape are ignored rather than flagged — they cannot change the state of any
  logical qubit that has been mapped, so semantics is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.circuit import Circuit
from ..circuits.commutation import commutes
from ..circuits.dag import DependencyDag
from ..circuits.gates import Gate
from ..compiler.result import CompilationResult
from ..compiler.rewrite import fuse_zz_ladders
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from .violations import RULE_HIGHWAY, RULE_SEMANTICS, Violation

__all__ = ["ReplayOutcome", "check_replay", "replay_result"]

#: 2-qubit gates whose qubit order is semantically irrelevant.
_SYMMETRIC_2Q = frozenset({"cz", "cp", "swap"})

#: Depth-weight of a SWAP, mirroring the scheduler's ``_SWAP_WEIGHT``.
_SWAP_WEIGHT = 3.0


def _canonical_qubits(name: str, qubits: tuple[int, ...]) -> tuple[int, ...]:
    if name in _SYMMETRIC_2Q and len(qubits) == 2 and qubits[0] > qubits[1]:
        return (qubits[1], qubits[0])
    if name == "barrier":
        return tuple(sorted(qubits))
    return qubits


def _node_key(op: Gate) -> tuple:
    cbit = op.cbit if op.is_measurement else None
    return (op.name, _canonical_qubits(op.name, op.qubits), op.params, op.condition, cbit)


def _logical_key(
    name: str,
    qubits: tuple[int, ...],
    params: tuple[float, ...] = (),
    condition: tuple | None = None,
    cbit: int | None = None,
) -> tuple:
    return (name, _canonical_qubits(name, qubits), params, condition, cbit)


class _DagMatcher:
    """Incremental matcher over the input circuit's dependency DAG."""

    def __init__(self, circuit: Circuit) -> None:
        dag = DependencyDag(circuit, commutation_aware=True)
        self.ops: list[Gate] = list(circuit.operations)
        self.keys: list[tuple] = [_node_key(op) for op in self.ops]
        self.successors: list[list[int]] = dag.successor_lists()
        self.predecessors: list[list[int]] = [sorted(node.predecessors) for node in dag.nodes]
        self.indegree: list[int] = dag.in_degrees()
        self.matched: list[bool] = [False] * len(self.ops)
        self.num_matched = 0
        # key -> FIFO of ready (all predecessors matched), unmatched node ids
        self.ready: dict[tuple, list[int]] = {}
        # key -> all node ids, for diagnosing ordering violations
        self.by_key: dict[tuple, list[int]] = {}
        for index, key in enumerate(self.keys):
            self.by_key.setdefault(key, []).append(index)
            if self.indegree[index] == 0:
                self.ready.setdefault(key, []).append(index)

    def match(self, key: tuple) -> int | None:
        """Consume and return a ready node with ``key``, or ``None``."""
        bucket = self.ready.get(key)
        if not bucket:
            return None
        node = bucket.pop(0)
        self.matched[node] = True
        self.num_matched += 1
        for succ in self.successors[node]:
            self.indegree[succ] -= 1
            if self.indegree[succ] == 0 and not self.matched[succ]:
                self.ready.setdefault(self.keys[succ], []).append(succ)
        return node

    def blocked_node(self, key: tuple) -> int | None:
        """An unmatched input node with ``key`` whose dependencies are unmet."""
        for index in self.by_key.get(key, ()):
            if not self.matched[index] and self.indegree[index] > 0:
                return index
        return None

    def unmet_predecessors(self, node: int) -> list[int]:
        return [p for p in self.predecessors[node] if not self.matched[p]]

    def unmatched_nodes(self) -> list[int]:
        return [i for i, done in enumerate(self.matched) if not done]


@dataclass
class _Group:
    """A connected cluster of entangled highway/ancilla qubits (one shuttle)."""

    members: set[int] = field(default_factory=set)  # every qubit that ever joined
    active: set[int] = field(default_factory=set)  # currently entangled
    carrier: int | None = None  # logical hub whose value the members carry
    carrier_index: int | None = None  # emitted index of the cat-entangler CX
    start_index: int = 0
    start_clock: float = 0.0
    gates: list[Gate] = field(default_factory=list)  # reconstructed logical fan-out gates
    closed: bool = False
    release_clock: float = 0.0


@dataclass
class ReplayOutcome:
    """What one replay pass over a compiled circuit established."""

    semantic_violations: list[Violation] = field(default_factory=list)
    highway_violations: list[Violation] = field(default_factory=list)
    protocol_instances: int = 0
    swap_count: int = 0
    ops_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.semantic_violations and not self.highway_violations


class _Replayer:
    def __init__(self, source: Circuit, result: CompilationResult, noise: NoiseModel) -> None:
        self.result = result
        self.noise = noise
        self.matcher = _DagMatcher(source)
        self.l2p: dict[int, int] = dict(result.initial_layout)
        self.p2l: dict[int, int] = {}
        self.outcome = ReplayOutcome()
        for logical, physical in result.initial_layout.items():
            if physical in self.p2l:
                self._semantic(
                    "initial-layout-invalid",
                    f"initial layout maps logicals {self.p2l[physical]} and {logical} "
                    f"to the same physical qubit {physical}",
                    qubits=(physical,),
                )
            self.p2l[physical] = logical
        # parity-tracked unmatched Hadamards per *logical* qubit (the target-kind
        # protocol conjugates its hub with an H pair wrapping the instance)
        self.pending_h: dict[int, list[int]] = {}
        self.group_of: dict[int, _Group] = {}
        self.groups: list[_Group] = []
        self.clock: dict[int, float] = {}
        self.entangler_events = 0

    # ------------------------------------------------------------------ #
    # violation helpers
    # ------------------------------------------------------------------ #
    def _semantic(self, code: str, message: str, *, gate_index: int | None = None,
                  qubits: tuple[int, ...] = (), counterexample: dict | None = None) -> None:
        self.outcome.semantic_violations.append(
            Violation(RULE_SEMANTICS, code, message, gate_index=gate_index,
                      qubits=qubits, counterexample=counterexample or {})
        )

    def _highway(self, code: str, message: str, *, gate_index: int | None = None,
                 qubits: tuple[int, ...] = (), counterexample: dict | None = None) -> None:
        self.outcome.highway_violations.append(
            Violation(RULE_HIGHWAY, code, message, gate_index=gate_index,
                      qubits=qubits, counterexample=counterexample or {})
        )

    # ------------------------------------------------------------------ #
    # clock (mirrors the scheduler's `_emit_ops` and `_emit_swap` weights)
    # ------------------------------------------------------------------ #
    def _advance(self, op: Gate) -> float:
        clock = self.clock
        qubits = op.qubits
        if op.is_barrier:
            sync = max((clock.get(q, 0.0) for q in qubits), default=0.0)
            for q in qubits:
                clock[q] = sync
            return sync
        if op.is_measurement:
            weight = self.noise.meas_latency
        elif op.name == "swap":
            weight = _SWAP_WEIGHT
        elif len(qubits) == 2:
            weight = 1.0
        else:
            weight = 0.0
        start = max((clock.get(q, 0.0) for q in qubits), default=0.0)
        for q in qubits:
            clock[q] = start + weight
        return start

    # ------------------------------------------------------------------ #
    # highway group bookkeeping
    # ------------------------------------------------------------------ #
    def _group_join(self, qubit: int, index: int, start: float) -> _Group:
        group = self.group_of.get(qubit)
        if group is None:
            group = _Group(members={qubit}, active={qubit},
                           start_index=index, start_clock=start)
            self.groups.append(group)
            self.group_of[qubit] = group
        else:
            group.members.add(qubit)
            group.active.add(qubit)
        return group

    def _group_merge(self, a: int, b: int, index: int, start: float) -> _Group:
        ga = self._group_join(a, index, start)
        gb = self._group_join(b, index, start)
        if ga is gb:
            return ga
        if ga.carrier is not None and gb.carrier is not None:
            self._highway(
                "occupancy-overlap",
                f"entangling CX merges two carrier-established shuttles at qubits ({a}, {b})",
                gate_index=index,
                qubits=(a, b),
                counterexample={"carriers": (ga.carrier, gb.carrier)},
            )
        keep, fold = (ga, gb) if len(ga.members) >= len(gb.members) else (gb, ga)
        keep.members |= fold.members
        keep.active |= fold.active
        keep.carrier = keep.carrier if keep.carrier is not None else fold.carrier
        keep.carrier_index = (
            keep.carrier_index if keep.carrier_index is not None else fold.carrier_index
        )
        keep.start_index = min(keep.start_index, fold.start_index)
        keep.start_clock = min(keep.start_clock, fold.start_clock)
        keep.gates.extend(fold.gates)
        for q in fold.members:
            if self.group_of.get(q) is fold:
                self.group_of[q] = keep
        self.groups.remove(fold)
        return keep

    def _group_leave(self, qubit: int, index: int) -> None:
        group = self.group_of.pop(qubit, None)
        if group is None:
            return
        group.active.discard(qubit)
        if not group.active and not group.closed:
            self._close_group(group, index)

    def _close_group(self, group: _Group, index: int) -> None:
        group.closed = True
        group.release_clock = max(
            (self.clock.get(q, 0.0) for q in group.members), default=0.0
        )
        if group.carrier is not None:
            self.outcome.protocol_instances += 1
            self._check_unit_commutes(group, index)

    def _check_unit_commutes(self, group: _Group, index: int) -> None:
        gates = group.gates
        for i in range(len(gates)):
            for j in range(i + 1, len(gates)):
                if not commutes(gates[i], gates[j]):
                    self._highway(
                        "noncommuting-unit",
                        f"aggregated unit executes non-commuting logical gates "
                        f"{gates[i].name}{gates[i].qubits} and {gates[j].name}{gates[j].qubits} "
                        f"in one shuttle",
                        gate_index=index,
                        counterexample={
                            "gate_a": (gates[i].name, gates[i].qubits, gates[i].params),
                            "gate_b": (gates[j].name, gates[j].qubits, gates[j].params),
                        },
                    )
                    return

    # ------------------------------------------------------------------ #
    # matching helpers
    # ------------------------------------------------------------------ #
    def _conjugated(self, logical: int) -> bool:
        return len(self.pending_h.get(logical, ())) % 2 == 1

    def _try_match(self, key: tuple, index: int) -> int | None:
        """Match ``key`` unless one of its logicals sits inside an open H pair."""
        name, qubits = key[0], key[1]
        if name != "barrier" and any(self._conjugated(q) for q in qubits):
            return None
        return self.matcher.match(key)

    def _diagnose(self, key: tuple, index: int, op: Gate, logical_qubits: tuple[int, ...]) -> None:
        """Emit the right semantics violation for an unmatchable operation."""
        blocked = self.matcher.blocked_node(key)
        if blocked is not None:
            unmet = self.matcher.unmet_predecessors(blocked)
            self._semantic(
                "dependency-order",
                f"{op.name} on physical {op.qubits} (logical {logical_qubits}) matches input "
                f"op[{blocked}] but {len(unmet)} of its dependencies are still unexecuted",
                gate_index=index,
                qubits=op.qubits,
                counterexample={
                    "input_index": blocked,
                    "unmet_predecessors": unmet[:8],
                    "logical_gate": (key[0], logical_qubits),
                },
            )
            return
        self._semantic(
            "unexpected-op",
            f"{op.name} on physical {op.qubits} implements logical "
            f"{key[0]}{logical_qubits} which is not pending in the input circuit",
            gate_index=index,
            qubits=op.qubits,
            counterexample={
                "logical_gate": (key[0], logical_qubits, key[2]),
                "mapping": {q: self.p2l.get(q) for q in op.qubits},
            },
        )

    # ------------------------------------------------------------------ #
    # movement
    # ------------------------------------------------------------------ #
    def _movement_swap(self, op: Gate, index: int) -> None:
        a, b = op.qubits
        for q in (a, b):
            group = self.group_of.get(q)
            if group is not None and not group.closed:
                self._highway(
                    "occupancy-overlap",
                    f"routing SWAP touches highway qubit {q} while it is still entangled "
                    f"in an open shuttle",
                    gate_index=index,
                    qubits=(a, b),
                    counterexample={"entangled_qubit": q,
                                    "shuttle_started_at": group.start_index},
                )
        la = self.p2l.get(a)
        lb = self.p2l.get(b)
        if la is not None:
            self.l2p[la] = b
            self.p2l[b] = la
        elif b in self.p2l:
            del self.p2l[b]
        if lb is not None:
            self.l2p[lb] = a
            self.p2l[a] = lb
        elif a in self.p2l:
            del self.p2l[a]

    def _is_bridge(self, ops: list[Gate], i: int) -> bool:
        """Four contiguous CNOTs realising the bridge identity CX(c, t) via m."""
        if i + 3 >= len(ops):
            return False
        a, b, c, d = ops[i : i + 4]
        for op in (a, b, c, d):
            if op.name != "cx" or op.condition is not None:
                return False
        if a.qubits != c.qubits or b.qubits != d.qubits:
            return False
        ctrl, mid = a.qubits
        mid2, tgt = b.qubits
        if mid2 != mid or tgt == ctrl:
            return False
        # both ends must be unmapped (highway) qubits; the middle may be a
        # data qubit the bridge borrows (its state is restored by the identity)
        return ctrl not in self.p2l and tgt not in self.p2l

    # ------------------------------------------------------------------ #
    # main walk
    # ------------------------------------------------------------------ #
    def run(self) -> ReplayOutcome:
        ops = list(self.result.circuit.operations)
        self.outcome.ops_checked = len(ops)
        i = 0
        while i < len(ops):
            if self._is_bridge(ops, i):
                ctrl, mid = ops[i].qubits
                tgt = ops[i + 1].qubits[1]
                start = min(self._advance(ops[i + j]) for j in range(4))
                self._group_merge(ctrl, tgt, i, start)
                i += 4
                continue
            op = ops[i]
            start = self._advance(op)
            self._step(op, i, start)
            i += 1
        self._finish()
        return self.outcome

    def _step(self, op: Gate, index: int, start: float) -> None:
        p2l = self.p2l
        if op.name == "swap":
            self.outcome.swap_count += 1
            a, b = op.qubits
            if a in p2l and b in p2l:
                key = _logical_key("swap", (p2l[a], p2l[b]))
                if self._try_match(key, index) is not None:
                    return  # a logical SWAP gate: values swap, the mapping does not
            self._movement_swap(op, index)
            return

        if op.is_barrier:
            mapped = [q for q in op.qubits if q in p2l]
            if len(mapped) == len(op.qubits):
                key = _logical_key("barrier", tuple(p2l[q] for q in op.qubits))
                self._try_match(key, index)
            # protocol barriers (and any mixed ones) synchronise scheduling
            # only; they cannot change logical semantics
            return

        if op.is_measurement:
            q = op.qubits[0]
            if q in p2l:
                lq = p2l[q]
                key = _logical_key("measure", (lq,), cbit=op.cbit)
                if self._try_match(key, index) is None:
                    self._diagnose(key, index, op, (lq,))
                return
            self._group_leave(q, index)
            return

        if op.condition is not None:
            mapped = [q in p2l for q in op.qubits]
            if all(mapped):
                logical = tuple(p2l[q] for q in op.qubits)
                key = _logical_key(op.name, logical, op.params, op.condition)
                if self._try_match(key, index) is not None:
                    return
                if op.name == "z" and len(op.qubits) == 1:
                    return  # cat-disentangler parity correction on the hub
                self._diagnose(key, index, op, logical)
                return
            # measurement corrections / resets on highway qubits
            return

        num_qubits = len(op.qubits)
        if num_qubits == 1:
            q = op.qubits[0]
            if q in p2l:
                self._data_1q(op, index, q)
            else:
                self._ancilla_1q(op, index, q, start)
            return

        if num_qubits == 2:
            a, b = op.qubits
            a_mapped, b_mapped = a in p2l, b in p2l
            if a_mapped and b_mapped:
                logical = (p2l[a], p2l[b])
                key = _logical_key(op.name, logical, op.params)
                if self._try_match(key, index) is None:
                    self._diagnose(key, index, op, logical)
            elif a_mapped:
                self._entangler(op, index, start)
            elif b_mapped:
                self._fan_out(op, index)
            else:
                self._ancilla_2q(op, index, start)
            return

        # multi-qubit macros never appear in emitted circuits; interpret the
        # logical gate directly if the mapping covers it
        if all(q in p2l for q in op.qubits):
            logical = tuple(p2l[q] for q in op.qubits)
            key = _logical_key(op.name, logical, op.params)
            if self._try_match(key, index) is None:
                self._diagnose(key, index, op, logical)

    # ------------------------------------------------------------------ #
    # per-shape handlers
    # ------------------------------------------------------------------ #
    def _data_1q(self, op: Gate, index: int, q: int) -> None:
        lq = self.p2l[q]
        key = _logical_key(op.name, (lq,), op.params)
        if self._try_match(key, index) is not None:
            return
        if op.name == "h" and not op.params:
            # potential half of a target-kind conjugation pair; judged at the end
            self.pending_h.setdefault(lq, []).append(index)
            return
        self._diagnose(key, index, op, (lq,))

    def _ancilla_1q(self, op: Gate, index: int, q: int, start: float) -> None:
        if op.name != "h":
            return  # conditioned resets are handled above; others are inert here
        group = self.group_of.get(q)
        if group is None:
            self._group_join(q, index, start)  # GHZ preparation |+>
            return
        if group.carrier is not None:
            return  # cat-disentangler X-basis rotation; the measure follows
        self._highway(
            "occupancy-overlap",
            f"highway qubit {q} re-initialised by H while still entangled in the "
            f"shuttle opened at op[{group.start_index}]",
            gate_index=index,
            qubits=(q,),
            counterexample={"shuttle_started_at": group.start_index},
        )

    def _ancilla_2q(self, op: Gate, index: int, start: float) -> None:
        if op.name == "cx":
            a, b = op.qubits
            self._group_merge(a, b, index, start)
        # cz between highway qubits does not occur in any emission path; it is
        # diagonal and carrier-free, so it cannot affect data semantics

    def _entangler(self, op: Gate, index: int, start: float) -> None:
        data, entrance = op.qubits
        if op.name != "cx":
            logical = (self.p2l[data],)
            key = _logical_key(op.name, (self.p2l[data], entrance), op.params)
            self._semantic(
                "unexpected-op",
                f"{op.name} couples data qubit {data} to unmapped qubit {entrance} outside "
                f"any recognised protocol shape",
                gate_index=index,
                qubits=op.qubits,
                counterexample={"logical_control": logical[0], "key": key[:2]},
            )
            return
        group = self.group_of.get(entrance)
        if group is None or entrance not in group.active:
            carrier = self.p2l[data]
            revived = next(
                (grp for grp in self.groups if not grp.closed and grp.carrier == carrier),
                None,
            )
            if revived is not None:
                # cat-state re-extension: the hub re-entangles a member the
                # entangler measured out (dead hub-entrance revival) — the same
                # shuttle instance continues, no new carrier is established
                revived.members.add(entrance)
                revived.active.add(entrance)
                self.group_of[entrance] = revived
                return
            self._highway(
                "entangler-unestablished",
                f"cat-entangler CX targets highway qubit {entrance} with no established "
                f"GHZ chain",
                gate_index=index,
                qubits=op.qubits,
            )
            group = self._group_join(entrance, index, start)
        if group.carrier is not None:
            self._highway(
                "occupancy-overlap",
                f"cat-entangler CX re-entangles shuttle at entrance {entrance} which already "
                f"carries logical {group.carrier} (no disentangle in between)",
                gate_index=index,
                qubits=op.qubits,
                counterexample={"previous_carrier": group.carrier,
                                "previous_entangler": group.carrier_index},
            )
        group.carrier = self.p2l[data]
        group.carrier_index = index
        self.entangler_events += 1

    def _fan_out(self, op: Gate, index: int) -> None:
        member, spoke = op.qubits
        lt = self.p2l[spoke]
        group = self.group_of.get(member)
        if group is None or member not in group.active or group.carrier is None:
            self._highway(
                "fanout-unestablished",
                f"fan-out {op.name} fires from highway qubit {member} which is not an "
                f"established member of any carrier-entangled GHZ chain",
                gate_index=index,
                qubits=op.qubits,
                counterexample={"spoke_logical": lt},
            )
            return
        carrier = group.carrier
        if self._conjugated(carrier) and op.name == "cz" and not op.params:
            # target-shared CX group: the hub's H conjugation turns each
            # component into a CZ; undo it for matching
            logical_gate = Gate.trusted("cx", (lt, carrier))
        else:
            logical_gate = Gate.trusted(op.name, (carrier, lt), op.params)
        key = _logical_key(logical_gate.name, logical_gate.qubits, logical_gate.params)
        node = self.matcher.match(key)
        if node is None:
            self._diagnose(key, index, op, logical_gate.qubits)
            return
        group.gates.append(logical_gate)

    # ------------------------------------------------------------------ #
    # end-of-circuit checks
    # ------------------------------------------------------------------ #
    def _finish(self) -> None:
        for logical, indices in sorted(self.pending_h.items()):
            if len(indices) % 2 == 1:
                self._semantic(
                    "unexpected-op",
                    f"unbalanced H on logical qubit {logical}: {len(indices)} emitted "
                    f"Hadamard(s) match neither the input nor a conjugation pair",
                    gate_index=indices[-1],
                    counterexample={"logical": logical, "emitted_at": indices[:8]},
                )
        unmatched = self.matcher.unmatched_nodes()
        for node in unmatched[:50]:
            op = self.matcher.ops[node]
            self._semantic(
                "dropped-op",
                f"input op[{node}] {op.name}{op.qubits} was never executed by the "
                f"compiled circuit",
                counterexample={"input_index": node,
                                "unmet_predecessors": self.matcher.unmet_predecessors(node)[:8]},
            )
        if len(unmatched) > 50:
            self._semantic(
                "dropped-op",
                f"... and {len(unmatched) - 50} further input operations were never executed",
                counterexample={"total_dropped": len(unmatched)},
            )
        reported = self.result.final_layout
        mismatches = {
            logical: (tracked, reported.get(logical))
            for logical, tracked in sorted(self.l2p.items())
            if reported.get(logical) != tracked
        }
        extra = {
            logical: (None, physical)
            for logical, physical in sorted(reported.items())
            if logical not in self.l2p
        }
        mismatches.update(extra)
        if mismatches:
            self._semantic(
                "final-layout-mismatch",
                f"tracked final layout disagrees with the reported one on "
                f"{len(mismatches)} logical qubit(s)",
                counterexample={"logical -> (tracked, reported)": dict(
                    list(mismatches.items())[:10]
                )},
            )
        for group in self.groups:
            if not group.closed and group.carrier is not None:
                self._highway(
                    "unreleased-shuttle",
                    f"shuttle opened at op[{group.start_index}] (carrier logical "
                    f"{group.carrier}) is never disentangled",
                    gate_index=group.carrier_index,
                    counterexample={"active_qubits": sorted(group.active)[:10]},
                )


def replay_result(
    source: Circuit, result: CompilationResult, *, noise: NoiseModel = DEFAULT_NOISE
) -> ReplayOutcome:
    """Replay ``result`` against ``source`` once (no rewrite candidates)."""
    return _Replayer(source, result, noise).run()


def check_replay(
    source: Circuit, result: CompilationResult, *, noise: NoiseModel = DEFAULT_NOISE
) -> ReplayOutcome:
    """Replay with rewrite awareness: accept the input *or* its ZZ-fused form.

    The MECH pipeline optionally rewrites CX·RZ·CX ladders into the
    RZ/RZ/CP form before routing (:func:`repro.compiler.rewrite.
    fuse_zz_ladders`); a compiled circuit is semantically faithful if it
    replays cleanly against either the raw input or that rewrite.
    """
    outcome = replay_result(source, result, noise=noise)
    if outcome.clean:
        return outcome
    rewritten = fuse_zz_ladders(source)
    if list(rewritten.operations) != list(source.operations):
        alternative = replay_result(rewritten, result, noise=noise)
        if alternative.clean:
            return alternative
        # report whichever candidate got further
        if len(alternative.semantic_violations) < len(outcome.semantic_violations):
            return alternative
    return outcome
