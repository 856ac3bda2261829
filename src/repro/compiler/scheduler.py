"""MECH gate scheduling and emission (paper Sections 6.1-6.2).

The scheduler walks the execution units produced by the aggregation pass (in
dependency order) and emits a physical circuit:

* ordinary gates are executed in place or after SWAP-routing their qubits
  together through the data subgraph;
* highway gates go through the full protocol: entrance selection for the hub
  and every spoke (earliest-execution heuristic of §6.1), local routing of the
  hub to its entrance, a route tree over the highway (spatial sharing), the
  measurement-based GHZ preparation on that tree, the cat-entangler, one
  fan-out gate per spoke as it arrives at its entrance (temporal sharing /
  dynamic shuttle period of §6.2), and finally the cat-disentangler that
  releases the highway qubits for the next shuttle.

Per-physical-qubit clocks are maintained for the heuristics; the reported
depth is recomputed from the emitted circuit with the same ASAP rule, so the
heuristics only influence decisions, never the metric itself.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..circuits import gates as g
from ..circuits.circuit import Circuit, _rebuild_trusted
from ..circuits.gates import Gate
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..hardware.topology import Topology
from ..highway.ghz import tree_ghz
from ..highway.layout import HighwayLayout
from ..highway.occupancy import HighwayManager
from ..highway.protocol import cat_disentangler, cat_entangler, fan_out
from .aggregation import ExecutionUnit, HighwayGateUnit, SingleUnit
from .local_router import LocalRouter, RoutingError
from .result import CompilationResult

__all__ = ["MechScheduler", "SchedulerError"]

#: Depth cost of a SWAP (three CNOTs back to back on the same pair).
_SWAP_WEIGHT = 3.0


class SchedulerError(RuntimeError):
    """Raised when the scheduler cannot realise a unit on the hardware."""


class MechScheduler:
    """Emit a physical circuit for a list of execution units."""

    def __init__(
        self,
        topology: Topology,
        layout: HighwayLayout,
        *,
        noise: NoiseModel = DEFAULT_NOISE,
        entrance_candidates: int = 4,
        router: LocalRouter | None = None,
    ) -> None:
        self.topology = topology
        self.layout = layout
        self.noise = noise
        self.entrance_candidates = entrance_candidates

        self.manager = HighwayManager(layout)
        # a shared pre-warmed router (serve path) must match this device; its
        # distance/next-hop tables are deterministic, so reuse is exact
        if router is not None and router.highway_qubits != layout.highway_qubits:
            raise SchedulerError(
                "the supplied router was built for a different highway layout"
            )
        self.router = router if router is not None else LocalRouter(
            topology, layout.highway_qubits
        )
        self._distance = topology.distance_rows()

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        logical_circuit: Circuit,
        units: Sequence[ExecutionUnit],
        initial_mapping: dict[int, int],
    ) -> CompilationResult:
        """Execute ``units`` (already in dependency order) and emit the result."""
        self._l2p: dict[int, int] = dict(initial_mapping)
        self._p2l: dict[int, int] = {p: l for l, p in self._l2p.items()}
        if len(self._p2l) != len(self._l2p):
            raise SchedulerError("initial mapping is not injective")
        for phys in self._l2p.values():
            if self.layout.is_highway(phys):
                raise SchedulerError(f"initial mapping places a logical qubit on highway qubit {phys}")

        self._out = Circuit(
            self.topology.num_qubits, name=f"{logical_circuit.name}@mech"
        )
        self._clock: dict[int, float] = {q: 0.0 for q in self.topology.qubits()}
        self._next_cbit = logical_circuit.num_qubits
        self._stats = {
            "swaps_inserted": 0.0,
            "highway_gates": 0.0,
            "highway_components": 0.0,
            "regular_two_qubit_gates": 0.0,
            "ghz_preparations": 0.0,
            "highway_fallback_gates": 0.0,
        }

        for unit in units:
            if isinstance(unit, SingleUnit):
                self._execute_single(unit)
            elif isinstance(unit, HighwayGateUnit):
                self._execute_highway_gate(unit)
            else:  # pragma: no cover - defensive
                raise SchedulerError(f"unknown unit type {type(unit)!r}")

        self._stats["shuttles"] = float(self.manager.num_claims)
        self._stats["avg_route_size"] = self.manager.average_occupancy()
        return CompilationResult(
            circuit=self._out,
            topology=self.topology,
            initial_layout=dict(initial_mapping),
            final_layout=dict(self._l2p),
            compiler="mech",
            stats=self._stats,
        )

    # ------------------------------------------------------------------ #
    # emission helpers
    # ------------------------------------------------------------------ #
    def _emit_ops(self, ops: Iterable[Gate]) -> None:
        """Emit operations with the paper's weights, in one loop.

        A measurement costs ``meas_latency``, a 1-qubit gate nothing and any
        other gate 1; an operation starts when the last of its qubits is free.
        A barrier syncs its qubits' clocks.  Entrance selection reads these
        clocks, so the arithmetic must not change: the reported depth is
        recomputed from the circuit, but the choices made here are not.
        """
        append = self._out.operations.append
        clock = self._clock
        meas_latency = self.noise.meas_latency
        for op in ops:
            append(op)
            qubits = op.qubits
            if op.is_barrier:
                sync = max(clock[q] for q in qubits)
                for q in qubits:
                    clock[q] = sync
            elif len(qubits) == 1:
                if op.is_measurement:
                    clock[qubits[0]] += meas_latency
            elif len(qubits) == 2:
                a, b = qubits
                ca, cb = clock[a], clock[b]
                clock[a] = clock[b] = (ca if ca >= cb else cb) + 1.0
            else:
                finish = max(clock[q] for q in qubits) + 1.0
                for q in qubits:
                    clock[q] = finish

    def _emit_swap(self, a: int, b: int) -> None:
        """Emit a SWAP between two data positions and update the mapping.

        A SWAP costs :data:`_SWAP_WEIGHT`, not :meth:`_emit_ops`'s weight of
        a 2-qubit gate.
        """
        # positions come from the router's (validated-int, distinct) chains,
        # so the append skips the circuit's per-qubit range check
        self._out.operations.append(Gate.trusted("swap", (a, b)))
        clock = self._clock
        ca, cb = clock[a], clock[b]
        clock[a] = clock[b] = (ca if ca >= cb else cb) + _SWAP_WEIGHT
        la = self._p2l.get(a)
        lb = self._p2l.get(b)
        if la is not None:
            self._l2p[la] = b
            self._p2l[b] = la
        elif b in self._p2l:
            del self._p2l[b]
        if lb is not None:
            self._l2p[lb] = a
            self._p2l[a] = lb
        elif a in self._p2l:
            del self._p2l[a]
        self._stats["swaps_inserted"] += 1.0

    def _apply_swaps(self, swaps: Sequence[tuple[int, int]]) -> None:
        for a, b in swaps:
            self._emit_swap(a, b)

    def _fresh_cbits(self, count: int) -> int:
        base = self._next_cbit
        self._next_cbit += count
        return base

    # ------------------------------------------------------------------ #
    # ordinary gates
    # ------------------------------------------------------------------ #
    def _execute_single(self, unit: SingleUnit) -> None:
        op = unit.op
        if op.is_barrier or op.is_measurement or op.num_qubits == 1:
            self._emit_ops((_rebuild_trusted(op, tuple(self._l2p[q] for q in op.qubits)),))
            return
        if op.num_qubits != 2:
            raise SchedulerError(f"unsupported operation {op}")
        a = self._l2p[op.qubits[0]]
        b = self._l2p[op.qubits[1]]
        if not self.topology.is_coupled(a, b):
            try:
                swaps = self.router.swaps_to_adjacency(a, b)
            except RoutingError:
                # the data subgraph cannot connect them; fall back to the
                # highway.  A SWAP has no control/target structure, so it is
                # first decomposed into its three CNOTs.
                self._stats["highway_fallback_gates"] += 1.0
                if op.name == "swap":
                    q0, q1 = op.qubits
                    for control, target in ((q0, q1), (q1, q0), (q0, q1)):
                        self._execute_single(
                            SingleUnit(unit.node_index, g.cx(control, target))
                        )
                    return
                self._execute_via_highway(
                    hub=op.qubits[0],
                    components=[(op.qubits[1], op.name, op.params)],
                    kind="control",
                )
                return
            self._apply_swaps(swaps)
            a = self._l2p[op.qubits[0]]
            b = self._l2p[op.qubits[1]]
        self._emit_ops((_rebuild_trusted(op, (a, b)),))
        self._stats["regular_two_qubit_gates"] += 1.0

    # ------------------------------------------------------------------ #
    # highway gates
    # ------------------------------------------------------------------ #
    def _execute_highway_gate(self, unit: HighwayGateUnit) -> None:
        components = [(c.spoke, c.gate_name, c.params) for c in unit.components]
        self._execute_via_highway(hub=unit.hub, components=components, kind=unit.kind)
        self._stats["highway_gates"] += 1.0
        self._stats["highway_components"] += float(unit.num_components)

    def _execute_via_highway(
        self,
        *,
        hub: int,
        components: Sequence[tuple[int, str, tuple[float, ...]]],
        kind: str,
    ) -> None:
        """Run one (possibly single-component) gate through the highway protocol."""
        hub_phys = self._l2p[hub]

        # --- hub entrance selection and local routing -------------------- #
        hub_entrance = self._select_entrance(hub_phys)
        parking = self.router.nearest_parking(hub_phys, hub_entrance)
        if parking is None:
            raise SchedulerError(f"entrance {hub_entrance} has no parking spot")
        if hub_phys != parking and not self.topology.is_coupled(hub_phys, hub_entrance):
            self._apply_swaps(self.router.swaps_to_position(hub_phys, parking))
        hub_phys = self._l2p[hub]

        # --- spoke entrance selection ------------------------------------ #
        # Spokes are assigned entrances in ascending order of their distance to
        # the highway (paper §6.1) and the per-entrance load is tracked so that
        # spokes spread over nearby entrances instead of all contending for the
        # same one (which would serialise their fan-out CNOTs).
        spoke_order = sorted(
            range(len(components)),
            key=lambda i: self.layout.distance_to_highway(self._l2p[components[i][0]]),
        )
        spoke_entrances: dict[int, int] = {}
        entrance_load: dict[int, int] = {}
        for i in spoke_order:
            spoke_phys = self._l2p[components[i][0]]
            chosen = self._select_entrance(
                spoke_phys, exclude=(hub_entrance,), load=entrance_load
            )
            spoke_entrances[i] = chosen
            entrance_load[chosen] = entrance_load.get(chosen, 0) + 1

        # --- highway route and GHZ preparation --------------------------- #
        route = self.manager.build_route(hub_entrance, list(spoke_entrances.values()))
        required = set(spoke_entrances.values()) | {hub_entrance}
        prep = tree_ghz(
            route.adjacency,
            hub_entrance,
            via_lookup=self.manager.via_lookup(),
            cbit_base=self._fresh_cbits(0),
            required_members=sorted(required),
        )
        self._next_cbit = max(self._next_cbit, prep.next_cbit)
        self._emit_ops(prep.operations)
        self._stats["ghz_preparations"] += 1.0

        members = list(prep.members)
        other_members = [m for m in members if m != hub_entrance]

        # --- Hadamard conjugation for target-shared groups --------------- #
        if kind == "target":
            self._emit_ops((Gate.trusted("h", (hub_phys,)),))

        # --- cat-entangler ------------------------------------------------ #
        entangle_cbit = self._fresh_cbits(1)
        self._emit_ops(
            cat_entangler(hub_phys, hub_entrance, other_members, cbit=entangle_cbit)
        )

        # --- fan-out, one spoke at a time (dynamic shuttle period) -------- #
        dead_members = {hub_entrance}  # measured out by the cat-entangler
        for i, (spoke, gate_name, params) in enumerate(components):
            entrance = spoke_entrances[i]
            if entrance in dead_members:
                # A congested region can leave a spoke with no reachable
                # entrance other than the hub's, which the cat-entangler has
                # already measured out of the GHZ chain (and reset to |0>).
                # Fanning out from it would silently drop the component, so
                # re-extend the cat state onto it from the hub data qubit and
                # include it in the disentangler with the other members.
                hub_now = self._l2p[hub]
                if not self.topology.is_coupled(hub_now, entrance):
                    parking = self.router.nearest_parking(hub_now, entrance)
                    if parking is None:
                        raise SchedulerError(f"entrance {entrance} has no parking spot")
                    self._apply_swaps(self.router.swaps_to_position(hub_now, parking))
                    hub_now = self._l2p[hub]
                self._emit_ops((g.cx(hub_now, entrance),))
                other_members.append(entrance)
                dead_members.discard(entrance)
            spoke_phys = self._l2p[spoke]
            if not self.topology.is_coupled(spoke_phys, entrance):
                parking = self.router.nearest_parking(spoke_phys, entrance)
                if parking is None:
                    raise SchedulerError(f"entrance {entrance} has no parking spot")
                self._apply_swaps(self.router.swaps_to_position(spoke_phys, parking))
                spoke_phys = self._l2p[spoke]
            fan_name, fan_params = self._fan_out_gate(gate_name, params, kind)
            self._emit_ops(
                fan_out([(entrance, spoke_phys)], gate_name=fan_name, params=fan_params)
            )

        # --- cat-disentangler (ends this gate's use of the shuttle) ------- #
        hub_phys = self._l2p[hub]
        disentangle_ops, _ = cat_disentangler(
            hub_phys, other_members, cbit_base=self._fresh_cbits(len(other_members))
        )
        self._emit_ops(disentangle_ops)

        # the closing Hadamard of the target-shared conjugation wraps the whole
        # protocol, including the disentangler's Z correction on the hub
        if kind == "target":
            self._emit_ops((Gate.trusted("h", (hub_phys,)),))

        release = max(self._clock[q] for q in route.nodes)
        self.manager.claim(route.nodes, release)

    @staticmethod
    def _fan_out_gate(
        gate_name: str, params: tuple[float, ...], kind: str
    ) -> tuple[str, tuple[float, ...]]:
        """The 2-qubit gate applied from a GHZ member to a spoke data qubit."""
        if kind == "target":
            # CX gates sharing a target are conjugated by Hadamards on the hub,
            # which turns each component into a CZ between the member (carrying
            # the spoke-control's value... the hub) and the spoke.
            return "cz", ()
        return gate_name, params

    # ------------------------------------------------------------------ #
    # entrance selection (earliest-execution heuristic)
    # ------------------------------------------------------------------ #
    def _select_entrance(
        self,
        data_phys: int,
        exclude: Sequence[int] = (),
        load: dict[int, int] | None = None,
    ) -> int:
        """Pick the highway entrance giving the earliest execution time.

        ``t_arr`` is estimated from the data qubit's clock plus the SWAP time
        to reach the entrance's surroundings; ``t_ava`` is when the entrance's
        highway qubit is released by the previous shuttle; the candidate with
        the smallest ``max(t_arr, t_ava)`` wins (ties broken by distance).
        ``load`` counts how many components of the current highway gate already
        use each entrance; every queued component delays this one by roughly a
        fan-out slot, which the score accounts for.
        """
        excluded = set(exclude)

        def usable(entrance: int) -> bool:
            # an entrance is usable only if the data qubit can actually reach
            # one of its parking spots through the data subgraph
            return self.router.nearest_parking(data_phys, entrance) is not None

        candidates = [
            e
            for e in self.manager.entrance_candidates(
                data_phys, limit=self.entrance_candidates + len(excluded)
            )
            if e not in excluded and usable(e)
        ]
        if not candidates:
            candidates = [
                e
                for e in self.manager.entrance_candidates(data_phys, limit=64)
                if e not in excluded and usable(e)
            ]
        if not candidates:
            # last resort: consider every highway qubit, nearest first.  Only
            # fall back on an excluded entrance (e.g. the hub's, which the
            # cat-entangler measures out) when nothing else is reachable; the
            # caller then has to re-extend the cat state onto it.
            pool = sorted(
                (e for e in self.manager.release_time if usable(e)),
                key=lambda e: self._distance[data_phys][e],
            )
            candidates = [e for e in pool if e not in excluded][:16] or pool[:16]
        if not candidates:
            raise SchedulerError(f"no usable highway entrance near position {data_phys}")

        def score(entrance: int) -> tuple[float, float, float, int]:
            hops = max(self._distance[data_phys][entrance] - 1.0, 0.0)
            queued = 0 if load is None else load.get(entrance, 0)
            t_arr = self._clock[data_phys] + _SWAP_WEIGHT * hops
            t_ava = self.manager.next_free(entrance)
            # queued components only break ties between otherwise equally
            # close entrances: moving farther costs a full SWAP chain, which
            # is worse than waiting one fan-out slot
            return (max(t_arr, t_ava), hops, float(queued), entrance)

        return min(candidates, key=score)
