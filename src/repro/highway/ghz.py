"""Measurement-based GHZ state preparation on highway paths (paper Figs. 5-8).

The naive GHZ preparation chains CNOTs along the path and therefore costs
depth linear in the path length.  The paper replaces it with a constant-depth
scheme: put every *even* position of the path in ``|+>``, entangle each *odd*
position with both of its neighbours using CNOTs, measure all odd positions,
and apply outcome-conditioned X corrections to the even positions.  The even
positions are then left in a GHZ state.  When two consecutive highway qubits
are separated by an interval (data) qubit — the sparse, interleaved sections
of the highway — the entangling CNOT becomes a *bridge* gate (four CNOTs
through the interval qubit, which is returned to its original state).

A measured (odd-position) qubit that is needed as a highway entrance can be
re-entangled afterwards with a single CNOT from a neighbouring GHZ member
(paper Fig. 6): a CNOT from a GHZ member onto a ``|0>`` qubit extends the GHZ
state by one qubit.

All functions here return plain lists of :class:`~repro.circuits.gates.Gate`
operations so they can be embedded both into verification circuits (run on the
statevector simulator) and into the MECH compiler's physical output circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from ..circuits import gates as g
from ..circuits.gates import Gate, trusted_barrier, trusted_measure
from ..circuits.library import bridge_cnot

__all__ = ["GhzPrepPlan", "measurement_based_ghz", "tree_ghz", "chain_ghz", "extend_ghz"]

#: Lookup giving the interval qubit between two consecutive highway qubits
#: (``None`` when they are directly coupled).
ViaLookup = Callable[[int, int], int | None]


@dataclass
class GhzPrepPlan:
    """Operations and bookkeeping of one measurement-based GHZ preparation.

    Attributes
    ----------
    operations:
        Gate/measurement list implementing the preparation.
    members:
        Highway qubits that end up in the GHZ state (even path positions plus
        any re-entangled entrances).
    measured:
        Highway qubits measured during the preparation (odd path positions).
    measurement_cbits:
        Classical bits holding the preparation outcomes, keyed by qubit.
    next_cbit:
        First unused classical bit index after the preparation.
    """

    operations: list[Gate] = field(default_factory=list)
    members: list[int] = field(default_factory=list)
    measured: list[int] = field(default_factory=list)
    measurement_cbits: dict[int, int] = field(default_factory=dict)
    next_cbit: int = 0


def _entangling_cnot(control: int, target: int, via: int | None) -> list[Gate]:
    """CNOT between neighbouring highway qubits, bridging an interval qubit if needed."""
    if via is None:
        # highway positions are validated distinct ints; skip re-validation
        return [Gate.trusted("cx", (control, target))]
    return bridge_cnot(control, via, target)


def measurement_based_ghz(
    path: Sequence[int],
    *,
    via_lookup: ViaLookup | None = None,
    cbit_base: int = 0,
    reentangle: Sequence[int] = (),
) -> GhzPrepPlan:
    """Constant-depth GHZ preparation over the highway qubits in ``path``.

    Parameters
    ----------
    path:
        Consecutive highway qubits along the highway (length >= 1).
    via_lookup:
        Function returning the interval qubit between two consecutive path
        qubits (``None`` for a direct coupler).  Defaults to "always direct".
    cbit_base:
        First classical bit index to use for the preparation measurements.
    reentangle:
        Measured (odd-position) qubits that must re-join the GHZ state because
        a gate component uses them as its highway entrance.

    Returns
    -------
    GhzPrepPlan
        The operations plus which qubits are GHZ members afterwards.

    The qubits and ``cbit_base`` must be built-in ``int``s (the scheduler's
    validated positions): the operations take the trusted construction paths.
    """
    path = list(path)
    if not path:
        raise ValueError("GHZ preparation needs a non-empty path")
    if len(set(path)) != len(path):
        raise ValueError("GHZ path must not repeat qubits")
    lookup: ViaLookup = via_lookup if via_lookup is not None else (lambda a, b: None)

    # An even-length path would leave its last qubit at an odd (measured)
    # position with only one neighbour; measuring it would collapse the state
    # (this is the paper's "even case").  Instead the main preparation runs on
    # the odd-length prefix and the trailing qubit is absorbed afterwards by a
    # single extension CNOT from the last member.
    trailing: int | None = None
    if len(path) % 2 == 0 and len(path) > 1:
        trailing = path[-1]
        path = path[:-1]

    plan = GhzPrepPlan(next_cbit=cbit_base)
    members = [path[i] for i in range(0, len(path), 2)]
    measured = [path[i] for i in range(1, len(path), 2)]

    # Step 1: every even position goes to |+>; odd positions stay |0>.
    for qubit in members:
        plan.operations.append(Gate.trusted("h", (qubit,)))

    # Step 2: entangle each odd position with both neighbours.  The CNOTs are
    # emitted in two sweeps — first every "left" CNOT, then every "right" CNOT
    # — so that gates of the same sweep act on disjoint qubits and the whole
    # stage schedules in two time steps regardless of the path length (this is
    # what makes the preparation constant-depth).
    for i in range(1, len(path), 2):
        left, mid = path[i - 1], path[i]
        plan.operations.extend(_entangling_cnot(left, mid, lookup(left, mid)))
    for i in range(1, len(path), 2):
        if i + 1 < len(path):
            right, mid = path[i + 1], path[i]
            plan.operations.extend(_entangling_cnot(right, mid, lookup(right, mid)))

    # Step 3: measure the odd positions.
    cbit = cbit_base
    for qubit in measured:
        plan.operations.append(trusted_measure(qubit, cbit))
        plan.measurement_cbits[qubit] = cbit
        cbit += 1
    if measured:
        # the corrections below are classically conditioned on these outcomes;
        # a barrier makes that timing dependency visible to the depth metric.
        plan.operations.append(trusted_barrier(tuple(path)))

    # Step 4: parity-conditioned X corrections on the even positions.  The
    # member at path position 2j needs an X exactly when the XOR of the
    # outcomes at odd positions < 2j is 1.
    for j, qubit in enumerate(members):
        if j == 0:
            continue
        controlling = tuple(plan.measurement_cbits[path[i]] for i in range(1, 2 * j, 2))
        plan.operations.append(Gate.trusted("x", (qubit,), (), (controlling, 1)))

    # Step 5: absorb the trailing qubit of an even-length path (still in |0>)
    # with a single extension CNOT from the last member.
    if trailing is not None:
        plan.operations.extend(
            _entangling_cnot(members[-1], trailing, lookup(members[-1], trailing))
        )
        members.append(trailing)

    # Step 6: re-entangle measured qubits that must serve as entrances.  The
    # qubit is first restored to |0> (outcome-conditioned X) and then absorbed
    # into the GHZ state by a CNOT from an adjacent member.
    member_set = set(members)
    for qubit in reentangle:
        if qubit in member_set:
            continue
        if qubit not in plan.measurement_cbits:
            raise ValueError(f"cannot re-entangle {qubit}: not part of the path")
        position = path.index(qubit)
        neighbour = path[position - 1] if position > 0 else path[position + 1]
        plan.operations.append(
            Gate.trusted("x", (qubit,), (), ((plan.measurement_cbits[qubit],), 1))
        )
        plan.operations.extend(
            _entangling_cnot(neighbour, qubit, lookup(neighbour, qubit))
        )
        members.append(qubit)
        member_set.add(qubit)

    # Step 7: reset the measured helper qubits that did not re-join the GHZ
    # state.  Later shuttles re-use the same highway qubits and the scheme
    # assumes they start from |0>, so each collapsed qubit gets an
    # outcome-conditioned X (a "measure + reset" as on dynamic-circuit
    # hardware).  This is a free 1-qubit operation under the paper's metrics.
    member_set = set(members)
    for qubit in measured:
        if qubit in member_set:
            continue
        plan.operations.append(
            Gate.trusted("x", (qubit,), (), ((plan.measurement_cbits[qubit],), 1))
        )

    plan.members = members
    plan.measured = measured
    plan.next_cbit = cbit
    return plan


def tree_ghz(
    adjacency: dict[int, list[int]],
    root: int,
    *,
    via_lookup: ViaLookup | None = None,
    cbit_base: int = 0,
    required_members: Sequence[int] = (),
) -> GhzPrepPlan:
    """GHZ preparation over a *tree* of highway qubits (paper Fig. 7).

    Highway routes that pass through crossroads are trees rather than simple
    paths.  The tree is decomposed into vertical paths: a DFS from ``root``
    extends the current path through the first child and starts a new path at
    every additional child, anchored at the branching node.  Each path is then
    prepared with the linear measurement-based scheme; a path whose anchor is
    already a GHZ member merges its fresh entanglement into the existing state
    (paper Fig. 6's GHZ-merge), so the whole preparation still has depth
    independent of the number of qubits up to a small factor for nested
    branches.

    ``required_members`` lists qubits (highway entrances of gate components)
    that must end up in the GHZ state; if the alternation would measure them,
    they are re-entangled.

    Parameters mirror :func:`measurement_based_ghz`; the ``adjacency`` mapping
    must describe a connected tree containing ``root``.
    """
    if root not in adjacency:
        raise ValueError("root must be a node of the tree")
    required = set(required_members)

    # ---- decompose the tree into paths via iterative DFS ---------------- #
    paths: list[list[int]] = []
    visited = {root}
    # each stack entry: (node, path_index, position_in_path)
    stack: list[tuple[int, int]] = [(root, -1)]
    node_path: dict[int, tuple[int, int]] = {}

    def new_path(anchor: int) -> int:
        paths.append([anchor])
        return len(paths) - 1

    root_path = new_path(root)
    node_path[root] = (root_path, 0)
    order: list[int] = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        children = [n for n in adjacency.get(node, []) if n not in visited]
        first = True
        for child in children:
            visited.add(child)
            order.append(child)
            if first and node_path[node][1] == len(paths[node_path[node][0]]) - 1:
                # extend the node's own path only if the node is its current tail
                path_idx = node_path[node][0]
                paths[path_idx].append(child)
                node_path[child] = (path_idx, len(paths[path_idx]) - 1)
                first = False
            else:
                path_idx = new_path(node)
                paths[path_idx].append(child)
                node_path[child] = (path_idx, 1)
            stack.append(child)

    # A branching node ("anchor") must be a GHZ member before the paths that
    # hang off it are merged in; if its own path would measure it, it is
    # re-entangled there first.
    anchors = {path[0] for path in paths[1:]}

    # ---- prepare each path, merging into the growing GHZ ---------------- #
    plan = GhzPrepPlan(next_cbit=cbit_base)
    lookup: ViaLookup = via_lookup if via_lookup is not None else (lambda a, b: None)
    members: list[int] = []
    member_set: set[int] = set()
    cbit = cbit_base

    for index, path in enumerate(paths):
        anchored = index > 0  # anchor already belongs to the GHZ state
        if anchored and len(path) == 1:
            continue
        wants = [q for q in path if q in required or q in anchors]
        sub = measurement_based_ghz(
            path,
            via_lookup=lookup,
            cbit_base=cbit,
            reentangle=wants,
        )
        ops = sub.operations
        if anchored:
            # the anchor is already entangled; drop the Hadamard that would
            # have initialised it as a fresh |+> qubit.
            ops = _drop_first_h(ops, path[0])
        plan.operations.extend(ops)
        plan.measurement_cbits.update(sub.measurement_cbits)
        plan.measured.extend(sub.measured)
        cbit = sub.next_cbit
        for member in sub.members:
            if member not in member_set:
                member_set.add(member)
                members.append(member)

    plan.members = members
    plan.next_cbit = cbit
    return plan


def _drop_first_h(ops: list[Gate], qubit: int) -> list[Gate]:
    """Remove the first unconditioned Hadamard acting on ``qubit``."""
    result: list[Gate] = []
    dropped = False
    for op in ops:
        if (
            not dropped
            and op.name == "h"
            and op.qubits == (qubit,)
            and op.condition is None
        ):
            dropped = True
            continue
        result.append(op)
    return result


def chain_ghz(path: Sequence[int]) -> list[Gate]:
    """Linear-depth GHZ preparation by a CNOT chain (paper Fig. 1a baseline)."""
    path = list(path)
    if not path:
        raise ValueError("GHZ preparation needs a non-empty path")
    ops: list[Gate] = [g.h(path[0])]
    for a, b in zip(path, path[1:], strict=False):
        ops.append(g.cx(a, b))
    return ops


def extend_ghz(member: int, new_qubit: int, via: int | None = None) -> list[Gate]:
    """Extend an existing GHZ state onto ``new_qubit`` (assumed in ``|0>``).

    A single CNOT from any GHZ member onto a fresh ``|0>`` qubit produces a
    GHZ state with one more qubit (paper Fig. 6 with the measurement elided).
    """
    return _entangling_cnot(member, new_qubit, via)
