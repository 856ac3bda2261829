"""The highway communication protocol (paper Fig. 3).

Given a GHZ state over a set of highway qubits, a multi-target controlled gate
whose control (data) qubit sits next to one GHZ member and whose target (data)
qubits sit next to other GHZ members is executed in three stages:

1. **cat-entangler** — a CNOT from the control data qubit onto its entrance
   GHZ member, a Z-basis measurement of that member, and outcome-conditioned X
   corrections on the remaining members.  Afterwards the remaining members all
   carry the control's computational-basis value.
2. **fan-out** — one CNOT from each used member onto its adjacent target data
   qubit.  These CNOTs act on disjoint qubit pairs, so they execute
   concurrently regardless of how far apart the targets are.
3. **cat-disentangler** — an X-basis measurement (H + measure) of every
   remaining member and a parity-conditioned Z correction on the control data
   qubit, which destroys the entanglement and frees the highway qubits for the
   next shuttle.

For a multi-target C-phase gate (aggregated ``mcp``) the fan-out CNOT is
replaced by a controlled-phase from the member onto the target, with the same
structure otherwise.  Target-shared groups (CNOTs sharing a *target*) are
handled by the compiler by conjugating the shared qubit with Hadamards, which
turns them into a control-shared group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..circuits import gates as g
from ..circuits.gates import Gate, trusted_barrier, trusted_measure

__all__ = ["ProtocolPlan", "cat_entangler", "fan_out", "cat_disentangler", "highway_multi_target"]


@dataclass
class ProtocolPlan:
    """Operations and classical-bit bookkeeping of one protocol execution."""

    operations: list[Gate] = field(default_factory=list)
    entangle_cbit: int = -1
    disentangle_cbits: list[int] = field(default_factory=list)
    next_cbit: int = 0


def cat_entangler(
    control_data: int,
    control_entrance: int,
    other_members: Sequence[int],
    *,
    cbit: int,
) -> list[Gate]:
    """Stage 1: share the control's value with every remaining GHZ member.

    Qubits and ``cbit`` are the scheduler's validated ints, so everything
    after the entangling CNOT takes the trusted construction paths.
    """
    ops: list[Gate] = [g.cx(control_data, control_entrance)]
    ops.append(trusted_measure(control_entrance, cbit))
    condition = ((cbit,), 1)
    if other_members:
        # the X corrections are conditioned on the measurement outcome; the
        # barrier exposes that classical dependency to the depth metric.
        ops.append(trusted_barrier((control_entrance, *other_members)))
    for member in other_members:
        ops.append(Gate.trusted("x", (member,), (), condition))
    # measure + reset: the consumed entrance must be back in |0> before the
    # next shuttle re-uses it for a fresh GHZ preparation
    ops.append(Gate.trusted("x", (control_entrance,), (), condition))
    return ops


def fan_out(
    member_target_pairs: Sequence[tuple[int, int]],
    *,
    gate_name: str = "cx",
    params: tuple[float, ...] = (),
) -> list[Gate]:
    """Stage 2: apply the controlled operation from each member to its target.

    Members are highway qubits and targets are data qubits (always distinct,
    already validated ints), so the gates take the trusted construction path
    — fan-outs are emitted once per spoke of every highway gate.
    """
    if gate_name not in ("cx", "cz", "cp", "crz"):
        raise ValueError(f"unsupported fan-out gate {gate_name!r}")
    gate_params = (float(params[0]),) if gate_name in ("cp", "crz") else ()
    return [
        Gate.trusted(gate_name, (member, target), gate_params)
        for member, target in member_target_pairs
    ]


def cat_disentangler(
    control_data: int,
    members: Sequence[int],
    *,
    cbit_base: int,
) -> tuple[list[Gate], list[int]]:
    """Stage 3: X-basis measurements of the members, parity Z on the control.

    Qubits and ``cbit_base`` are the scheduler's validated ints, so every
    operation takes the trusted construction paths.
    """
    ops: list[Gate] = []
    cbits: list[int] = []
    cbit = cbit_base
    for member in members:
        ops.append(Gate.trusted("h", (member,)))
        ops.append(trusted_measure(member, cbit))
        # measure + reset so the next shuttle finds this highway qubit in |0>
        ops.append(Gate.trusted("x", (member,), (), ((cbit,), 1)))
        cbits.append(cbit)
        cbit += 1
    if cbits:
        ops.append(Gate.trusted("z", (control_data,), (), (tuple(cbits), 1)))
    return ops, cbits


def highway_multi_target(
    control_data: int,
    control_entrance: int,
    member_target_pairs: Sequence[tuple[int, int]],
    *,
    all_members: Sequence[int],
    cbit_base: int,
    gate_name: str = "cx",
    params: tuple[float, ...] = (),
) -> ProtocolPlan:
    """Full protocol for one highway gate on an already-prepared GHZ state.

    Parameters
    ----------
    control_data:
        Physical data qubit holding the control value (adjacent to
        ``control_entrance``).
    control_entrance:
        GHZ member adjacent to the control data qubit; it is consumed by the
        cat-entangler measurement.
    member_target_pairs:
        ``(member, target_data)`` pairs for the fan-out stage; each member must
        be a GHZ member different from ``control_entrance`` and adjacent to its
        target data qubit.
    all_members:
        Every GHZ member of this gate's highway path (used by the
        disentangler); must contain ``control_entrance`` and all fan-out
        members.
    cbit_base:
        First classical bit index available for this protocol instance.
    gate_name, params:
        The 2-qubit controlled operation applied at each target.
    """
    members = [m for m in all_members if m != control_entrance]
    missing = {m for m, _ in member_target_pairs} - set(members)
    if missing:
        raise ValueError(f"fan-out members {sorted(missing)} are not GHZ members")

    plan = ProtocolPlan(next_cbit=cbit_base)
    plan.entangle_cbit = cbit_base
    plan.operations.extend(
        cat_entangler(control_data, control_entrance, members, cbit=cbit_base)
    )
    plan.operations.extend(
        fan_out(member_target_pairs, gate_name=gate_name, params=params)
    )
    disentangle_ops, cbits = cat_disentangler(
        control_data, members, cbit_base=cbit_base + 1
    )
    plan.operations.extend(disentangle_ops)
    plan.disentangle_cbits = cbits
    plan.next_cbit = cbit_base + 1 + len(cbits)
    return plan
