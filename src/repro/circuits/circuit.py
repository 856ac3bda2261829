"""Quantum circuit container used throughout the reproduction.

The :class:`Circuit` class is a deliberately small, explicit replacement for
the slice of Qiskit's ``QuantumCircuit`` that the MECH paper needs: an ordered
list of gates/measurements over an integer-indexed register, with

* builder methods for every gate in :mod:`repro.circuits.gates`,
* the paper's *weighted depth* metric (1-qubit gates are free, 2-qubit gates
  cost one time step, measurements cost ``meas_latency`` steps — Section 7.1),
* operation counting grouped by name,
* composition, remapping and inversion utilities used by the program
  generators and the compilers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from . import gates as g
from .gates import (
    Barrier,
    Gate,
    GateError,
    Measurement,
    trusted_barrier,
    trusted_measure,
)

__all__ = ["Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


class Circuit:
    """An ordered sequence of quantum operations over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Size of the qubit register.  Qubits are indexed ``0 .. num_qubits-1``.
    name:
        Optional human-readable name (used by benchmark programs).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._ops: list[Gate] = []

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> Gate:
        return self._ops[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._ops == other._ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_ops={len(self._ops)})"
        )

    @property
    def operations(self) -> list[Gate]:
        """The list of operations, in program order (do not mutate)."""
        return self._ops

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def append(self, op: Gate) -> "Circuit":
        """Append a gate, measurement or barrier, validating qubit indices."""
        for q in op.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit {q} out of range for circuit with {self.num_qubits} qubits"
                )
        self._ops.append(op)
        return self

    def extend(self, ops: Iterable[Gate]) -> "Circuit":
        """Append every operation in ``ops``."""
        for op in ops:
            self.append(op)
        return self

    # convenience builders ------------------------------------------------
    def h(self, q: int) -> "Circuit":
        return self.append(g.h(q))

    def x(self, q: int) -> "Circuit":
        return self.append(g.x(q))

    def y(self, q: int) -> "Circuit":
        return self.append(g.y(q))

    def z(self, q: int) -> "Circuit":
        return self.append(g.z(q))

    def s(self, q: int) -> "Circuit":
        return self.append(g.s(q))

    def sdg(self, q: int) -> "Circuit":
        return self.append(g.sdg(q))

    def t(self, q: int) -> "Circuit":
        return self.append(g.t(q))

    def tdg(self, q: int) -> "Circuit":
        return self.append(g.tdg(q))

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.append(g.rx(theta, q))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.append(g.ry(theta, q))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.append(g.rz(theta, q))

    def p(self, theta: float, q: int) -> "Circuit":
        return self.append(g.p(theta, q))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(g.cx(control, target))

    def cz(self, control: int, target: int) -> "Circuit":
        return self.append(g.cz(control, target))

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.append(g.cp(theta, control, target))

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.append(g.crz(theta, control, target))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(g.swap(a, b))

    def measure(self, q: int, cbit: int | None = None) -> "Circuit":
        return self.append(g.measure(q, cbit))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self, qubits: Iterable[int] | None = None) -> "Circuit":
        qs = tuple(qubits) if qubits is not None else tuple(range(self.num_qubits))
        return self.append(g.barrier(qs))

    def multi_target_cx(self, control: int, targets: Sequence[int]) -> "Circuit":
        return self.append(g.multi_target_cx(control, targets))

    def multi_target_cp(self, theta: float, control: int, targets: Sequence[int]) -> "Circuit":
        return self.append(g.multi_target_cp(theta, control, targets))

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def count_ops(self) -> dict[str, int]:
        """Return a mapping from gate name to occurrence count."""
        return dict(Counter(op.name for op in self._ops))

    def num_ops(self, *names: str) -> int:
        """Number of operations whose name is in ``names`` (all ops if empty)."""
        if not names:
            return len(self._ops)
        wanted = set(names)
        return sum(1 for op in self._ops if op.name in wanted)

    def num_two_qubit_ops(self) -> int:
        """Number of 2-qubit gates (controlled gates and SWAPs)."""
        return sum(1 for op in self._ops if op.is_two_qubit)

    def num_measurements(self) -> int:
        """Number of measurement operations."""
        return sum(1 for op in self._ops if op.is_measurement)

    def two_qubit_gates(self) -> list[Gate]:
        """All 2-qubit gates, in program order."""
        return [op for op in self._ops if op.is_two_qubit]

    def depth(
        self,
        *,
        meas_latency: float = 2.0,
        one_qubit_weight: float = 0.0,
        two_qubit_weight: float = 1.0,
    ) -> float:
        """Weighted circuit depth as defined in Section 7.1 of the paper.

        Only 2-qubit gates and measurements contribute by default; measurements
        cost ``meas_latency`` time steps (default 2, following the IBM
        calibration the paper cites).  Barriers synchronise all spanned qubits
        but add no time.
        """
        clock = [0.0] * self.num_qubits
        for op in self._ops:
            if op.is_barrier:
                sync = max((clock[q] for q in op.qubits), default=0.0)
                for q in op.qubits:
                    clock[q] = sync
                continue
            if op.is_measurement:
                weight = float(meas_latency)
            elif op.num_qubits >= 2:
                weight = float(two_qubit_weight)
            else:
                weight = float(one_qubit_weight)
            start = max(clock[q] for q in op.qubits)
            finish = start + weight
            for q in op.qubits:
                clock[q] = finish
        return max(clock, default=0.0)

    def qubits_used(self) -> list[int]:
        """Sorted list of qubit indices that appear in at least one operation."""
        used = set()
        for op in self._ops:
            used.update(op.qubits)
        return sorted(used)

    # ------------------------------------------------------------------ #
    # transformation
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so this is safe)."""
        out = Circuit(self.num_qubits, name or self.name)
        out._ops = list(self._ops)
        return out

    def compose(self, other: "Circuit") -> "Circuit":
        """Append all operations of ``other`` to a copy of this circuit."""
        if other.num_qubits > self.num_qubits:
            raise CircuitError(
                "cannot compose a larger circuit onto a smaller one "
                f"({other.num_qubits} > {self.num_qubits})"
            )
        out = self.copy()
        out.extend(other.operations)
        return out

    def remap(self, mapping: Mapping[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a copy with every qubit index ``q`` replaced by ``mapping[q]``.

        ``num_qubits`` defaults to the current register size; supply a larger
        value when embedding a logical circuit into a physical device.
        """
        size = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(size, self.name)
        for op in self._ops:
            new_qubits = tuple(mapping[q] for q in op.qubits)
            out.append(_rebuild(op, new_qubits))
        return out

    def inverse(self) -> "Circuit":
        """Return the inverse circuit (measurements and barriers not allowed)."""
        out = Circuit(self.num_qubits, f"{self.name}_dg")
        for op in reversed(self._ops):
            if op.is_measurement or op.is_barrier:
                raise CircuitError("cannot invert a circuit containing measurements")
            out.append(_invert(op))
        return out

    def without_measurements(self) -> "Circuit":
        """Return a copy with all measurements removed."""
        out = Circuit(self.num_qubits, self.name)
        out._ops = [op for op in self._ops if not op.is_measurement]
        return out

    def filtered(self, predicate: Callable[[Gate], bool]) -> "Circuit":
        """Return a copy containing only operations for which ``predicate`` holds."""
        out = Circuit(self.num_qubits, self.name)
        out._ops = [op for op in self._ops if predicate(op)]
        return out


_INVERSES = {
    "h": "h",
    "x": "x",
    "y": "y",
    "z": "z",
    "cx": "cx",
    "cz": "cz",
    "swap": "swap",
    "id": "id",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
}

_PARAM_NEGATE = {"rx", "ry", "rz", "p", "cp", "crz", "mcp"}


def _invert(op: Gate) -> Gate:
    """Return the inverse of a unitary gate."""
    if op.name in _INVERSES:
        return Gate(_INVERSES[op.name], op.qubits, op.params)
    if op.name in _PARAM_NEGATE:
        return Gate(op.name, op.qubits, tuple(-p for p in op.params))
    if op.name == "mcx":
        return Gate("mcx", op.qubits, op.params)
    raise GateError(f"gate {op.name!r} has no known inverse")


def _rebuild(op: Gate, new_qubits: Sequence[int]) -> Gate:
    """Rebuild ``op`` on a different set of qubits, preserving its type."""
    if isinstance(op, Measurement):
        return Measurement("measure", tuple(new_qubits), cbit=op.cbit)
    if isinstance(op, Barrier):
        return Barrier("barrier", tuple(new_qubits))
    return Gate(op.name, tuple(new_qubits), op.params, op.condition)


def _rebuild_trusted(op: Gate, new_qubits: tuple[int, ...]) -> Gate:
    """Hot-path :func:`_rebuild` for injective remappings of validated gates.

    ``new_qubits`` must be a tuple of distinct built-in ``int``s (routers remap
    through injective logical-to-physical layouts, so distinctness holds by
    construction).  Like :func:`_rebuild`, a measurement keeps only its
    classical bit.
    """
    if type(op) is Gate:
        return Gate.trusted(op.name, new_qubits, op.params, op.condition)
    if type(op) is Measurement:
        return trusted_measure(new_qubits[0], op.cbit)
    if type(op) is Barrier:
        return trusted_barrier(new_qubits)
    raise TypeError(f"cannot rebuild a {type(op).__name__}")
