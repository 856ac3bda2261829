"""Gate definitions for the reproduction's circuit intermediate representation.

The MECH paper reasons about circuits at the level of 1-qubit gates, 2-qubit
controlled gates (CNOT, CZ, controlled-phase), SWAP/bridge macros, multi-target
controlled gates produced by the aggregation pass, and measurements (including
mid-circuit measurements used by the highway protocol).  This module defines a
small, explicit gate vocabulary that is shared by the circuit container, the
commutation analysis, the simulator and both compilers.

Every gate is an immutable :class:`Gate` value (a ``__slots__`` class:
measurements and barriers are its subclasses).  Gates know

* their *name* (a lower-case mnemonic such as ``"cx"``),
* the qubits they act on (``qubits``; for controlled gates the control comes
  first),
* optional real *parameters* (rotation angles),
* whether they are *diagonal* in the computational basis on each qubit, which
  is what the commutation rules need,
* a unitary matrix (for the gates the statevector simulator supports).

The public constructors validate and coerce their arguments.  The compilers
build hundreds of thousands of gates per sweep from fields that are already
validated, so :meth:`Gate.trusted`, :func:`trusted_measure` and
:func:`trusted_barrier` store them without re-checking.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, cast

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Gate",
    "Measurement",
    "Barrier",
    "GateError",
    "ONE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "CONTROLLED_GATES",
    "h",
    "x",
    "y",
    "z",
    "s",
    "sdg",
    "t",
    "tdg",
    "rx",
    "ry",
    "rz",
    "p",
    "cx",
    "cz",
    "cp",
    "crz",
    "swap",
    "measure",
    "barrier",
    "multi_target_cx",
    "multi_target_cp",
    "trusted_measure",
    "trusted_barrier",
]


class GateError(ValueError):
    """Raised when a gate is constructed with inconsistent arguments."""


#: 1-qubit gate names understood by the IR.
ONE_QUBIT_GATES = frozenset(
    {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "p", "id"}
)

#: 2-qubit gate names understood by the IR.
TWO_QUBIT_GATES = frozenset({"cx", "cz", "cp", "crz", "swap"})

#: 2-qubit *controlled* gate names (control qubit listed first).
CONTROLLED_GATES = frozenset({"cx", "cz", "cp", "crz"})

#: Gates that are diagonal in the computational basis on every qubit they touch.
_DIAGONAL_GATES = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "p", "cz", "cp", "crz", "id"})

#: Gate names whose action on the *control* qubit is diagonal.
_CONTROL_DIAGONAL = CONTROLLED_GATES | _DIAGONAL_GATES

#: Multi-target controlled gate names produced by the aggregation pass.
_MULTI_TARGET_GATES = frozenset({"mcx", "mcp"})


class Gate:
    """A quantum gate applied to one or more qubits.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic (``"h"``, ``"cx"``, ``"mcx"``, ...).
    qubits:
        Logical or physical qubit indices the gate acts on.  For controlled
        gates the control is ``qubits[0]``; for multi-target gates the control
        is ``qubits[0]`` and all remaining entries are targets.
    params:
        Optional tuple of real parameters (rotation angles, phases).
    condition:
        Optional classical condition ``(cbits, value)``: the gate is applied
        only when the XOR (parity) of the listed classical bits equals
        ``value``.  This models the dynamic-circuit Pauli corrections used by
        the measurement-based GHZ preparation and the highway protocol.

    A gate is an immutable value: assigning or deleting a field raises
    ``AttributeError``, and equality and hashing compare the fields of two
    instances of the same class (a ``Gate`` never equals a ``Measurement``).
    """

    __slots__ = ("condition", "name", "params", "qubits")

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]
    condition: tuple[tuple[int, ...], int] | None

    #: Kind flags, fixed per class.
    is_measurement = False
    is_barrier = False

    def __init__(
        self,
        name: str,
        qubits: Iterable[int],
        params: Iterable[float] = (),
        condition: tuple[Iterable[int], int] | None = None,
    ) -> None:
        if not name:
            raise GateError("gate name must be a non-empty string")
        qs = tuple(int(q) for q in qubits)
        ps = tuple(float(p) for p in params)
        normalised: tuple[tuple[int, ...], int] | None = None
        if condition is not None:
            cbits, value = condition
            normalised = (tuple(int(c) for c in cbits), int(value) & 1)
        if len(set(qs)) != len(qs):
            raise GateError(f"gate {name} has repeated qubits: {qs}")
        if name in ONE_QUBIT_GATES and len(qs) != 1:
            raise GateError(f"{name} acts on exactly one qubit, got {qs}")
        if name in TWO_QUBIT_GATES and len(qs) != 2:
            raise GateError(f"{name} acts on exactly two qubits, got {qs}")
        if name in _MULTI_TARGET_GATES and len(qs) < 2:
            raise GateError(f"{name} needs a control and at least one target")
        _set_name(self, name)
        _set_qubits(self, qs)
        _set_params(self, ps)
        _set_condition(self, normalised)

    @classmethod
    def trusted(
        cls,
        name: str,
        qubits: tuple[int, ...],
        params: tuple[float, ...] = (),
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> "Gate":
        """Build a plain :class:`Gate` without re-running validation.

        Only for hot paths that rebuild *already validated* gates on new qubit
        indices (router/scheduler emission, circuit remapping): ``qubits`` must
        be a tuple of distinct built-in ``int``s and ``params`` an
        already-coerced float tuple, exactly as found on an existing gate.
        Always builds a plain ``Gate`` — subclasses (measurements, barriers)
        carry extra invariants; :func:`trusted_measure` and
        :func:`trusted_barrier` are their hot paths.
        """
        gate = _new(Gate)
        _set_name(gate, name)
        _set_qubits(gate, qubits)
        _set_params(gate, params)
        _set_condition(gate, condition)
        return gate

    # ------------------------------------------------------------------ #
    # value semantics
    # ------------------------------------------------------------------ #
    def _fields(self) -> tuple[object, ...]:
        return (self.name, self.qubits, self.params, self.condition)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == cast(Gate, other)._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: gates are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: gates are immutable")

    def __reduce__(self) -> tuple[object, ...]:
        # pickle and copy rebuild through the constructor, which takes the
        # fields in this order: the default protocol would assign the slots
        return (self.__class__, self._fields())

    # ------------------------------------------------------------------ #
    # classification helpers
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_one_qubit(self) -> bool:
        return self.name in ONE_QUBIT_GATES

    @property
    def is_two_qubit(self) -> bool:
        return self.name in TWO_QUBIT_GATES

    @property
    def is_controlled(self) -> bool:
        """True for 2-qubit controlled gates (cx, cz, cp, crz)."""
        return self.name in CONTROLLED_GATES

    @property
    def is_multi_target(self) -> bool:
        """True for aggregated multi-target controlled gates (mcx, mcp)."""
        return self.name in _MULTI_TARGET_GATES

    @property
    def control(self) -> int:
        """The control qubit of a controlled or multi-target gate."""
        if not (self.is_controlled or self.is_multi_target):
            raise GateError(f"gate {self.name} has no control qubit")
        return self.qubits[0]

    @property
    def target(self) -> int:
        """The target qubit of a 2-qubit controlled gate."""
        if not self.is_controlled:
            raise GateError(f"gate {self.name} has no single target qubit")
        return self.qubits[1]

    @property
    def targets(self) -> tuple[int, ...]:
        """All target qubits of a controlled or multi-target gate."""
        if not (self.is_controlled or self.is_multi_target):
            raise GateError(f"gate {self.name} has no target qubits")
        return self.qubits[1:]

    @property
    def is_diagonal(self) -> bool:
        """True if the gate is diagonal in the computational basis."""
        return self.name in _DIAGONAL_GATES

    def diagonal_on(self, qubit: int) -> bool:
        """Whether the gate acts diagonally on ``qubit``.

        Controlled gates are diagonal on their control; CZ/CP/CRZ are diagonal
        on both qubits; everything else is diagonal only if the whole gate is.
        """
        if qubit not in self.qubits:
            return True
        if self.is_diagonal:
            return True
        if (self.is_controlled or self.is_multi_target) and qubit == self.control:
            return True
        return False

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #
    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate.

        Supported for all 1- and 2-qubit gates in the vocabulary.  Multi-target
        gates have no fixed-size matrix; the simulator decomposes them instead.
        """
        return _gate_matrix(self.name, self.params)

    def with_condition(self, cbits: Iterable[int], value: int = 1) -> "Gate":
        """Return a copy of the gate conditioned on the parity of ``cbits``.

        The gate's own fields are already validated/coerced, so only the
        condition is normalised here (the exact coercion the constructor
        would apply) before taking the trusted construction path.
        """
        return Gate.trusted(
            self.name,
            self.qubits,
            self.params,
            (tuple(int(c) for c in cbits), int(value) & 1),
        )

    def components(self) -> tuple["Gate", ...]:
        """Decompose a multi-target gate into its 2-qubit components.

        ``mcx(c; t1..tk)`` decomposes into ``cx(c, ti)`` for each target, all of
        which mutually commute (they share the control, on which each acts
        diagonally).  For plain gates, returns ``(self,)``.
        """
        if not self.is_multi_target:
            return (self,)
        base = "cx" if self.name == "mcx" else "cp"
        return tuple(
            Gate(base, (self.control, t), self.params) for t in self.targets
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = f", params={self.params}" if self.params else ""
        return f"{type(self).__name__}({self.name!r}, qubits={self.qubits}{params})"


class Measurement(Gate):
    """A computational-basis measurement of a single qubit.

    The classical bit index defaults to the measured qubit.  Mid-circuit
    measurements (used by the highway protocol to consume GHZ states) are
    ordinary :class:`Measurement` instances appearing before the end of the
    circuit.
    """

    __slots__ = ("cbit",)

    cbit: int

    is_measurement = True

    def __init__(
        self,
        name: str,
        qubits: Iterable[int],
        params: tuple[float, ...] = (),
        condition: tuple[tuple[int, ...], int] | None = None,
        cbit: int = -1,
    ) -> None:
        qs = tuple(int(q) for q in qubits)
        if name != "measure":
            raise GateError("Measurement must be named 'measure'")
        if len(qs) != 1:
            raise GateError("Measurement acts on exactly one qubit")
        _set_name(self, name)
        _set_qubits(self, qs)
        _set_params(self, params)
        _set_condition(self, condition)
        _set_cbit(self, qs[0] if cbit < 0 else cbit)

    def _fields(self) -> tuple[object, ...]:
        return (self.name, self.qubits, self.params, self.condition, self.cbit)

    def matrix(self) -> np.ndarray:
        raise GateError("measurements have no unitary matrix")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Measurement(qubits={self.qubits}, cbit={self.cbit})"


class Barrier(Gate):
    """A scheduling barrier across a set of qubits.

    Barriers carry no cost; they simply prevent the depth scheduler and the
    commutation analysis from moving operations across them.
    """

    __slots__ = ()

    is_barrier = True

    def __init__(
        self,
        name: str,
        qubits: Iterable[int],
        params: tuple[float, ...] = (),
        condition: tuple[tuple[int, ...], int] | None = None,
    ) -> None:
        qs = tuple(int(q) for q in qubits)
        if name != "barrier":
            raise GateError("Barrier must be named 'barrier'")
        if not qs:
            raise GateError("Barrier must span at least one qubit")
        _set_name(self, name)
        _set_qubits(self, qs)
        _set_params(self, params)
        _set_condition(self, condition)

    def matrix(self) -> np.ndarray:
        raise GateError("barriers have no unitary matrix")


# Instances are built by storing straight into the slots: the descriptors'
# setters bypass the immutability guard in ``__setattr__``.
_new = object.__new__
_set_name = Gate.__dict__["name"].__set__
_set_qubits = Gate.__dict__["qubits"].__set__
_set_params = Gate.__dict__["params"].__set__
_set_condition = Gate.__dict__["condition"].__set__
_set_cbit = Measurement.__dict__["cbit"].__set__


def trusted_measure(qubit: int, cbit: int) -> Measurement:
    """``measure(qubit, cbit)`` without validation, for protocol builders
    whose ``qubit`` and ``cbit >= 0`` are already built-in ``int``s."""
    gate = _new(Measurement)
    _set_name(gate, "measure")
    _set_qubits(gate, (qubit,))
    _set_params(gate, ())
    _set_condition(gate, None)
    _set_cbit(gate, cbit)
    return gate


def trusted_barrier(qubits: tuple[int, ...]) -> Barrier:
    """``barrier(qubits)`` without validation: a non-empty tuple of
    built-in ``int``s."""
    gate = _new(Barrier)
    _set_name(gate, "barrier")
    _set_qubits(gate, qubits)
    _set_params(gate, ())
    _set_condition(gate, None)
    return gate


# ---------------------------------------------------------------------- #
# constructors
# ---------------------------------------------------------------------- #
def h(q: int) -> Gate:
    """Hadamard gate."""
    return Gate("h", (q,))


def x(q: int) -> Gate:
    """Pauli-X gate."""
    return Gate("x", (q,))


def y(q: int) -> Gate:
    """Pauli-Y gate."""
    return Gate("y", (q,))


def z(q: int) -> Gate:
    """Pauli-Z gate."""
    return Gate("z", (q,))


def s(q: int) -> Gate:
    """Phase gate S = diag(1, i)."""
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    """Inverse phase gate."""
    return Gate("sdg", (q,))


def t(q: int) -> Gate:
    """T gate = diag(1, e^{i pi/4})."""
    return Gate("t", (q,))


def tdg(q: int) -> Gate:
    """Inverse T gate."""
    return Gate("tdg", (q,))


def rx(theta: float, q: int) -> Gate:
    """Rotation about X by ``theta``."""
    return Gate("rx", (q,), (theta,))


def ry(theta: float, q: int) -> Gate:
    """Rotation about Y by ``theta``."""
    return Gate("ry", (q,), (theta,))


def rz(theta: float, q: int) -> Gate:
    """Rotation about Z by ``theta``."""
    return Gate("rz", (q,), (theta,))


def p(theta: float, q: int) -> Gate:
    """Phase gate diag(1, e^{i theta})."""
    return Gate("p", (q,), (theta,))


def cx(control: int, target: int) -> Gate:
    """CNOT gate."""
    return Gate("cx", (control, target))


def cz(control: int, target: int) -> Gate:
    """Controlled-Z gate."""
    return Gate("cz", (control, target))


def cp(theta: float, control: int, target: int) -> Gate:
    """Controlled-phase gate."""
    return Gate("cp", (control, target), (theta,))


def crz(theta: float, control: int, target: int) -> Gate:
    """Controlled-RZ gate."""
    return Gate("crz", (control, target), (theta,))


def swap(a: int, b: int) -> Gate:
    """SWAP gate (3 CNOTs on hardware)."""
    return Gate("swap", (a, b))


def measure(q: int, cbit: int | None = None) -> Measurement:
    """Computational-basis measurement of qubit ``q`` into classical bit ``cbit``."""
    return Measurement("measure", (q,), cbit=q if cbit is None else cbit)


def barrier(qubits: Iterable[int]) -> Barrier:
    """A barrier across ``qubits``."""
    return Barrier("barrier", tuple(qubits))


def multi_target_cx(control: int, targets: Sequence[int]) -> Gate:
    """Aggregated multi-target CNOT sharing a single control qubit."""
    return Gate("mcx", (control, *targets))


def multi_target_cp(theta: float, control: int, targets: Sequence[int]) -> Gate:
    """Aggregated multi-target controlled-phase sharing a single control qubit."""
    return Gate("mcp", (control, *targets), (theta,))


# ---------------------------------------------------------------------- #
# matrices
# ---------------------------------------------------------------------- #
# numpy is imported on the first matrix() call only: the compilers never ask
# for matrices, so compiling stays numpy-free.
_SQRT2_INV = 1.0 / math.sqrt(2.0)


@functools.cache
def _fixed_matrices() -> dict[str, np.ndarray]:
    import numpy as np

    return {
        "id": np.eye(2, dtype=complex),
        "h": np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
        "s": np.array([[1, 0], [0, 1j]], dtype=complex),
        "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
        "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
        "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
        "cx": np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        ),
        "cz": np.diag([1, 1, 1, -1]).astype(complex),
        "swap": np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        ),
    }


def _gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    """Return the unitary matrix of a named gate with the given parameters."""
    import numpy as np

    fixed = _fixed_matrices()
    if name in fixed:
        return fixed[name].copy()
    if name == "rx":
        (theta,) = params
        c, sn = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * sn], [-1j * sn, c]], dtype=complex)
    if name == "ry":
        (theta,) = params
        c, sn = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -sn], [sn, c]], dtype=complex)
    if name == "rz":
        (theta,) = params
        return np.array(
            [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
        )
    if name == "p":
        (theta,) = params
        return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)
    if name == "cp":
        (theta,) = params
        return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
    if name == "crz":
        (theta,) = params
        return np.diag(
            [1, 1, np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]
        ).astype(complex)
    raise GateError(f"gate {name!r} has no matrix representation")
