"""Circuit intermediate representation, commutation analysis and simulation.

The statevector simulator needs numpy, which the compile path does without,
so its names load on first access (PEP 562).
"""

from .circuit import Circuit, CircuitError
from .commutation import commutes, commutes_on_qubit, qubit_action
from .dag import DagNode, DependencyDag
from .gates import (
    Barrier,
    Gate,
    GateError,
    Measurement,
    barrier,
    cp,
    crz,
    cx,
    cz,
    h,
    measure,
    multi_target_cp,
    multi_target_cx,
    p,
    rx,
    ry,
    rz,
    s,
    sdg,
    swap,
    t,
    tdg,
    x,
    y,
    z,
)
from .library import (
    bridge_cnot,
    cluster_state_circuit,
    expand_macros,
    ghz_chain_circuit,
    swap_to_cnots,
)

__all__ = [
    "Circuit",
    "CircuitError",
    "Gate",
    "GateError",
    "Measurement",
    "Barrier",
    "DagNode",
    "DependencyDag",
    "Simulator",
    "SimulationResult",
    "circuit_unitary",
    "statevectors_equal",
    "commutes",
    "commutes_on_qubit",
    "qubit_action",
    "swap_to_cnots",
    "bridge_cnot",
    "ghz_chain_circuit",
    "cluster_state_circuit",
    "expand_macros",
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
]

_SIMULATOR_NAMES = frozenset(
    {"Simulator", "SimulationResult", "circuit_unitary", "statevectors_equal"}
)


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
