"""repro: reproduction of "MECH: Multi-Entry Communication Highway for
Superconducting Quantum Chiplets" (ASPLOS 2024).

The package provides, entirely from scratch (no Qiskit dependency):

* a quantum-circuit IR with commutation analysis and a statevector simulator
  (:mod:`repro.circuits`),
* chiplet-array device models with square / hexagon / heavy-square /
  heavy-hexagon coupling structures (:mod:`repro.hardware`),
* the multi-entry communication highway: layout generation, measurement-based
  GHZ preparation, the communication protocol and occupancy management
  (:mod:`repro.highway`),
* the MECH compiler (aggregation, local routing, highway routing, dynamic
  scheduling) and a SABRE-style baseline (:mod:`repro.compiler`,
  :mod:`repro.baseline`),
* the paper's benchmark programs, metrics and the harness regenerating every
  table and figure of its evaluation (:mod:`repro.programs`,
  :mod:`repro.metrics`, :mod:`repro.experiments`).

Quick start::

    from repro import ChipletArray, MechCompiler, BaselineCompiler
    from repro.programs import qft_circuit

    array = ChipletArray("square", 6, 2, 2)
    mech = MechCompiler(array)
    circuit = qft_circuit(mech.num_data_qubits)
    ours = mech.compile(circuit)
    base = BaselineCompiler(array.topology).compile(circuit)
    print(ours.depth, base.depth)
"""

__version__ = "1.0.0"

from .backends import (
    CompilerBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .baseline import BaselineCompiler, SabreRouter
from .circuits import Circuit, DependencyDag, Gate, Measurement
from .compiler import CompilationResult, MechCompiler
from .hardware import ChipletArray, ChipletStructure, NoiseModel, Topology
from .highway import HighwayLayout, HighwayManager
from .metrics import CircuitMetrics, OperationCounts, circuit_metrics, improvement

__all__ = [
    "__version__",
    # circuits
    "Circuit",
    "Gate",
    "Measurement",
    "DependencyDag",
    "Simulator",
    "SimulationResult",
    # hardware
    "ChipletArray",
    "ChipletStructure",
    "Topology",
    "NoiseModel",
    # highway
    "HighwayLayout",
    "HighwayManager",
    # compilers
    "MechCompiler",
    "BaselineCompiler",
    "SabreRouter",
    "CompilationResult",
    # pluggable backends
    "CompilerBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    # metrics
    "CircuitMetrics",
    "OperationCounts",
    "circuit_metrics",
    "improvement",
]


def __getattr__(name: str):
    # the simulator needs numpy; load it on first access (PEP 562)
    if name in ("Simulator", "SimulationResult"):
        from . import circuits

        return getattr(circuits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
