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

Every public name below loads its submodule on first access (PEP 562), so
``import repro`` is cheap and a process that never compiles never imports a
compiler.
"""

__version__ = "1.0.0"

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

_EXPORTS = {
    # circuits (the simulator needs numpy)
    "Circuit": ".circuits",
    "Gate": ".circuits",
    "Measurement": ".circuits",
    "DependencyDag": ".circuits",
    "Simulator": ".circuits",
    "SimulationResult": ".circuits",
    # hardware
    "ChipletArray": ".hardware",
    "ChipletStructure": ".hardware",
    "Topology": ".hardware",
    "NoiseModel": ".hardware",
    # highway
    "HighwayLayout": ".highway",
    "HighwayManager": ".highway",
    # compilers
    "MechCompiler": ".compiler",
    "BaselineCompiler": ".baseline",
    "SabreRouter": ".baseline",
    "CompilationResult": ".compiler",
    # pluggable backends
    "CompilerBackend": ".backends",
    "available_backends": ".backends",
    "get_backend": ".backends",
    "register_backend": ".backends",
    # metrics
    "CircuitMetrics": ".metrics",
    "OperationCounts": ".metrics",
    "circuit_metrics": ".metrics",
    "improvement": ".metrics",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .backends import CompilerBackend, available_backends, get_backend, register_backend
    from .baseline import BaselineCompiler, SabreRouter
    from .circuits import Circuit, DependencyDag, Gate, Measurement
    from .circuits.simulator import SimulationResult, Simulator
    from .compiler import CompilationResult, MechCompiler
    from .hardware import ChipletArray, ChipletStructure, NoiseModel, Topology
    from .highway import HighwayLayout, HighwayManager
    from .metrics import CircuitMetrics, OperationCounts, circuit_metrics, improvement
