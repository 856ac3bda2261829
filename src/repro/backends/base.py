"""The :class:`CompilerBackend` protocol.

A *backend* is one compiler the experiment layers can compare against any
other: the MECH highway compiler, the SABRE-routed SWAP baseline, and any
variant or ablation registered alongside them.  The protocol is deliberately
tiny — a name, a ``configure`` step binding the backend to a device, and a
``compile`` step producing the shared :class:`~repro.compiler.result.CompilationResult`
container — so a new router can join every sweep (``repro run --compilers``)
by implementing two methods and one :func:`~repro.backends.registry.register_backend`
call.

The two-phase shape (configure, then compile one or more circuits) mirrors
how the experiment runner uses compilers: a job's device/noise/seed/knobs are
fixed once, then every benchmark circuit of the cell is compiled against that
configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # annotations only: the registry must not load a compiler
    from ..circuits.circuit import Circuit
    from ..compiler.result import CompilationResult
    from ..hardware.array import ChipletArray
    from ..hardware.noise import NoiseModel

__all__ = ["CompilerBackend"]


@runtime_checkable
class CompilerBackend(Protocol):
    """One pluggable compiler in an N-way comparison.

    Implementations must be deterministic: configuring two instances with the
    same array, noise model, seed and knobs and compiling the same circuit
    must produce identical metrics — the engine's result cache and the
    backend-contract test suite both rely on it.
    """

    #: Registry key (``"mech"``, ``"baseline"``, ...); lowercase, stable.
    name: str
    #: One-line human description, shown by ``repro compilers``.
    description: str

    def configure(
        self,
        array: ChipletArray,
        *,
        noise: NoiseModel,
        seed: int = 0,
        **knobs: object,
    ) -> "CompilerBackend":
        """Bind the backend to a device and experiment knobs; returns self.

        ``knobs`` carries the union of every backend's tunables (e.g.
        ``highway_density``, ``min_components``, ``baseline_trials``); each
        backend consumes the ones it understands and must ignore the rest, so
        one job configuration can drive heterogeneous compiler sets.
        """
        ...

    def compile(self, circuit: Circuit) -> CompilationResult:
        """Compile one logical circuit; requires a prior :meth:`configure`."""
        ...
