"""Built-in compiler backends: MECH, the SABRE baseline, and their variants.

``mech`` and ``baseline`` adapt the pre-existing :class:`MechCompiler` and
:class:`BaselineCompiler` to the :class:`CompilerBackend` protocol with
*identical* construction parameters to the historic two-compiler runner, so a
default ``("baseline", "mech")`` sweep reproduces the pre-registry metrics
bit for bit.  The variants price the paper's individual mechanisms and
strengthen the baseline side of every comparison:

* ``mech-nofuse`` — MECH with the CX-RZ-CX fusion rewrite disabled;
* ``mech-noagg`` — MECH with the commuting-gate aggregation pass disabled
  (every gate routed individually, never as a multi-target highway gate);
* ``mech-singleentry`` — MECH with one entrance candidate per gate component
  (the *multi-entry* scheduling freedom of the highway ablated);
* ``sabre-x`` — extended-effort SABRE: more routing trials, deeper lookahead;
* ``sabre-noise`` — SABRE over a noise-adaptive initial layout packed into
  the lowest-noise on-chip region instead of a fixed corner.

The registry lists these backends by name and description without importing
this module (:data:`~repro.backends.registry.BUILTIN_BACKENDS`); the first
:func:`~repro.backends.registry.get_backend` of one loads it, and with it the
compilers.
"""

from __future__ import annotations

from typing import Any

from ..baseline import BaselineCompiler
from ..circuits.circuit import Circuit
from ..compiler import MechCompiler
from ..compiler.result import CompilationResult
from ..hardware.array import ChipletArray
from ..hardware.noise import DEFAULT_NOISE, NoiseModel

__all__ = [
    "BaselineBackend",
    "MechBackend",
    "MechNoAggBackend",
    "MechNoFuseBackend",
    "MechSingleEntryBackend",
    "SabreNoiseBackend",
    "SabreXBackend",
]

class MechBackend:
    """Highway-mediated MECH compiler (the paper's contribution)."""

    name = "mech"
    description = "MECH highway compiler: aggregation + highway-mediated communication"
    #: Subclass hooks: the paper's circuit-rewriting pass on/off, the
    #: aggregation pass on/off, and the entrance-candidate budget per gate
    #: component (1 = single-entry ablation).
    rewrite_zz = True
    aggregate_gates = True
    entrance_candidates = 4

    def __init__(self) -> None:
        self.compiler: MechCompiler | None = None

    def configure(
        self,
        array: ChipletArray,
        *,
        noise: NoiseModel = DEFAULT_NOISE,
        seed: int = 0,
        highway_density: int = 1,
        min_components: int = 2,
        layout: object = None,
        router: object = None,
        **knobs: object,
    ) -> "MechBackend":
        self.compiler = MechCompiler(
            array,
            highway_density=highway_density,
            min_components=min_components,
            noise=noise,
            # a pre-built highway layout (matching highway_density) and a
            # pre-warmed router may be shared by the caller; both are pure
            # functions of the device, so sharing never changes the output
            layout=layout,  # type: ignore[arg-type]
            router=router,  # type: ignore[arg-type]
            rewrite_zz=self.rewrite_zz,
            aggregate_gates=self.aggregate_gates,
            entrance_candidates=self.entrance_candidates,
        )
        return self

    def compile(self, circuit: Circuit) -> CompilationResult:
        if self.compiler is None:
            raise RuntimeError(f"backend {self.name!r} must be configured before compile()")
        result = self.compiler.compile(circuit)
        result.compiler = self.name
        return result


class MechNoFuseBackend(MechBackend):
    """MECH ablation: highway communication without the ZZ-fusion rewrite."""

    name = "mech-nofuse"
    description = "MECH ablation: highway routing with the CX-RZ-CX fusion rewrite disabled"
    rewrite_zz = False


class MechNoAggBackend(MechBackend):
    """MECH ablation: the commuting-gate aggregation pass disabled.

    Every gate stays a :class:`SingleUnit` on the ordinary routed path — no
    multi-target highway gates are ever formed — so the difference to
    ``mech`` is exactly the measured price of the paper's aggregation
    mechanism (§6.2).
    """

    name = "mech-noagg"
    description = "MECH ablation: commuting-gate aggregation disabled (no highway gates)"
    aggregate_gates = False


class MechSingleEntryBackend(MechBackend):
    """MECH ablation: one entrance candidate per gate component.

    The scheduler normally scores several nearby highway entrances per data
    qubit and picks the earliest-available one — the *multi-entry* freedom
    the paper's highway is named for.  Pinning every component to its single
    nearest usable entrance prices that freedom.
    """

    name = "mech-singleentry"
    description = "MECH ablation: one highway-entrance candidate per component (multi-entry off)"
    entrance_candidates = 1


class BaselineBackend:
    """SABRE-routed SWAP baseline (the paper's "Qiskit level 3" stand-in).

    Note the compiler's trial seed is *not* derived from the job seed — it
    never was in the two-compiler runner, and keeping it fixed preserves
    cache-key-for-cache-key identical metrics for the default comparison.
    The SABRE variants subclass it and override :meth:`compiler_options`.
    """

    name = "baseline"
    description = "SABRE-routed SWAP baseline (layout selection + SWAP-chain routing)"

    def __init__(self) -> None:
        self.compiler: BaselineCompiler | None = None

    def compiler_options(self, *, seed: int, baseline_trials: int) -> dict[str, Any]:
        """Subclass hook: the :class:`BaselineCompiler` keyword arguments
        besides the topology and the noise model."""
        return {"trials": baseline_trials}

    def configure(
        self,
        array: ChipletArray,
        *,
        noise: NoiseModel = DEFAULT_NOISE,
        seed: int = 0,
        baseline_trials: int = 1,
        **knobs: object,
    ) -> "BaselineBackend":
        self.compiler = BaselineCompiler(
            array.topology,
            noise=noise,
            **self.compiler_options(seed=seed, baseline_trials=baseline_trials),
        )
        return self

    def compile(self, circuit: Circuit) -> CompilationResult:
        if self.compiler is None:
            raise RuntimeError(f"backend {self.name!r} must be configured before compile()")
        result = self.compiler.compile(circuit)
        result.compiler = self.name
        return result


class SabreXBackend(BaselineBackend):
    """Extended-effort SABRE: more trials, deeper lookahead, seeded tie-breaks.

    A stronger SWAP-chain baseline than ``baseline``: it quadruples the
    routing-trial budget (never fewer than four), doubles the extended-set
    lookahead window, and seeds the tie-breaking RNG from the job seed so
    reseeded retries genuinely explore different routings.
    """

    name = "sabre-x"
    description = "extended-effort SABRE baseline (4x routing trials, deeper lookahead)"

    def compiler_options(self, *, seed: int, baseline_trials: int) -> dict[str, Any]:
        return {
            "trials": max(4, 4 * int(baseline_trials)),
            "extended_set_size": 40,
            "seed": seed,
        }


class SabreNoiseBackend(BaselineBackend):
    """SABRE over a noise-adaptive initial layout.

    Same router and trial budget as ``baseline``; only the initial placement
    differs — logical qubits are packed into the lowest-noise connected
    region (couplers weighted by the noise model's cross-chip error ratio)
    instead of breadth-first from a fixed corner.  The delta to ``baseline``
    is the measured value of noise-aware placement for a SWAP-chain router.
    """

    name = "sabre-noise"
    description = "noise-adaptive SABRE baseline (layout packed into the lowest-noise region)"

    def compiler_options(self, *, seed: int, baseline_trials: int) -> dict[str, Any]:
        return {"trials": baseline_trials, "layout_strategy": "noise"}

