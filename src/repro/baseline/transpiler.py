"""Baseline compiler pipeline: layout selection followed by SABRE routing.

This is the reproduction's stand-in for "Qiskit, optimisation level 3", the
paper's baseline compiler: the routing stage of that flow *is* SABRE, and the relative
comparison the paper draws — SWAP-chain communication vs. highway-mediated
communication — depends on the router's distance behaviour rather than on
Qiskit's peephole optimisations.  The pipeline optionally tries a handful of
layout seeds and keeps the best result by effective CNOT count, mirroring the
multi-trial behaviour of level 3.
"""

from __future__ import annotations


from ..circuits.circuit import Circuit
from ..compiler.result import CompilationResult
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..hardware.topology import Topology
from ..perf.timers import PhaseTimer
from .layout import initial_layout
from .sabre import SabreRouter

__all__ = ["BaselineCompiler"]


class BaselineCompiler:
    """SWAP-insertion baseline compiler for chiplet devices.

    Parameters
    ----------
    topology:
        Device coupling graph (on-chip and cross-chip links together).
    noise:
        Error model used only to pick the best trial (metrics are recomputed
        by the caller for whatever model it wants).
    trials:
        Number of routing trials with different tie-breaking seeds; the best
        result by eff_CNOTs is returned (1 keeps runtime minimal).
    layout_strategy:
        Initial placement strategy (``"compact"``, ``"trivial"`` or
        ``"noise"``; see :mod:`repro.baseline.layout`).
    extended_set_size:
        Number of lookahead 2-qubit gates in SABRE's extended set.
    seed:
        Tie-breaking seed of the first trial; trial ``t`` uses ``seed + t``.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        noise: NoiseModel = DEFAULT_NOISE,
        trials: int = 1,
        layout_strategy: str = "compact",
        extended_set_size: int = 20,
        seed: int = 0,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be at least 1")
        self.topology = topology
        self.noise = noise
        self.trials = trials
        self.layout_strategy = layout_strategy
        self.extended_set_size = extended_set_size
        self.seed = seed

    def compile(
        self, circuit: Circuit, *, layout: dict[int, int] | None = None
    ) -> CompilationResult:
        """Compile ``circuit`` onto the device and return the best trial.

        The returned stats carry a per-phase wall-clock breakdown accumulated
        over every trial: ``layout`` (initial placement), ``route`` (SABRE
        SWAP insertion) and ``simulate`` (metric evaluation for trial
        selection).
        """
        timer = PhaseTimer()
        best: CompilationResult | None = None
        best_score = float("inf")
        for trial in range(self.trials):
            router = SabreRouter(
                self.topology,
                extended_set_size=self.extended_set_size,
                seed=self.seed + trial,
            )
            chosen_layout = layout
            if chosen_layout is None:
                with timer.phase("layout"):
                    chosen_layout = initial_layout(
                        circuit.num_qubits,
                        self.topology,
                        self.layout_strategy,
                        noise=self.noise,
                    )
            with timer.phase("route"):
                result = router.run(circuit, layout=chosen_layout)
            with timer.phase("simulate"):
                score = result.metrics(self.noise).eff_cnots
            if score < best_score:
                best_score = score
                best = result
        assert best is not None
        best.stats["trials"] = float(self.trials)
        timer.write_stats(best.stats)
        return best
