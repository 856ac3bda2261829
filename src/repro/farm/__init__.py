"""Compile-farm subsystem: coordinator, lease queue, workers, launchers.

``repro run`` and ``repro resume`` with ``--jobs N > 1`` or a
``--worker-command`` drive a :class:`~repro.farm.coordinator.FarmCoordinator`
(which plans through the engine's cache-aware :func:`plan_jobs` and serves a
lease-based work queue over the protocol-v2 wire) plus N workers launched
through a pluggable :class:`~repro.farm.launcher.WorkerLauncher`.  See the
README's "Compile farm" section for the operational story.

Each name loads its submodule on first access (PEP 562).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "FarmCoordinator": ".coordinator",
    "run_farm": ".coordinator",
    "CommandWorkerLauncher": ".launcher",
    "LocalWorkerLauncher": ".launcher",
    "WorkerLauncher": ".launcher",
    "stop_workers": ".launcher",
    "LeaseQueue": ".queue",
    "QueueEntry": ".queue",
    "Lease": ".queue",
    "default_worker_id": ".worker",
    "run_worker": ".worker",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .coordinator import FarmCoordinator, run_farm
    from .launcher import CommandWorkerLauncher, LocalWorkerLauncher, WorkerLauncher, stop_workers
    from .queue import Lease, LeaseQueue, QueueEntry
    from .worker import default_worker_id, run_worker
