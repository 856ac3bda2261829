"""Warm per-device compile state, reused by every job on the same device.

Building the chiplet array, the highway layout, and the local router's
all-pairs distance tables is pure — a deterministic function of the static
device configuration (structure, chiplet footprint, cross-links, highway
density).  A :class:`WarmStateRegistry` therefore caches one
:class:`DeviceState` per device configuration and hands the *same* objects
to every compile of that device: reuse cannot change any output, it only
takes the rebuild off each job's path.

Every run path compiles through a registry: ``repro serve`` workers install
their own ``--max-devices`` registry as the engine's warm-state provider
(:func:`repro.experiments.execute.set_warm_state_provider`), and with no
provider installed a job uses this process's :func:`default_registry`.  A
forked child starts with no default registry, so it never shares a registry
(or its lock) with its parent; its first job creates a fresh one.

Thread-safety: a single lock guards the LRU map.  State construction happens
outside the lock (two threads may race to build the same device once; the
first insert wins and the loser's copy is dropped), so a slow build never
stalls unrelated requests.

The compile-path modules load on the first :meth:`DeviceState.build`, so
importing this module (the farm coordinator's :func:`device_key`) loads no
compiler.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .jobs import Job

if TYPE_CHECKING:
    from ..compiler.local_router import LocalRouter
    from ..hardware.array import ChipletArray
    from ..highway.layout import HighwayLayout

__all__ = [
    "DEFAULT_REGISTRY_DEVICES",
    "DeviceKey",
    "DeviceState",
    "WarmStateRegistry",
    "default_registry",
    "device_key",
]

#: Hashable identity of everything the warm state depends on.
DeviceKey = tuple[str, int, int, int, Any, int]


def device_key(job: Job) -> DeviceKey:
    """The device-configuration fields of ``job`` that determine warm state.

    Benchmark, seed, noise, and compiler knobs are deliberately excluded:
    they change *what* is compiled, not the device tables being reused.
    """
    return (
        job.structure,
        job.chiplet_width,
        job.rows,
        job.cols,
        job.cross_links_per_edge,
        job.highway_density,
    )


@dataclass(frozen=True)
class DeviceState:
    """Resident compile state for one device configuration."""

    key: DeviceKey
    array: ChipletArray
    layout: HighwayLayout
    router: LocalRouter

    @classmethod
    def build(cls, job: Job) -> "DeviceState":
        """Construct and pre-warm the state for ``job``'s device."""
        from ..compiler.local_router import LocalRouter
        from ..highway.layout import HighwayLayout

        array = job.build_array()
        # identical to the cold path inside compile_many(): density from the
        # job, interleave at its default
        layout = HighwayLayout(array, density=job.highway_density)
        router = LocalRouter(array.topology, layout.highway_qubits)
        # force the expensive pure tables now, off the request's critical path
        array.topology.distance_rows()
        return cls(key=device_key(job), array=array, layout=layout, router=router)


class WarmStateRegistry:
    """LRU cache of :class:`DeviceState`, keyed by device configuration.

    ``get`` is a warm-state provider
    (:func:`repro.experiments.engine.set_warm_state_provider` accepts it
    directly): given a job it returns resident state, building and caching
    it on first sight of a device.
    """

    def __init__(self, max_devices: int = 8) -> None:
        if max_devices < 1:
            raise ValueError("max_devices must be at least 1")
        self.max_devices = max_devices
        self._states: OrderedDict[DeviceKey, DeviceState] = OrderedDict()
        self._lock = threading.Lock()
        self._warm_hits = 0
        self._cold_builds = 0

    def __contains__(self, job: Job) -> bool:
        with self._lock:
            return device_key(job) in self._states

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    def get(self, job: Job) -> DeviceState:
        """Resident state for ``job``'s device, building it if absent."""
        key = device_key(job)
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                self._states.move_to_end(key)
                self._warm_hits += 1
                return state
        built = DeviceState.build(job)
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                # another thread built the same device first; keep its copy
                # so every request for one device shares identical objects
                self._states.move_to_end(key)
                self._warm_hits += 1
                return state
            self._cold_builds += 1
            self._states[key] = built
            while len(self._states) > self.max_devices:
                self._states.popitem(last=False)
            return built

    def stats(self) -> dict[str, Any]:
        """Registry counters for the ``stats`` op."""
        with self._lock:
            return {
                "devices_resident": len(self._states),
                "max_devices": self.max_devices,
                "warm_hits": self._warm_hits,
                "cold_builds": self._cold_builds,
                "device_keys": [list(key) for key in self._states],
            }

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


#: Capacity of :func:`default_registry`.  Every figure sweep lists its jobs
#: grouped by device, so one resident device would serve it; four keep every
#: device of a sweep that interleaves four structures (``perfbench``'s
#: ``sweep-cache``) resident, while bounding what a process holds: a
#: paper-scale device keeps 2.4-10.5 MiB of tables.
DEFAULT_REGISTRY_DEVICES = 4

_DEFAULT: WarmStateRegistry | None = None


def default_registry() -> WarmStateRegistry:
    """This process's registry (:data:`DEFAULT_REGISTRY_DEVICES` devices) for
    jobs run with no provider installed, created on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = WarmStateRegistry(max_devices=DEFAULT_REGISTRY_DEVICES)
    return _DEFAULT


def _forget_default_registry() -> None:
    global _DEFAULT
    _DEFAULT = None


# a forked child must not inherit a registry whose lock another thread of
# the parent may hold at the fork
os.register_at_fork(after_in_child=_forget_default_registry)
