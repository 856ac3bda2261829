"""Warm per-device compile state: re-exported from :mod:`repro.experiments.devices`.

Every run path keeps its device state warm, not only ``repro serve``, so the
registry lives in the engine: one per process, which each serve worker sizes
to ``--max-devices``.
"""

from __future__ import annotations

from ..experiments.devices import DeviceKey, DeviceState, WarmStateRegistry, device_key

__all__ = ["DeviceKey", "DeviceState", "WarmStateRegistry", "device_key"]
