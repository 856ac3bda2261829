"""Warm-state compile server: ``repro serve`` / ``repro submit``.

The batch engine pays device-state construction (chiplet array, highway
layout, router distance tables) once per job *process*.  The serve path
keeps that state resident in a long-lived server so interactive and
repeated compiles pay it once per *device configuration*:

* :mod:`~repro.serve.schema` — newline-JSON wire protocol, versioned;
* :mod:`~repro.serve.state` — per-device warm state and its LRU registry;
* :mod:`~repro.serve.server` — threaded socket server running the engine's
  own ``_execute_keyed`` entry point (same cache keys, same payloads);
* :mod:`~repro.serve.client` — blocking client plus concurrent submission
  helpers used by ``repro submit`` and the latency bench.
"""

from .client import ServeClient, submit_jobs
from .schema import (
    SERVE_PROTOCOL_VERSION,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_message,
)
from .server import CompileServer
from .state import DeviceState, WarmStateRegistry, device_key

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "CompileServer",
    "DeviceState",
    "ServeClient",
    "ServeProtocolError",
    "ServeRequest",
    "ServeResponse",
    "WarmStateRegistry",
    "decode_line",
    "device_key",
    "encode_message",
    "submit_jobs",
]
