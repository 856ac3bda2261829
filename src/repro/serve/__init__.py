"""Warm-state compile server: ``repro serve`` / ``repro submit``.

A long-lived server answers repeated compiles from the result cache and
leases first-time compiles to forked workers, each of which keeps its
device state (chiplet array, highway layout, router distance tables)
resident, so a device configuration is built once per worker:

* :mod:`~repro.serve.schema` — newline-JSON wire protocol, versioned;
* :mod:`~repro.serve.state` — per-device warm state and its LRU registry
  (re-exported from :mod:`repro.experiments.devices`);
* :mod:`~repro.serve.server` — socket server that answers cache hits
  itself and leases misses to forked workers, which run one attempt each
  of the engine's own ``_execute_keyed`` (same cache keys, same payloads);
* :mod:`~repro.serve.client` — blocking client plus the concurrent
  submission helper behind ``repro submit``.

Each name loads its submodule on first access (PEP 562): the client never
imports the server, and neither imports a compiler until it compiles.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "ServeClient": ".client",
    "submit_jobs": ".client",
    "SERVE_PROTOCOL_VERSION": ".schema",
    "ServeProtocolError": ".schema",
    "ServeRequest": ".schema",
    "ServeResponse": ".schema",
    "decode_line": ".schema",
    "encode_message": ".schema",
    "CompileServer": ".server",
    "DeviceState": ".state",
    "WarmStateRegistry": ".state",
    "device_key": ".state",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
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
