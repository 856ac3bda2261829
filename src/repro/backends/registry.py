"""String-keyed registry of compiler backends.

Concrete backends register a zero-argument factory under a stable lowercase
name; everything above — the experiment runner's :func:`compile_many`, the
engine's plan-time validation, the ``repro run --compilers`` flag and the
``repro compilers`` listing — resolves backends exclusively through
:func:`get_backend`, so adding a compiler to every sweep is one
:func:`register_backend` call.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from .base import CompilerBackend

__all__ = [
    "available_backends",
    "backend_descriptions",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

#: name -> zero-arg factory producing a *fresh, unconfigured* backend.
_REGISTRY: dict[str, Callable[[], CompilerBackend]] = {}

#: Serialises registry mutation: compile-server worker threads resolve
#: backends concurrently, and the check-then-set in :func:`register_backend`
#: must not interleave with another registration of the same name.  Lookups
#: take the lock too so a reader never observes a half-applied mutation.
_REGISTRY_LOCK = threading.Lock()


def register_backend(
    name: str, factory: Callable[[], CompilerBackend], *, replace: bool = False
) -> None:
    """Register ``factory`` (typically the backend class) under ``name``.

    Names are normalised to lowercase.  Re-registering an existing name is an
    error unless ``replace=True`` — silent shadowing of a built-in backend
    would change every cache key's meaning without changing the key.

    Forked ``--jobs N`` workers inherit the parent's registrations, but
    remote ``repro farm-worker`` processes re-import the registry, so a
    backend they must see has to be registered at import time of a module
    they import — not from inside ``if __name__ == "__main__"``.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be a non-empty string")
    with _REGISTRY_LOCK:
        if key in _REGISTRY and not replace:
            raise ValueError(
                f"backend {key!r} is already registered; pass replace=True to override"
            )
        _REGISTRY[key] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name.strip().lower(), None)


def get_backend(name: str) -> CompilerBackend:
    """A fresh, unconfigured instance of the backend registered as ``name``."""
    key = str(name).strip().lower()
    with _REGISTRY_LOCK:
        factory = _REGISTRY.get(key)
    if factory is None:
        raise ValueError(
            f"unknown compiler {name!r}; choose from {available_backends()}"
        )
    return factory()


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def backend_descriptions() -> dict[str, str]:
    """``name -> one-line description`` for every registered backend, sorted."""
    out: dict[str, str] = {}
    for name in available_backends():
        with _REGISTRY_LOCK:
            factory = _REGISTRY.get(name)
        if factory is None:  # unregistered between the listing and now
            continue
        backend = factory()
        out[name] = getattr(backend, "description", "") or ""
    return out
