"""Pluggable compiler backends: protocol, registry and built-in compilers.

This package is the seam that turns the repo's core comparison from a
hard-coded MECH-vs-baseline pair into an open N-compiler sweep:

* :class:`CompilerBackend` — the two-method protocol every compiler adapts to;
* :func:`register_backend` / :func:`get_backend` / :func:`available_backends`
  — the string-keyed registry everything above dispatches through;
* built-ins — ``baseline``, ``mech``, their ablations and the SABRE variants
  (:data:`~repro.backends.registry.BUILTIN_BACKENDS`), always registered;
  the compilers behind them load on the first :func:`get_backend`.

See :func:`repro.experiments.runner.compile_many` for the N-way driver and
``repro run --compilers a,b,c`` / ``repro compilers`` for the CLI surface.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

_EXPORTS = {
    "CompilerBackend": ".base",
    "BaselineBackend": ".builtin",
    "MechBackend": ".builtin",
    "MechNoAggBackend": ".builtin",
    "MechNoFuseBackend": ".builtin",
    "MechSingleEntryBackend": ".builtin",
    "SabreNoiseBackend": ".builtin",
    "SabreXBackend": ".builtin",
    "BUILTIN_BACKENDS": ".registry",
    "DEFAULT_COMPILERS": ".registry",
    "available_backends": ".registry",
    "backend_descriptions": ".registry",
    "get_backend": ".registry",
    "register_backend": ".registry",
    "unregister_backend": ".registry",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .base import CompilerBackend
    from .builtin import (
        BaselineBackend,
        MechBackend,
        MechNoAggBackend,
        MechNoFuseBackend,
        MechSingleEntryBackend,
        SabreNoiseBackend,
        SabreXBackend,
    )
    from .registry import (
        BUILTIN_BACKENDS,
        DEFAULT_COMPILERS,
        available_backends,
        backend_descriptions,
        get_backend,
        register_backend,
        unregister_backend,
    )
