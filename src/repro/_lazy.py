"""Lazy module namespaces (PEP 562).

A package root lists each public name once, against the submodule that
defines it; the name's first access imports that submodule only.  Importing
one submodule therefore no longer loads its siblings: a cached ``repro run``
or a ``repro submit`` never imports a compiler.  A plain module can re-export
its siblings' names the same way (:mod:`repro.experiments.engine`).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    module: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the module named ``module``.

    ``exports`` maps each public name to the module defining it, relative to
    the module's package (``{"Job": ".jobs"}``: for a package root that is
    one of its submodules, for a plain module one of its siblings).  A
    resolved name is bound in the module namespace, so later lookups are
    plain attribute reads.
    """

    def __getattr__(name: str) -> object:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        anchor = sys.modules[module].__package__
        value = getattr(importlib.import_module(submodule, anchor), name)
        setattr(sys.modules[module], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[module]), *exports})

    return __getattr__, __dir__
