"""Lazy package namespaces (PEP 562).

A package root lists each public name once, against the submodule that
defines it; the name's first access imports that submodule only.  Importing
one submodule therefore no longer loads its siblings: a cached ``repro run``
or a ``repro submit`` never imports a compiler.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the relative submodule defining it
    (``{"Job": ".engine"}``).  A resolved name is bound in the package
    namespace, so later lookups are plain attribute reads.
    """

    def __getattr__(name: str) -> object:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
