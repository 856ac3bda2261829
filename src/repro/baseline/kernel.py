"""Build and load SABRE's compiled decision loop (``_sabre_kernel.c``).

The extension is compiled on the first route in a process, with the
interpreter's own C compiler (``sysconfig``'s ``CC``) and headers, into
``$XDG_CACHE_HOME/repro/kernels`` (``~/.cache`` when unset) or, when that is
not writable, a per-user directory in the temp directory.  The file name carries a hash of the source
and the interpreter's cache tag, so a changed source or another interpreter
builds its own copy; the build writes a temporary file and renames it, so
processes that build at once never see a partial file.

:func:`load` makes one attempt per process.  Without a compiler or headers,
or when the build fails or times out, it returns None and the router takes
its interpreted path, whose output is identical.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Iterator
from pathlib import Path
from types import ModuleType

__all__ = ["load"]

SOURCE = Path(__file__).with_name("_sabre_kernel.c")
#: Seconds one build may take before the router gives up on the extension.
BUILD_TIMEOUT_S = 120.0


def compiler() -> list[str]:
    """The command that runs the interpreter's C compiler."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dirs() -> Iterator[Path]:
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield Path(home) / "repro" / "kernels"
    import tempfile

    # per user: the process loads whatever library it finds there
    yield Path(tempfile.gettempdir()) / f"repro-kernels-{_uid()}"


def _uid() -> int:
    return os.getuid() if hasattr(os, "getuid") else 0


def _build(target: Path) -> bool:
    """Compile the extension to ``target`` through a temporary file."""
    import subprocess
    import sysconfig
    import tempfile

    flags = ["-shared", "-fPIC", "-O2", "-ffp-contract=off"]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    include = f"-I{sysconfig.get_paths()['include']}"
    handle, temporary = tempfile.mkstemp(dir=target.parent, suffix=target.suffix)
    os.close(handle)
    try:
        subprocess.run(
            [*compiler(), *flags, include, str(SOURCE), "-o", temporary],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.replace(temporary, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _built(name: str) -> Path | None:
    """The build called ``name`` in the first cache directory this user owns
    and can write, built there when it is missing."""
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            usable = directory.stat().st_uid == _uid() and os.access(directory, os.W_OK)
        except OSError:
            continue
        if usable:
            target = directory / name
            return target if target.exists() or _build(target) else None
    return None


@functools.cache
def load() -> ModuleType | None:
    """The compiled kernel, built on the first call; None if unavailable."""
    import hashlib
    import importlib.util
    import sysconfig

    try:
        tag = SOURCE.read_bytes() + (sys.implementation.cache_tag or "").encode()
        name = f"_sabre_kernel-{hashlib.sha256(tag).hexdigest()[:16]}"
        target = _built(name + (sysconfig.get_config_var("EXT_SUFFIX") or ".so"))
        if target is None:
            return None
        spec = importlib.util.spec_from_file_location("_sabre_kernel", target)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None
