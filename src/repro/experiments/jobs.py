"""What a sweep runs: the hashable :class:`Job`, its config hash and encoding.

Every cell of the paper's tables and figures is one :class:`Job`: the
benchmark name, the device (structure, chiplet footprint, array shape, link
density, highway density), the compiler list (registered backend names,
reference first — see :mod:`repro.backends`), the compiler knobs and the
seed.  :func:`config_key` hashes everything that affects the result (the
compiler list included, the job's ``tags`` excluded), and the cache, the
checkpoint and the farm's wire format all carry jobs in the
:func:`job_to_dict` manifest encoding.

The module imports neither the cache nor the executors nor the record
types, so building jobs costs a process only this module.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING

from ..backends.registry import DEFAULT_COMPILERS
from ..hardware.noise import DEFAULT_NOISE, NoiseModel

if TYPE_CHECKING:
    from ..hardware.array import ChipletArray
    from .records import AnyRecord

__all__ = [
    "CACHE_VERSION",
    "EXECUTORS",
    "SCALE_TIERS",
    "Job",
    "config_key",
    "job_from_dict",
    "job_to_dict",
    "noise_from_items",
    "noise_to_items",
]

#: Bump when the cache payload layout or the compilers' semantics change in a
#: way that invalidates memoized records.  Version 2: the pluggable-backend
#: redesign — jobs carry an explicit compiler list (part of the config hash)
#: and N-way payloads store per-backend columns.
CACHE_VERSION = 2

#: The scale tiers shared by every experiment's presets (and by the benchmark
#: harness's ``--repro-scale`` option).
SCALE_TIERS: tuple[str, ...] = ("small", "medium", "paper")

Primitive = str | int | float | bool | None
Items = tuple[tuple[str, Primitive], ...]


def noise_to_items(noise: NoiseModel) -> Items:
    """Serialise a noise model as a hashable, order-stable tuple of pairs."""
    return tuple(sorted(asdict(noise).items()))


def noise_from_items(items: Items) -> NoiseModel:
    """Inverse of :func:`noise_to_items`."""
    return NoiseModel(**dict(items))


#: Default-noise items, precomputed so ``Job`` can use them as a default.
DEFAULT_NOISE_ITEMS: Items = noise_to_items(DEFAULT_NOISE)


@dataclass(frozen=True)
class Job:
    """One hashable cell of a figure/table: benchmark x device x knobs.

    ``kind`` selects the executor: ``"compare"`` runs every listed compiler
    once and records the paper's headline metrics; ``"sensitivity"`` compiles
    once and re-scores the fixed circuits under the noise sweeps carried in
    ``params`` (Fig. 13's protocol).  ``compilers`` names the registered
    backends to compare, reference first; it is part of the config hash, so
    the same cell swept with different compiler sets caches separately.
    ``tags`` annotate the resulting record's ``extra`` dict but do not enter
    the config hash.
    """

    benchmark: str
    kind: str = "compare"
    structure: str = "square"
    chiplet_width: int = 4
    rows: int = 1
    cols: int = 2
    cross_links_per_edge: int | None = None
    highway_density: int = 1
    num_data_qubits: int | None = None
    min_components: int = 2
    baseline_trials: int = 1
    seed: int = 0
    noise: Items = DEFAULT_NOISE_ITEMS
    benchmark_kwargs: Items = ()
    params: tuple[tuple[str, tuple[float, ...]], ...] = ()
    tags: Items = ()
    compilers: tuple[str, ...] = DEFAULT_COMPILERS

    def build_array(self) -> ChipletArray:
        from ..hardware.array import ChipletArray

        return ChipletArray(
            self.structure,
            self.chiplet_width,
            self.rows,
            self.cols,
            cross_links_per_edge=self.cross_links_per_edge,
        )

    def noise_model(self) -> NoiseModel:
        return noise_from_items(self.noise)

    def with_(self, **changes) -> "Job":
        return replace(self, **changes)


#: Tuple-typed Job fields that JSON round-trips as (nested) lists.
_TUPLE_FIELDS = ("noise", "benchmark_kwargs", "params", "tags", "compilers")


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def job_to_dict(job: Job) -> dict[str, object]:
    """JSON-serialisable dict representation of a job."""
    out: dict[str, object] = {}
    for f in fields(Job):
        value = getattr(job, f.name)
        out[f.name] = _listify(value) if f.name in _TUPLE_FIELDS else value
    return out


def job_from_dict(data: Mapping[str, object]) -> Job:
    """Inverse of :func:`job_to_dict`.

    Fields absent from ``data`` fall back to the dataclass defaults, so
    checkpoints serialised before a field existed (e.g. ``compilers``) keep
    re-hydrating — an old job and its re-hydrated twin hash identically
    because :func:`job_to_dict` re-adds the default before hashing.
    """
    kwargs: dict[str, object] = {}
    for f in fields(Job):
        if f.name not in data:
            continue
        value = data[f.name]
        kwargs[f.name] = _tuplify(value) if f.name in _TUPLE_FIELDS else value
    return Job(**kwargs)  # type: ignore[arg-type]


def config_key(job: Job) -> str:
    """Deterministic hash of everything that affects the job's result.

    ``tags`` are excluded: they label the record but do not change the
    computation.  The hash is stable across processes and Python versions
    (canonical JSON, sorted keys).
    """
    config = job_to_dict(job)
    del config["tags"]
    config["cache_version"] = CACHE_VERSION
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_builtin(job: Job) -> AnyRecord:
    """Run a built-in kind; the executors load with the first executed job."""
    from .execute import BUILTIN_EXECUTORS

    return BUILTIN_EXECUTORS[job.kind](job)


#: Executor registry, keyed by ``Job.kind``.  Planning validates kinds against
#: its keys, so it lives here rather than beside the executors: a plan (and a
#: fully cached run) never loads :mod:`repro.experiments.execute`.
EXECUTORS: dict[str, Callable[[Job], AnyRecord]] = {
    "compare": _run_builtin,
    "sensitivity": _run_builtin,
}
