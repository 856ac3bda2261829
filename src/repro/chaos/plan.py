"""Scenario-spec grammar for the chaos subsystem.

A spec is a ``;``-separated list of clauses.  Each clause is
``kind[:item[,item...]]`` where an item is either ``param=value`` or a
bare token interpreted as the fault kind's *default parameter*::

    conn-drop:after=3;garble:rate=0.1;enospc:op=put;torn-tail:journal
    seed=7;slow:seconds=0.2,site=worker

Recognised fault kinds and their parameters (defaults in parens):

``conn-drop``
    Drop the connection after ``after`` (3) frames at a matching site,
    ``times`` (1) times total, on ``on`` = ``send``/``recv``/``any``
    (any).  Bare token → ``site``.
``garble``
    Corrupt a frame with probability ``rate`` (0.1) at a matching site,
    ``mode`` = ``flip``/``truncate`` (flip), at most ``times`` (1) times.
    Bare token → ``site``.
``slow``
    Sleep ``seconds`` (0.05) before a matching frame with probability
    ``rate`` (1.0), at most ``times`` (1) times.  Bare token → ``site``.
``enospc``
    Raise ``OSError(ENOSPC)`` from a matching filesystem op
    (``op`` = ``put``/``checkpoint``/``journal``/``any``, default
    ``any``) after ``after`` (0) successful ops, ``times`` (1) times —
    or forever when ``sticky=1``.  Bare token → ``op``.
``readonly``
    Same knobs as ``enospc`` but raises ``OSError(EROFS)``.
``torn-tail``
    Truncate a journal append (or checkpoint write) mid-line, leaving a
    torn tail on disk: ``target`` = ``journal``/``checkpoint``
    (journal), ``times`` (1).  Bare token → ``target``.
``job-fail``
    Make every job of ``benchmark`` raise ``RuntimeError``.  Bare token
    → ``benchmark``.
``job-stall``
    Make every job of ``benchmark`` sleep ``seconds`` (1.0, at most 60)
    before it compiles.  Bare token → ``benchmark``.  Both job kinds fire
    on every matching job (case-insensitively), on every attempt.
``seed``
    Not a fault: seeds the plan's RNG.  ``seed=7`` or ``seed:7``.

Site parameters match by prefix against the hook-point names the
transport layer passes in (``client.send``, ``client.recv``,
``server.send``, ``server.recv``, ``worker.send``, ``worker.recv``,
``coordinator.send``, ``coordinator.recv``), so ``site=worker`` matches
both directions of the farm worker's socket and an empty site matches
everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos import CHAOS_ENV

__all__ = [
    "CHAOS_ENV",
    "CHAOS_PLAN_VERSION",
    "CHAOS_REPORT_ENV",
    "ChaosPlan",
    "ChaosSpecError",
    "FaultClause",
    "parse_chaos_spec",
]

CHAOS_REPORT_ENV = "REPRO_CHAOS_REPORT"
CHAOS_PLAN_VERSION = 1

# kind -> (default-parameter name, {param: default}); each default's type is
# the coercion its parameter's values go through
_FAULT_KINDS: dict[str, tuple[str, dict[str, int | float | str]]] = {
    "conn-drop": ("site", {"after": 3, "times": 1, "site": "", "on": "any"}),
    "garble": ("site", {"rate": 0.1, "times": 1, "site": "", "mode": "flip"}),
    "slow": ("site", {"seconds": 0.05, "rate": 1.0, "times": 1, "site": ""}),
    "enospc": ("op", {"op": "any", "after": 0, "times": 1, "sticky": 0}),
    "readonly": ("op", {"op": "any", "after": 0, "times": 1, "sticky": 0}),
    "torn-tail": ("target", {"target": "journal", "times": 1}),
    "job-fail": ("benchmark", {"benchmark": ""}),
    "job-stall": ("benchmark", {"benchmark": "", "seconds": 1.0}),
}

_ENUM_PARAMS: dict[tuple[str, str], tuple[str, ...]] = {
    ("conn-drop", "on"): ("send", "recv", "any"),
    ("garble", "mode"): ("flip", "truncate"),
    ("enospc", "op"): ("put", "checkpoint", "journal", "any"),
    ("readonly", "op"): ("put", "checkpoint", "journal", "any"),
    ("torn-tail", "target"): ("journal", "checkpoint"),
}


class ChaosSpecError(ValueError):
    """A scenario spec string failed to parse or validate."""


@dataclass
class FaultClause:
    """One parsed fault clause: a kind plus its fully-defaulted params."""

    kind: str
    params: dict[str, object] = field(default_factory=dict)


@dataclass
class ChaosPlan:
    """A fully-validated chaos scenario."""

    clauses: list[FaultClause] = field(default_factory=list)
    seed: int = 0
    spec: str = ""


def _coerce(kind: str, name: str, raw: str) -> object:
    _, defaults = _FAULT_KINDS[kind]
    if name not in defaults:
        known = ", ".join(sorted(defaults))
        raise ChaosSpecError(
            f"unknown parameter {name!r} for fault {kind!r} (known: {known})"
        )
    target = type(defaults[name])
    try:
        value: object = target(raw)
    except ValueError as exc:
        raise ChaosSpecError(
            f"bad value {raw!r} for {kind}:{name} (expected {target.__name__})"
        ) from exc
    allowed = _ENUM_PARAMS.get((kind, name))
    if allowed is not None and value not in allowed:
        raise ChaosSpecError(
            f"bad value {raw!r} for {kind}:{name} (one of: {', '.join(allowed)})"
        )
    return value


def parse_chaos_spec(spec: str) -> ChaosPlan:
    """Parse a scenario spec string into a :class:`ChaosPlan`.

    Raises :class:`ChaosSpecError` with a pointed message on any
    malformed clause — a chaos run with a silently-dropped fault would
    "pass" without testing anything.
    """

    plan = ChaosPlan(spec=spec.strip())
    for chunk in spec.split(";"):
        clause_text = chunk.strip()
        if not clause_text:
            continue
        head, _, rest = clause_text.partition(":")
        head = head.strip()
        if head.startswith("seed") and (head == "seed" or head.startswith("seed=")):
            raw_seed = head.partition("=")[2] or rest.strip()
            try:
                plan.seed = int(raw_seed)
            except ValueError as exc:
                raise ChaosSpecError(f"bad seed value {raw_seed!r}") from exc
            continue
        if head not in _FAULT_KINDS:
            known = ", ".join(sorted(_FAULT_KINDS))
            raise ChaosSpecError(
                f"unknown fault kind {head!r} in clause {clause_text!r}"
                f" (known kinds: {known}, plus seed=N)"
            )
        default_param, defaults = _FAULT_KINDS[head]
        params = dict(defaults)
        if rest.strip():
            for item in rest.split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" in item:
                    name, _, raw = item.partition("=")
                    params[name.strip()] = _coerce(head, name.strip(), raw.strip())
                else:
                    # bare token -> the kind's default parameter
                    params[default_param] = _coerce(head, default_param, item)
        plan.clauses.append(FaultClause(kind=head, params=params))
    return plan
