"""A pure-Python copy of ``numpy.random.default_rng`` for the compile path.

Seeded benchmark circuits (the QAOA graph, the BV secret, the VQE angles) and
SABRE's tie-breaks were drawn with numpy's default generator, and the golden
routing suite pins their outputs.  :func:`default_rng` reproduces that
generator draw for draw, so the compile path needs no numpy:

* ``SeedSequence`` hashing of a non-negative integer seed into a 4-word pool,
  expanded to the 128-bit state and increment of PCG64;
* PCG64 (128-bit LCG, XSL-RR output) with numpy's buffered 32-bit draws: a
  64-bit output serves two 32-bit draws, low half first;
* the bounded-integer, double, shuffle and choice routines of
  ``numpy.random.Generator`` that the runtime calls.

``tests/test_rng.py`` checks every method against numpy itself.
"""

from __future__ import annotations

import operator
from collections.abc import MutableSequence, Sequence
from typing import Any

__all__ = ["Generator", "default_rng"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """The seed as little-endian 32-bit words (at least one)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64)."""
    entropy = _seed_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """numpy's ``Generator(PCG64(seed))``, restricted to what the runtime draws."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, s2, s3 = _seed_state(operator.index(seed))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        state = (self._inc + (s0 << 64 | s1)) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        # upper half of the last 64-bit draw, pending as the next 32-bit draw
        self._half: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _bounded(self, top: int) -> int:
        """Uniform in ``[0, top]``: Lemire's method (``random_bounded_uint64``)."""
        if top == 0:
            return 0
        draw, bits = (self._next32, 32) if top <= _M32 else (self._next64, 64)
        mask = (1 << bits) - 1
        if top == mask:
            return draw()
        span = top + 1
        product = draw() * span
        if product & mask < span:
            threshold = (mask - top) % span
            while product & mask < threshold:
                product = draw() * span
        return product >> bits

    def _interval(self, top: int) -> int:
        """Uniform in ``[0, top]`` by masked rejection (``random_interval``)."""
        if top == 0:
            return 0
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _M32 else self._next64
        while True:
            value = draw() & mask
            if value <= top:
                return value

    def _shuffle_int(self, data: list[int], first: int) -> None:
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def integers(self, n: int) -> int:
        """Uniform in ``[0, n)``."""
        if n < 1:
            raise ValueError("high <= 0")
        return self._bounded(n - 1)

    def random(self) -> float:
        """Uniform double in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float, size: int | None = None) -> Any:
        """``low + (high - low) * random()``; a list when ``size`` is given."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * self.random()
        return [low + span * self.random() for _ in range(size)]

    def shuffle(self, items: MutableSequence[Any]) -> None:
        """Fisher-Yates in place, last position first."""
        for i in range(len(items) - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, a: int | Sequence[Any], size: int, *, replace: bool) -> list[Any]:
        """``size`` distinct draws from ``range(a)`` or from the sequence ``a``.

        Only sampling without replacement (``replace=False``) is provided.
        """
        if replace:
            raise ValueError("only sampling without replacement is supported")
        pop = operator.index(a) if isinstance(a, int) else len(a)
        if size > pop:
            raise ValueError(
                "Cannot take a larger sample than population when replace is False"
            )
        if pop > 10000 and size > pop // 50:
            # tail shuffle: the last ``size`` slots of a partial Fisher-Yates
            picks = list(range(pop))
            self._shuffle_int(picks, max(pop - size, 1))
            picks = picks[pop - size :]
        else:
            # Floyd's algorithm (numpy keeps the chosen set in a linear-probe
            # hash table; membership is all that decides the draws), then a
            # shuffle of the picks
            chosen: set[int] = set()
            picks = []
            for j in range(pop - size, pop):
                value = self._bounded(j)
                if value in chosen:
                    value = j
                chosen.add(value)
                picks.append(value)
            self._shuffle_int(picks, 1)
        if isinstance(a, int):
            return picks
        return [a[i] for i in picks]


def default_rng(seed: int) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` would return."""
    return Generator(seed)
