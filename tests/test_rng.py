"""Conformance of :mod:`repro.rng` with ``numpy.random.default_rng``.

Seeded benchmark circuits and SABRE's tie-breaks draw from
:func:`repro.rng.default_rng`; the golden routing suite and the perfbench
reference pin outputs that numpy's generator drew.  Every method is checked
against numpy draw for draw.
"""

import numpy as np
import pytest

from repro.rng import default_rng

SEEDS = list(range(301))
MULTI_WORD_SEEDS = [2**32, 2**32 + 5, 2**40 + 77, 123456789012, 2**64 + 1, 2**130 + 3]
BOUNDS = [1, 2, 3, 17, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3]


def pair(seed):
    return np.random.default_rng(seed), default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS + MULTI_WORD_SEEDS)
def test_integers_random_and_uniform(seed):
    ref, ours = pair(seed)
    for n in BOUNDS:
        assert ours.integers(n) == int(ref.integers(n))
    assert ours.random() == ref.random()
    assert ours.uniform(0.0, 2.0 * np.pi) == ref.uniform(0.0, 2.0 * np.pi)
    assert ours.uniform(-1.5, 3, size=7) == ref.uniform(-1.5, 3, size=7).tolist()


@pytest.mark.parametrize("seed", SEEDS[:50] + MULTI_WORD_SEEDS)
def test_shuffle_list(seed):
    ref, ours = pair(seed)
    for length in (0, 1, 2, 9, 64):
        expected, got = list(range(length)), list(range(length))
        ref.shuffle(expected)
        ours.shuffle(got)
        assert got == expected


@pytest.mark.parametrize("seed", SEEDS[:40] + MULTI_WORD_SEEDS[:2])
def test_choice_without_replacement(seed):
    ref, ours = pair(seed)
    # Floyd's algorithm below and at the tail-shuffle threshold, the tail
    # shuffle above it (more than 10000 items and size > pop // 50)
    for pop, size in ((45, 11), (300, 150), (20, 2), (5, 5), (7, 0),
                      (10000, 5000), (20000, 400), (20000, 401), (12000, 12000)):
        expected = ref.choice(pop, size=size, replace=False).tolist()
        assert ours.choice(pop, size=size, replace=False) == expected


@pytest.mark.parametrize("seed", SEEDS[:60])
def test_choice_from_a_sequence(seed):
    ref, ours = pair(seed)
    items = list(range(100, 131))
    expected = ref.choice(items, size=4, replace=False).tolist()
    assert ours.choice(items, size=4, replace=False) == expected


@pytest.mark.parametrize("seed", SEEDS[:60])
def test_interleaved_32_and_64_bit_draws_share_the_buffered_half(seed):
    ref, ours = pair(seed)
    # integers(n < 2**32) takes 32-bit draws, which leave the upper half of a
    # 64-bit output buffered; random() takes whole 64-bit outputs and must
    # leave that half in place for the next 32-bit draw
    for step in range(40):
        if step % 3 == 0:
            assert ours.random() == ref.random()
        else:
            assert ours.integers(1000 + step) == int(ref.integers(1000 + step))


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        default_rng(-1)


def test_sample_larger_than_population_raises():
    with pytest.raises(ValueError):
        default_rng(0).choice(3, size=4, replace=False)
