"""``randbelow`` draws exactly what ``Random.randrange`` draws.

The schedulers and Algorithm 1 pick threads through ``randbelow`` instead
of ``Execution.rng.randrange``; every seeded schedule depends on the two
agreeing on the value and on the generator state left behind.
"""

from __future__ import annotations

import random

import pytest

from repro.runtime.interpreter import randbelow


def test_same_values_and_state_as_randrange():
    for seed in range(100):
        ours = random.Random(seed)
        reference = random.Random(seed)
        for n in range(1, 71):
            assert randbelow(ours.getrandbits, n) == reference.randrange(n), (
                seed, n,
            )
            assert ours.getstate() == reference.getstate(), (seed, n)


def test_offset_draw_matches_randint():
    # DefaultScheduler's slice jitter: low + randbelow(width) is randint.
    for seed in range(100):
        ours = random.Random(seed)
        reference = random.Random(seed)
        for low, high in ((25, 50), (1, 1), (1, 2), (3, 70)):
            drawn = low + randbelow(ours.getrandbits, high - low + 1)
            assert drawn == reference.randint(low, high)
        assert ours.getstate() == reference.getstate()


def test_empty_range_raises_like_randrange():
    rng = random.Random(0)
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.randrange(n)
        with pytest.raises(ValueError):
            randbelow(rng.getrandbits, n)
