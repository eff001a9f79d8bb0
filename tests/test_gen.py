import random
from fractions import Fraction

import pytest

from rglat.gen import random_interval_set
from rglat.intervals import EMPTY, IntervalSet, normalize


def normalized_interval_set(rng: random.Random, upper: Fraction, max_pieces: int) -> IntervalSet:
    """The generator's draws, with endpoints built as upper * c / den and merged by normalize."""
    k = rng.randint(0, max_pieces)
    if k == 0:
        return EMPTY
    den = rng.choice((8, 16, 32, 64))
    cuts = sorted(rng.sample(range(den + 1), min(2 * k, den + 1)))
    return normalize([(upper * lo / den, upper * hi / den) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi])


@pytest.mark.parametrize("upper", [Fraction(2), Fraction(7, 3)])
@pytest.mark.parametrize("max_pieces", [3, 4])
def test_random_interval_set_matches_normalize_of_the_same_draws(upper, max_pieces):
    for seed in range(300):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got = random_interval_set(rng, upper, max_pieces=max_pieces)
            assert got == normalized_interval_set(ref_rng, upper, max_pieces)
            assert IntervalSet(got.intervals) == got  # canonical under the public checks
        assert rng.random() == ref_rng.random()  # the same draws, in the same order
