"""Seeded random generators for the verification suites.

Everything here is driven by an explicit :class:`random.Random`, so every
suite run is reproducible from its seed.  All outputs are exact rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .intervals import Ambient, EMPTY, IntervalSet, StepDensity, intersect, normalize, union

_DENOMINATORS = (8, 16, 32, 64)


def random_interval_set(rng: random.Random, upper: Fraction, max_pieces: int = 3) -> IntervalSet:
    """A canonical union of up to max_pieces intervals inside (0, upper]."""
    k = rng.randint(0, max_pieces)
    if k == 0:
        return EMPTY
    den = rng.choice(_DENOMINATORS)
    cuts = rng.sample(range(den + 1), min(2 * k, den + 1))
    cuts.sort()
    # The cuts are distinct and sorted, so the pieces are disjoint and non-adjacent.
    # upper is an int or a Fraction; both carry numerator and denominator.
    return IntervalSet._of([upper.numerator * c for c in cuts[: len(cuts) // 2 * 2]], upper.denominator * den)


def random_density(rng: random.Random, upper: Fraction) -> StepDensity:
    """A step density of one to three pieces on (0, upper]."""
    upper = Fraction(upper)
    k = rng.randint(1, 3)
    den = rng.choice(_DENOMINATORS)
    interior = sorted(rng.sample(range(1, den), k - 1)) if k > 1 else []
    breakpoints = [Fraction(0)] + [upper * c / den for c in interior] + [upper]
    values = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(k)]
    return StepDensity(tuple(breakpoints), tuple(values))


def random_comparable_pair(rng: random.Random, upper: Fraction) -> tuple[IntervalSet, IntervalSet]:
    """A strict pair w < z, forced comparable via meet and join."""
    for _ in range(50):
        u = random_interval_set(rng, upper)
        v = random_interval_set(rng, upper)
        w, z = intersect(u, v), union(u, v)
        if w != z:
            return w, z
    raise RuntimeError("could not generate a strict comparable pair")


def random_nested_quadruple(
    rng: random.Random, upper: Fraction
) -> tuple[IntervalSet, IntervalSet, IntervalSet, IntervalSet]:
    """(m, m_small, w, z) with m_small <= m and w <= z."""
    m = random_interval_set(rng, upper)
    m_small = intersect(m, random_interval_set(rng, upper))
    w = random_interval_set(rng, upper)
    z = union(w, random_interval_set(rng, upper))
    return m, m_small, w, z


def random_between(
    rng: random.Random, upper: Fraction, w: IntervalSet, z: IntervalSet
) -> IntervalSet:
    """A random element of the interval [w, z]."""
    return union(w, intersect(z, random_interval_set(rng, upper)))


def random_set_with_mass(rng: random.Random, density: StepDensity, target: Fraction) -> IntervalSet:
    """A random set whose density mass is exactly the target.

    Piece masses and gaps are laid out in mass space and mapped back through
    the exact inverse of the prefix-mass function, so the total is hit with
    no rounding anywhere.
    """
    target = Fraction(target)
    total = density.total
    if not 0 < target < total:
        raise ValueError(f"target mass {target} outside (0, {total})")
    k = rng.randint(1, 5)
    weights = [rng.randint(1, 9) for _ in range(k)]
    scale = sum(weights)
    masses = [target * wt / scale for wt in weights]
    gap_weights = [rng.randint(0, 9) for _ in range(k + 1)]
    gap_scale = sum(gap_weights) or 1
    budget = total - target
    gaps = [budget * gw / gap_scale for gw in gap_weights]
    pairs = []
    cursor = Fraction(0)
    for gap, mass in zip(gaps, masses):
        cursor += gap
        pairs.append((density.prefix_inverse(cursor), density.prefix_inverse(cursor + mass)))
        cursor += mass
    return normalize(pairs)
