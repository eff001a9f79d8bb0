"""Shared hypothesis strategies."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from rglat.finite import SetPartition
from rglat.intervals import IntervalSet, StepDensity, normalize

DENOMINATORS = (4, 8, 16, 32)


@st.composite
def interval_sets(draw, upper: Fraction = Fraction(2), max_pieces: int = 3) -> IntervalSet:
    den = draw(st.sampled_from(DENOMINATORS))
    k = draw(st.integers(0, min(max_pieces, (den + 1) // 2)))
    if k == 0:
        return IntervalSet(())
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=2 * k, max_size=2 * k, unique=True)))
    pairs = [
        (upper * lo / den, upper * hi / den)
        for lo, hi in zip(cuts[::2], cuts[1::2])
        if lo < hi
    ]
    return normalize(pairs)


@st.composite
def step_densities(draw, upper: Fraction = Fraction(2), max_pieces: int = 3) -> StepDensity:
    den = draw(st.sampled_from(DENOMINATORS))
    k = draw(st.integers(1, max_pieces))
    interior = sorted(draw(st.lists(st.integers(1, den - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    breakpoints = [Fraction(0)] + [upper * c / den for c in interior] + [upper]
    values = [
        Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
        for _ in range(k)
    ]
    return StepDensity(tuple(breakpoints), tuple(values))


# Endpoints over these denominators give lcms of up to 6720 in one set, and
# more between sets.
MIXED_DENOMINATORS = (3, 5, 6, 7, 12, 64)
ODD_DENSITY_VALUES = (Fraction(3, 7), Fraction(5, 3), Fraction(2, 5), Fraction(7, 12), Fraction(1), Fraction(4))


def mixed_points(lower: int, upper: int):
    """Rationals in [lower, upper], each over a denominator from MIXED_DENOMINATORS."""
    return st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda den: st.integers(lower * den, upper * den).map(lambda k: Fraction(k, den))
    )


@st.composite
def mixed_interval_sets(draw, lower: int = 0, upper: int = 2, max_pieces: int = 4) -> IntervalSet:
    """A canonical set in (lower, upper] whose endpoints mix denominators.

    Built through the checked constructor, not ``normalize``, so the kernels
    under test do not build their own inputs.
    """
    k = draw(st.integers(0, max_pieces))
    ends = sorted(draw(st.lists(mixed_points(lower, upper), min_size=2 * k, max_size=2 * k, unique=True)))
    return IntervalSet(tuple(zip(ends[::2], ends[1::2])))


@st.composite
def odd_step_densities(draw, upper: int = 2, max_pieces: int = 3) -> StepDensity:
    """A step density with breakpoints over mixed denominators and values like 3/7."""
    k = draw(st.integers(1, max_pieces))
    interior = draw(
        st.lists(mixed_points(0, upper).filter(lambda x: 0 < x < upper), min_size=k - 1, max_size=k - 1, unique=True)
    )
    values = draw(st.lists(st.sampled_from(ODD_DENSITY_VALUES), min_size=k, max_size=k))
    return StepDensity(tuple([Fraction(0), *sorted(interior), Fraction(upper)]), tuple(values))


@st.composite
def prefix_inverse_sets(draw, density: StepDensity, max_pieces: int = 3) -> IntervalSet:
    """A canonical set whose endpoints are ``density.prefix_inverse`` of mixed fractions of its total."""
    k = draw(st.integers(0, max_pieces))
    shares = sorted(draw(st.lists(mixed_points(0, 1), min_size=2 * k, max_size=2 * k, unique=True)))
    # prefix_inverse strictly increases for a strictly positive density.
    ends = [density.prefix_inverse(density.total * t) for t in shares]
    return IntervalSet(tuple(zip(ends[::2], ends[1::2])))


def mixed_sets():
    """Sets in (0, 2] over dyadic, mixed or prefix-inverse endpoints."""
    return st.one_of(
        interval_sets(),
        mixed_interval_sets(),
        odd_step_densities().flatmap(prefix_inverse_sets),
    )


@st.composite
def raw_pairs(draw, lower: int = 0, upper: int = 2, max_pairs: int = 6) -> list[tuple[Fraction, Fraction]]:
    """Nonempty (a, b] pairs in no order, drawn from a few shared points so they overlap and touch."""
    pool = sorted(draw(st.lists(mixed_points(lower, upper), min_size=2, max_size=6, unique=True)))
    index_pairs = st.tuples(st.integers(0, len(pool) - 1), st.integers(0, len(pool) - 1)).filter(
        lambda ij: ij[0] < ij[1]
    )
    return [(pool[i], pool[j]) for i, j in draw(st.lists(index_pairs, max_size=max_pairs))]


@st.composite
def set_partitions(draw, n: int = 4) -> SetPartition:
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels, start=1):
        groups.setdefault(lab, []).append(i)
    return SetPartition.from_blocks(n, groups.values())


def rationals(lo: int = -4, hi: int = 4, max_den: int = 12):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_den)
