from fractions import Fraction

import pytest
from hypothesis import given

from rglat.errors import IndeterminateFormError, PreconditionViolation
from rglat.finite import PlanePoint
from rglat.intervals import (
    Ambient,
    IntervalSet,
    PiecewiseLinearProfile,
    StepDensity,
    chief_element,
    normalize,
    profile_bundle,
)
from rglat.rank import NEG_INF, POS_INF, Rank, exact_fraction, format_fraction, parse_fraction
from rglat.regrading import IntervalRegrader, LevelCutset
from strategies import rationals


def test_total_order_with_infinities():
    assert NEG_INF < Rank(Fraction(-10**9)) < Rank(0) < Rank("3/2") < POS_INF
    assert not POS_INF < POS_INF
    assert NEG_INF <= NEG_INF


def unit_bundle():
    return profile_bundle(Ambient(2), IntervalSet.of((0, 1)), None)


FLOAT_ENTRY_POINTS = {
    "IntervalSet.of": lambda: IntervalSet.of((0, 0.1)),
    "normalize": lambda: normalize([(0.5, 1)]),
    "chief_element": lambda: chief_element(Ambient(2), 0.3),
    "PlanePoint.point": lambda: PlanePoint.point(0.1, 0),
    "Ambient": lambda: Ambient(2.0),
    "LevelCutset": lambda: LevelCutset(0.5),
    "StepDensity": lambda: StepDensity((0, 1, 2), (1, 2.5)),
    "Rank": lambda: Rank(0.5),
    "sweep step": lambda: IntervalRegrader(2, LevelCutset(1)).sweep_chief(0.25),
    "PiecewiseLinearProfile": lambda: PiecewiseLinearProfile((0, 0.5, 1), (0, 1, 2)),
    "value_at": lambda: unit_bundle().measure_meet.value_at(0.1),
    "min_level_at_value": lambda: unit_bundle().grade_meet.min_level_at_value(0.1),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
def test_float_is_refused_at_every_rational_entry_point(entry):
    # Fraction(0.1) has a 2**55 denominator, which would leak into every value.
    with pytest.raises(PreconditionViolation, match="float"):
        FLOAT_ENTRY_POINTS[entry]()


def test_exact_fraction_keeps_a_fraction_as_it_is():
    third = Fraction(1, 3)
    assert exact_fraction(third) is third
    assert exact_fraction("2/6") == third and exact_fraction(2) == 2


def test_float_rank_is_refused():
    with pytest.raises(PreconditionViolation, match="float"):
        Rank(0.5)
    assert Rank(1) == Rank("1/1") == Rank(Fraction(1))


def test_finite_arithmetic_is_exact():
    assert Rank("1/3") + Rank("1/6") == Rank("1/2")
    assert Rank("1/3") - Rank("1/6") == Rank("1/6")


def test_infinite_absorption():
    assert POS_INF + Rank(5) == POS_INF
    assert Rank(5) + NEG_INF == NEG_INF
    assert NEG_INF - Rank(100) == NEG_INF
    assert -POS_INF == NEG_INF


def test_indeterminate_form_is_an_error():
    with pytest.raises(IndeterminateFormError):
        POS_INF + NEG_INF
    with pytest.raises(IndeterminateFormError):
        POS_INF - POS_INF


@given(a=rationals(), b=rationals())
def test_addition_matches_fractions(a, b):
    assert Rank(a) + Rank(b) == a + b
    assert Rank(a) - Rank(b) == a - b


def test_fraction_strings_are_explicit():
    assert format_fraction(Fraction(2)) == "2/1"
    assert parse_fraction("2/1") == 2
    assert parse_fraction("2") == 2



@given(a=rationals(), b=rationals())
def test_finite_fast_paths_match_fractions(a, b):
    # A finite rank is the Fraction itself, so its arithmetic is Fraction's.
    for value, expected in (
        (Rank(a) + Rank(b), a + b),
        (Rank(a) - Rank(b), a - b),
        (-Rank(a), -a),
        (Rank(a) + b, a + b),
        (Rank(a) - b, a - b),
        (b - Rank(a), b - a),
        (1 - Rank(a), 1 - a),
    ):
        assert type(value) is Fraction and value == expected


def test_infinite_arithmetic_is_unchanged():
    for indeterminate in (
        lambda: POS_INF - POS_INF,
        lambda: NEG_INF - NEG_INF,
        lambda: POS_INF + NEG_INF,
        lambda: NEG_INF + POS_INF,
        lambda: POS_INF + (-POS_INF),
    ):
        with pytest.raises(IndeterminateFormError):
            indeterminate()
    assert -POS_INF is NEG_INF and -NEG_INF is POS_INF
    assert POS_INF - NEG_INF == POS_INF and NEG_INF - POS_INF == NEG_INF
    assert Rank(3) - POS_INF == NEG_INF and 3 - POS_INF == NEG_INF
    assert POS_INF - 3 == POS_INF and Rank(3) + POS_INF == POS_INF


def test_rank_accepts_int_str_and_fraction():
    third = Fraction(1, 3)
    assert Rank(third) is third  # kept as it is
    assert Rank(2) == 2 and type(Rank(2)) is Fraction
    assert Rank("2/6") == third and type(Rank("2/6")) is Fraction
    assert Rank(POS_INF) is POS_INF and Rank(NEG_INF) is NEG_INF
    with pytest.raises(ValueError):
        Rank("one third")


@given(q=rationals())
def test_finite_rank_hashes_like_its_fraction(q):
    assert hash(Rank(q)) == hash(q)
    assert q in {Rank(q)} and Rank(q) in {q}
    assert {Rank(q): "rank"}.get(q) == "rank" and {q: "fraction"}.get(Rank(q)) == "fraction"
    assert len({Rank(q), q}) == 1
    if q.denominator == 1:
        assert {Rank(q): "rank"}.get(q.numerator) == "rank"
    assert POS_INF not in {q} and NEG_INF not in {q: None}


def test_infinities_hash_apart_and_stay_fixed():
    assert hash(POS_INF) != hash(NEG_INF)
    assert hash(-NEG_INF) == hash(POS_INF) and hash(POS_INF + 5) == hash(POS_INF)
    assert len({POS_INF, NEG_INF, Rank(0), Fraction(0), 0}) == 3
