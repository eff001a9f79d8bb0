"""The monotone-limit hypothesis reports against a hand-computed oracle.

The oracle writes out the plane's entrywise min and max, and the measure of
an interval's overlap with the target (-1, 1], so it shares no code with the
lattices the reports scan.  Each oracle maps a condition name to its rows
and the value at the chain's limit; an inf condition of the line has no
rows, because measure is bounded below.
"""

from fractions import Fraction

import pytest

from rglat.core import adjoin_bounds
from rglat.finite import PlanePoint, product_plane_lattice
from rglat.intervals import Ambient, IntervalSet, chief_element, interval_lattice
from rglat.rank import NEG_INF, POS_INF
from rglat.limits import (
    CONDITION_NAMES,
    LimitCondition,
    _scan,
    hypothesis_line_sets,
    hypothesis_product_plane,
)

F = Fraction
# Each set reaches past the point where the chief scans attain their limit
# value (b >= 1 on the plane, k >= 2 on the line).
WIDE_PARAMS = [
    (F(1, 1000), F(1, 3), F(1), F(7, 2), F(10**6)),
    (F(2), F(3), F(5, 2)),
    (F(1, 7), F(9, 4), F(10**12)),
]


def oracle_plane(params):
    """Probe (1, 0) against (0, b) and (b, 0); probe (-1, 0) against (0, -b) and (-b, 0)."""
    return {
        "chain-meet-sup": ([(b, min(F(0), F(1)) + min(b, F(0))) for b in params], F(1)),
        "chain-join-inf": ([(b, max(F(0), F(-1)) + max(-b, F(0))) for b in params], F(-1)),
        "chief-meet-sup": ([(b, min(b, F(1)) + min(F(0), F(0))) for b in params], F(1)),
        "chief-join-inf": ([(b, max(-b, F(-1)) + max(F(0), F(0))) for b in params], F(-1)),
    }


def overlap(lo, hi):
    """Measure of (lo, hi] intersected with (-1, 1]."""
    return max(F(0), min(hi, F(1)) - max(lo, F(-1)))


def oracle_line(far, chief):
    """The target (-1, 1] against (1, 1+k] and the chief members (-k/2, k/2]."""
    target = overlap(F(-1), F(1))
    return {
        "chain-meet-sup": ([(k, overlap(F(1), 1 + k)) for k in far], target),
        "chain-join-inf": ([], None),
        "chief-meet-sup": ([(k, overlap(-k / 2, k / 2)) for k in chief], target),
        "chief-join-inf": ([], None),
    }


def oracle_failing(conditions):
    failing = []
    for name, (rows, target) in conditions.items():
        if rows:
            scan = (max if name.endswith("-sup") else min)(v for _, v in rows)
            if scan != target:
                failing.append(name)
    return tuple(failing)


def as_oracle(report):
    return {c.name: (list(c.rows), c.target_value) for c in report.conditions}


def test_plane_report_matches_the_oracle():
    report = hypothesis_product_plane()
    expected = oracle_plane((F(1), F(10), F(100)))
    assert as_oracle(report) == expected
    assert report.failing == oracle_failing(expected) == ("chain-meet-sup", "chain-join-inf")


def test_line_report_matches_the_oracle():
    report = hypothesis_line_sets()
    expected = oracle_line((F(1), F(10), F(1000)), tuple(map(F, range(1, 5))))
    assert as_oracle(report) == expected
    assert report.failing == oracle_failing(expected) == ("chain-meet-sup",)


@pytest.mark.parametrize("params", WIDE_PARAMS)
def test_plane_scans_match_the_oracle_on_wider_chains(params):
    lattice = product_plane_lattice()
    point = PlanePoint.point
    up, down = point(1, 0), point(-1, 0)
    chains = {
        "chain-meet-sup": (up, {b: point(0, b) for b in params}, lattice.top),
        "chain-join-inf": (down, {b: point(0, -b) for b in params}, lattice.bottom),
        "chief-meet-sup": (up, {b: point(b, 0) for b in params}, lattice.top),
        "chief-join-inf": (down, {b: point(-b, 0) for b in params}, lattice.bottom),
    }
    scanned = {name: _scan(name, lattice, *chains[name]) for name in CONDITION_NAMES}
    expected = oracle_plane(params)
    assert {name: (list(c.rows), c.target_value) for name, c in scanned.items()} == expected
    failing = tuple(name for name, c in scanned.items() if not c.holds)
    assert failing == oracle_failing(expected) == hypothesis_product_plane().failing


@pytest.mark.parametrize("params", WIDE_PARAMS)
def test_line_scans_match_the_oracle_on_wider_chains(params):
    ambient = Ambient(None)
    lattice = adjoin_bounds(interval_lattice(ambient), POS_INF)
    target = IntervalSet(((F(-1), F(1)),))
    far = _scan("chain-meet-sup", lattice, target, {k: IntervalSet(((F(1), 1 + k),)) for k in params}, lattice.top)
    chief = _scan("chief-meet-sup", lattice, target, {k: chief_element(ambient, k) for k in params}, lattice.top)
    expected = oracle_line(params, params)
    assert (list(far.rows), far.target_value) == expected["chain-meet-sup"]
    assert (list(chief.rows), chief.target_value) == expected["chief-meet-sup"]
    assert not far.holds and chief.holds
    assert oracle_failing(expected) == hypothesis_line_sets().failing


def negate(x: PlanePoint) -> PlanePoint:
    """The plane's self-duality (a, b) -> (-a, -b); it swaps -inf and +inf."""
    return PlanePoint(-x.a, -x.b)


def test_negation_maps_meets_to_joins_and_negates_ranks():
    lattice = product_plane_lattice()
    points = [PlanePoint.point(a, b) for a in (-2, F(-1, 3), 0, 5) for b in (-7, 0, F(1, 2))]
    points += [lattice.bottom, lattice.top]
    assert negate(lattice.top) == lattice.bottom and negate(lattice.bottom) == lattice.top
    for x in points:
        assert lattice.rank(negate(x)) == -lattice.rank(x)
        for y in points:
            assert negate(lattice.meet(x, y)) == lattice.join(negate(x), negate(y))
            assert negate(lattice.join(x, y)) == lattice.meet(negate(x), negate(y))


def test_plane_join_rows_are_the_negated_meet_rows():
    chain_meet, chain_join, chief_meet, chief_join = hypothesis_product_plane().conditions
    for meet, join in ((chain_meet, chain_join), (chief_meet, chief_join)):
        assert join.rows == tuple((b, -v) for b, v in meet.rows)
        assert join.target_value == -meet.target_value
        assert join.scan_value == -meet.scan_value
        assert join.holds == meet.holds


def test_a_condition_derives_its_scan_value_and_verdict():
    rows = ((F(1), F(3)), (F(2), F(1)))
    assert LimitCondition("x-inf", rows, F(1)).scan_value == F(1)
    assert LimitCondition("x-inf", rows, F(1)).holds
    assert LimitCondition("x-sup", rows, F(1)).scan_value == F(3)
    assert not LimitCondition("x-sup", rows, F(1)).holds
    vacuous = LimitCondition("x-sup")
    assert vacuous.vacuous and vacuous.holds and vacuous.scan_value is None
    assert LimitCondition("x-sup", ((F(1), NEG_INF),), NEG_INF).holds
