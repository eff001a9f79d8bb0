"""Every finite rank is a bare Fraction; the only other ranks are the infinities.

A finite rank is a ``Fraction``, never ``int`` or ``float``.  Only the
product plane and an adjoined top reach ``NEG_INF`` or ``POS_INF``.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given

from rglat.core import (
    ADJOINED_TOP,
    ChainSample,
    adjoin_bounds,
    lipschitz_scan,
    rank_modular_defect,
    updown_distance,
)
from rglat.errors import PreconditionViolation
from rglat.finite import (
    PlanePoint,
    boolean_family,
    partition_family,
    product_plane_lattice,
    subspace_family,
)
from rglat.intervals import Ambient, chief_element, interval_lattice
from rglat.limits import renormalized_rank, updown_metric
from rglat.rank import NEG_INF, POS_INF
from rglat.regrading import FiniteRegrader, LevelCutset

from strategies import interval_sets, step_densities

FAMILIES = [boolean_family(3), partition_family(4), subspace_family(2, 3)]
IDS = [fam.lattice.name for fam in FAMILIES]
AMBIENT2 = Ambient(Fraction(2))


def is_fraction(value) -> bool:
    return type(value) is Fraction


@pytest.mark.parametrize("family", FAMILIES, ids=IDS)
def test_finite_ranks_and_their_derived_values_are_fractions(family):
    lattice = family.lattice
    elems = family.elements()
    assert all(is_fraction(lattice.rank(x)) for x in elems)
    for x, y in itertools.product(elems, repeat=2):
        assert is_fraction(updown_distance(lattice, x, y))
        # Comparable pairs take the early exit; the rest are summed.
        assert is_fraction(rank_modular_defect(lattice, x, y))
    chain = family.chief
    assert all(is_fraction(r) for r in chain.ranks())
    for m in elems:
        for mode in ("meet", "join"):
            assert is_fraction(lipschitz_scan(lattice, chain, m, mode))
    regrader = FiniteRegrader(family, LevelCutset(Fraction(1)))
    assert all(is_fraction(regrader.regraded(z)) for z in elems)


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[2]], ids=[IDS[0], IDS[2]])
def test_renormalized_ranks_and_the_metric_are_fractions(family):
    elems = family.elements()
    assert all(is_fraction(renormalized_rank(x, family.n)) for x in elems)
    assert all(is_fraction(updown_metric(x, y)) for x, y in itertools.product(elems, repeat=2))


@given(u=interval_sets(), v=interval_sets(), density=step_densities())
def test_interval_ranks_are_fractions_under_measure_and_density(u, v, density):
    for lattice in (interval_lattice(AMBIENT2), interval_lattice(AMBIENT2, density)):
        assert is_fraction(lattice.rank(u))
        assert is_fraction(updown_distance(lattice, u, v))
        assert is_fraction(rank_modular_defect(lattice, u, v))


def test_interval_lipschitz_scan_is_a_fraction():
    lattice = interval_lattice(AMBIENT2)
    chain = ChainSample.from_elements(lattice, [chief_element(AMBIENT2, Fraction(k, 4)) for k in range(9)])
    assert is_fraction(lipschitz_scan(lattice, chain, chief_element(AMBIENT2, 1), "meet"))


def test_plane_ranks_are_fractions_or_the_infinities():
    lattice = product_plane_lattice()
    assert lattice.rank(PlanePoint.bottom()) is NEG_INF
    assert is_fraction(lattice.rank(PlanePoint.point(1, Fraction(1, 2))))
    assert lattice.rank(PlanePoint.top()) is POS_INF


def test_adjoined_top_ranks_are_fractions_or_the_infinity():
    unbounded = interval_lattice(Ambient(None))
    assert adjoin_bounds(unbounded, top_rank=POS_INF).rank(ADJOINED_TOP) is POS_INF
    for top_rank in (5, "5", Fraction(7, 2)):
        lattice = adjoin_bounds(unbounded, top_rank=top_rank)
        assert is_fraction(lattice.rank(lattice.top))
        assert is_fraction(lattice.rank(chief_element(Ambient(None), 1)))


def test_lipschitz_scan_refuses_a_chain_through_an_infinite_top():
    unbounded = Ambient(None)
    lattice = adjoin_bounds(interval_lattice(unbounded), top_rank=POS_INF)
    chain = ChainSample.from_elements(
        lattice, [chief_element(unbounded, 0), chief_element(unbounded, 1), ADJOINED_TOP]
    )
    for mode in ("meet", "join"):
        with pytest.raises(PreconditionViolation):
            lipschitz_scan(lattice, chain, chief_element(unbounded, 2), mode)
    # A finite chain joined with the top reads +inf, and is refused the same way.
    finite_chain = ChainSample(chain.points[:2])
    assert lipschitz_scan(lattice, finite_chain, ADJOINED_TOP, "meet") == 1
    with pytest.raises(PreconditionViolation):
        lipschitz_scan(lattice, finite_chain, ADJOINED_TOP, "join")
