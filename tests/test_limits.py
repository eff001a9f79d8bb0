from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rglat.errors import PreconditionViolation, SizeCapExceeded
from rglat.finite import BitSubset, Subspace, boolean_family
from rglat.core import updown_distance
from rglat.intervals import Ambient, IntervalSet, interval_lattice, measure
from rglat.limits import (
    EmbeddingFamily,
    boolean_to_interval,
    cauchy_approx,
    coherence_check,
    embed_boolean,
    embed_subspace,
    renormalized_rank,
    updown_metric,
)
from rglat.rank import Rank

from oracle_helpers import grid_measure

BOOLEANS = EmbeddingFamily("boolean")
SUBSPACES = EmbeddingFamily("subspace", p=2)


def bits(n, *members):
    return BitSubset.from_members(n, members)


class TestRenormalizedRank:
    def test_half_of_four(self):
        assert renormalized_rank(bits(4, 1, 3), 4) == Rank("1/2")

    def test_three_quarters_in_dimension_four(self):
        w = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert renormalized_rank(w, 4) == Rank("3/4")

    def test_bottom_and_top(self):
        assert renormalized_rank(BitSubset(4, 0), 4) == Rank(0)
        assert renormalized_rank(BitSubset(4, 15), 4) == Rank(1)

    def test_level_mismatch(self):
        with pytest.raises(PreconditionViolation):
            renormalized_rank(bits(4, 1), 8)


class TestBooleanEmbedding:
    def test_block_inflation_of_one(self):
        assert embed_boolean(bits(2, 1), 4) == bits(4, 1, 2)

    def test_empty_stays_empty(self):
        assert embed_boolean(BitSubset(2, 0), 8) == BitSubset(8, 0)

    def test_second_member_to_level_eight(self):
        # Pinned through the interval identification: member 2 of [2] is
        # (1/2, 1], which at level 8 is members 5..8.
        image = embed_boolean(bits(2, 2), 8)
        assert image == bits(8, 5, 6, 7, 8)
        assert boolean_to_interval(image) == boolean_to_interval(bits(2, 2))

    def test_divisibility_required(self):
        with pytest.raises(PreconditionViolation):
            embed_boolean(bits(2, 1), 5)

    @given(mask=st.integers(0, 15), n=st.sampled_from([4, 8, 12]))
    def test_rank_preserved(self, mask, n):
        s = BitSubset(4, mask)
        assert renormalized_rank(embed_boolean(s, n), n) == renormalized_rank(s, 4)


class TestSubspaceEmbedding:
    def test_line_becomes_two_coordinates(self):
        w = Subspace.from_rows(2, 2, [[1, 0]])
        image = embed_subspace(w, 4)
        assert image == Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert renormalized_rank(image, 4) == renormalized_rank(w, 2) == Rank("1/2")

    def test_zero_space(self):
        assert embed_subspace(Subspace.zero(2, 2), 4) == Subspace.zero(2, 4)

    def test_lattice_operations_preserved_exhaustively(self):
        lattice2 = SUBSPACES.at(2).lattice
        lattice4 = SUBSPACES.at(4).lattice
        elems = SUBSPACES.at(2).elements()
        for x in elems:
            for y in elems:
                fx, fy = embed_subspace(x, 4), embed_subspace(y, 4)
                assert lattice4.meet(fx, fy) == embed_subspace(lattice2.meet(x, y), 4)
                assert lattice4.join(fx, fy) == embed_subspace(lattice2.join(x, y), 4)

    def test_field_and_divisibility_checks(self):
        with pytest.raises(PreconditionViolation):
            embed_subspace(Subspace.zero(2, 2), 3)


class TestCoherence:
    def test_boolean_tower(self):
        res = coherence_check(BOOLEANS, 2, 4, 8)
        assert res.ok and res.checked == 4

    def test_identity_composition(self):
        assert coherence_check(BOOLEANS, 4, 4, 8).ok

    def test_subspace_tower(self):
        res = coherence_check(SUBSPACES, 1, 2, 4)
        assert res.ok and res.checked == 2

    def test_divisibility_misuse(self):
        with pytest.raises(PreconditionViolation):
            coherence_check(BOOLEANS, 2, 3, 6)

    def test_level_above_the_element_cap(self):
        with pytest.raises(SizeCapExceeded):
            BOOLEANS.at(13)


class TestUpDownMetric:
    def test_identity(self):
        x = bits(4, 1, 2)
        assert updown_metric(x, x) == Rank(0)

    def test_two_singletons(self):
        assert updown_metric(bits(4, 1), bits(4, 2)) == Rank("1/2")

    def test_embeddings_are_isometries(self):
        elems = BOOLEANS.at(3).elements()
        for x in elems:
            for y in elems:
                assert updown_metric(embed_boolean(x, 6), embed_boolean(y, 6)) == updown_metric(x, y)

    def test_metric_axioms_exhaustive_level_three(self):
        elems = BOOLEANS.at(3).elements()
        zero = Rank(0)
        for x in elems:
            for y in elems:
                d = updown_metric(x, y)
                assert d >= zero
                assert (d == zero) == (x == y)
                assert d == updown_metric(y, x)
                for z in elems:
                    assert updown_metric(x, z) <= updown_metric(x, y) + updown_metric(y, z)

    def test_level_mismatch(self):
        with pytest.raises(PreconditionViolation):
            updown_metric(bits(2, 1), bits(4, 1))


class TestBooleanToInterval:
    def test_first_member_at_level_two(self):
        assert boolean_to_interval(bits(2, 1)) == IntervalSet.of((0, "1/2"))

    def test_full_set_is_the_unit_interval(self):
        assert boolean_to_interval(BitSubset(4, 15)) == IntervalSet.of((0, 1))

    def test_naturality_exhaustive(self):
        for mask in range(4):
            s = BitSubset(2, mask)
            assert boolean_to_interval(embed_boolean(s, 4)) == boolean_to_interval(s)

    @given(mask=st.integers(0, 255))
    def test_measure_is_renormalized_rank(self, mask):
        s = BitSubset(8, mask)
        if mask:
            assert Rank(measure(boolean_to_interval(s))) == renormalized_rank(s, 8)


class TestCauchyApprox:
    def test_one_third_distances_shrink(self):
        target = IntervalSet.of((0, "1/3"))
        report = cauchy_approx(target, [2 ** i for i in range(1, 9)])
        dists = [row.distance_to_target for row in report.rows]
        assert all(b <= a for a, b in zip(dists, dists[1:]))
        assert report.bound_ok
        assert dists[-1] == Fraction(1, 768)
        assert dists[-1] <= Fraction(2, 256)

    def test_distance_definition_matches_measure_deficit(self):
        target = IntervalSet.of((0, "1/3"))
        report = cauchy_approx(target, [4])
        row = report.rows[0]
        assert row.approximant == IntervalSet.of((0, "1/4"))
        assert row.distance_to_target == grid_measure(
            [(Fraction(1, 4), Fraction(1, 3))], lo=Fraction(0), hi=Fraction(1)
        )

    def test_dyadic_target_exact_from_its_level(self):
        target = IntervalSet.of(("1/4", "3/4"))
        report = cauchy_approx(target, [4, 8, 16])
        assert all(row.distance_to_target == 0 for row in report.rows)

    def test_thirds_exact_on_aligned_levels(self):
        target = IntervalSet.of(("1/3", "2/3"))
        report = cauchy_approx(target, [3, 6, 12, 24])
        assert all(row.distance_to_target == 0 for row in report.rows)

    def test_level_chain_validation(self):
        target = IntervalSet.of((0, "1/2"))
        with pytest.raises(PreconditionViolation):
            cauchy_approx(target, [2, 3])
        with pytest.raises(PreconditionViolation):
            cauchy_approx(target, [4, 2])
        with pytest.raises(PreconditionViolation):
            cauchy_approx(IntervalSet.of((0, 2)), [2, 4])

    def test_interval_updown_symmetric_difference(self):
        u = IntervalSet.of((0, "1/2"))
        v = IntervalSet.of(("1/4", "3/4"))
        assert updown_distance(interval_lattice(Ambient(Fraction(1))), u, v) == Rank("1/2")
