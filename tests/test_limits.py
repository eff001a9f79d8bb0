from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rglat.errors import PreconditionViolation, SizeCapExceeded
from rglat.finite import (
    BitSubset,
    SetPartition,
    Subspace,
    boolean_family,
    boolean_lattice,
    partition_family,
    subspace_lattice,
)
from rglat.core import CheckResult, updown_distance
from rglat.intervals import EMPTY, Ambient, IntervalSet, interval_lattice, measure
from rglat.limits import (
    BOOLEAN_TOWER,
    F2_SUBSPACE_TOWER,
    CauchyReport,
    CauchyRow,
    EmbeddingFamily,
    boolean_to_interval,
    cauchy_approx,
    coherence_check,
    embed_boolean,
    embed_subspace,
    embedding_check,
    updown_metric,
)
from rglat.rank import Rank

from oracle_helpers import grid_measure


def bits(n, *members):
    return BitSubset.from_members(n, members)


def embed_partition(x: SetPartition, n: int) -> SetPartition:
    """The diagonal embedding: block B of [k] becomes its copies B + j*k, j < n/k."""
    k = x.n
    copies = [[b + j * k for b in block] for j in range(n // k) for block in x.blocks]
    return SetPartition.from_blocks(n, copies)


PARTITIONS = EmbeddingFamily(partition_family, embed_partition)


def reverse(s: BitSubset) -> BitSubset:
    """The automorphism of [n] taking member i to member n + 1 - i."""
    return BitSubset.from_members(s.n, [s.n + 1 - i for i in s.members()])


def broken_at(level: int, **ops) -> EmbeddingFamily:
    """The Boolean tower with some lattice operations of one level replaced."""

    def at(m: int):
        family = boolean_family(m)
        return replace(family, lattice=replace(family.lattice, **ops)) if m == level else family

    return EmbeddingFamily(at, embed_boolean)


class TestRenormalizedRank:
    """Rank over level: the rank of the level's lattice, divided by the level."""

    def test_half_of_four(self):
        assert boolean_lattice(4).rank(bits(4, 1, 3)) / 4 == Rank("1/2")

    def test_three_quarters_in_dimension_four(self):
        w = Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert subspace_lattice(2, 4).rank(w) / 4 == Rank("3/4")

    def test_bottom_and_top(self):
        assert boolean_lattice(4).rank(BitSubset(4, 0)) / 4 == Rank(0)
        assert boolean_lattice(4).rank(BitSubset(4, 15)) / 4 == Rank(1)


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
        assert boolean_lattice(n).rank(embed_boolean(s, n)) / n == boolean_lattice(4).rank(s) / 4


class TestSubspaceEmbedding:
    def test_line_becomes_two_coordinates(self):
        w = Subspace.from_rows(2, 2, [[1, 0]])
        image = embed_subspace(w, 4)
        assert image == Subspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert subspace_lattice(2, 4).rank(image) / 4 == subspace_lattice(2, 2).rank(w) / 2 == Rank("1/2")

    def test_zero_space(self):
        assert embed_subspace(Subspace.zero(2, 2), 4) == Subspace.zero(2, 4)

    def test_lattice_operations_preserved_exhaustively(self):
        lattice2 = F2_SUBSPACE_TOWER.at(2).lattice
        lattice4 = F2_SUBSPACE_TOWER.at(4).lattice
        elems = F2_SUBSPACE_TOWER.at(2).elements()
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
        res = coherence_check(BOOLEAN_TOWER, 2, 4, 8)
        assert res.ok and res.checked == 4

    def test_identity_composition(self):
        assert coherence_check(BOOLEAN_TOWER, 4, 4, 8).ok

    def test_subspace_tower(self):
        res = coherence_check(F2_SUBSPACE_TOWER, 1, 2, 4)
        assert res.ok and res.checked == 2

    def test_divisibility_misuse(self):
        with pytest.raises(PreconditionViolation):
            coherence_check(BOOLEAN_TOWER, 2, 3, 6)

    def test_level_above_the_element_cap(self):
        with pytest.raises(SizeCapExceeded):
            BOOLEAN_TOWER.at(13)

    @pytest.mark.parametrize("k, m, n", [(1, 2, 4), (1, 3, 6)])
    def test_partition_tower(self, k, m, n):
        res = coherence_check(PARTITIONS, k, m, n)
        assert res.ok and res.checked == len(partition_family(k).elements())

    def test_reversed_block_order_is_not_coherent(self):
        # Reversal is an automorphism, so every level-wise check still passes.
        reversed_order = EmbeddingFamily(boolean_family, lambda s, n: embed_boolean(reverse(s), n))
        assert embedding_check(reversed_order, 2, 4).ok
        res = coherence_check(reversed_order, 2, 4, 8)
        assert (res.ok, res.checked, res.witness) == (False, 1, "coherence fails at BitSubset(2, {1})")


class TestEmbeddingCheck:
    def test_boolean_and_subspace_towers(self):
        assert embedding_check(BOOLEAN_TOWER, 2, 4) == CheckResult(True, 4 + 16)
        assert embedding_check(F2_SUBSPACE_TOWER, 2, 4) == CheckResult(True, 5 + 25)

    def test_partition_embedding_on_levels(self):
        for k, n in ((2, 4), (3, 6), (2, 6)):
            res = embedding_check(PARTITIONS, k, n)
            size = len(partition_family(k).elements())
            assert res.ok and res.checked == size + size * size, (k, n)

    def test_rank_witness(self):
        # The complement of the inflation reverses the order, so the bottom fails first.
        complement = EmbeddingFamily(
            boolean_family, lambda s, n: BitSubset(n, embed_boolean(s, n).mask ^ ((1 << n) - 1))
        )
        res = embedding_check(complement, 2, 4)
        assert (res.ok, res.checked, res.witness) == (False, 0, "rank not preserved at BitSubset(2, {})")

    def test_isometry_witness(self):
        padding = EmbeddingFamily(boolean_family, lambda s, n: BitSubset(n, s.mask))
        res = embedding_check(padding, 2, 4)
        assert (res.ok, res.checked) == (False, 2)
        assert res.witness == "not an isometry at (BitSubset(2, {}), BitSubset(2, {1}))"

    def test_meet_witness(self):
        res = embedding_check(broken_at(4, meet=lambda x, y: reverse(BitSubset(x.n, x.mask & y.mask))), 2, 4)
        assert (res.ok, res.checked) == (False, 7)
        assert res.witness == "meet not preserved at (BitSubset(2, {1}), BitSubset(2, {1}))"

    def test_join_witness(self):
        # A reversed join has the join's rank, so the metric still agrees.
        res = embedding_check(broken_at(4, join=lambda x, y: reverse(BitSubset(x.n, x.mask | y.mask))), 2, 4)
        assert (res.ok, res.checked) == (False, 2)
        assert res.witness == "join not preserved at (BitSubset(2, {}), BitSubset(2, {1}))"

    def test_divisibility_required(self):
        with pytest.raises(PreconditionViolation):
            embedding_check(PARTITIONS, 2, 5)


class TestUpDownMetric:
    def test_identity(self):
        x = bits(4, 1, 2)
        assert updown_metric(x, x) == Rank(0)

    def test_two_singletons(self):
        assert updown_metric(bits(4, 1), bits(4, 2)) == Rank("1/2")

    def test_embeddings_are_isometries(self):
        elems = BOOLEAN_TOWER.at(3).elements()
        for x in elems:
            for y in elems:
                assert updown_metric(embed_boolean(x, 6), embed_boolean(y, 6)) == updown_metric(x, y)

    def test_metric_axioms_exhaustive_level_three(self):
        elems = BOOLEAN_TOWER.at(3).elements()
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
            assert Rank(measure(boolean_to_interval(s))) == boolean_lattice(8).rank(s) / 8


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

    def test_bound_allows_two_cells_per_target_interval(self):
        target = IntervalSet.of((0, "1/3"))

        def report(cells):
            return CauchyReport(target, (CauchyRow(8, EMPTY, Fraction(cells, 8), None),))

        assert report(2).bound_ok
        assert not report(3).bound_ok

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
