import dataclasses
import functools
import gc
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

from rglat.core import GradedLattice, rank_modular_defect
from rglat.errors import AmbientMismatch, CutsetError, LatticeError, PreconditionViolation, SizeCapExceeded
from rglat.finite import (
    BitSubset,
    PlanePoint,
    SetPartition,
    FiniteFamily,
    Subspace,
    boolean_family,
    chief_chain,
    element_from_json,
    element_to_json,
    enumerate_maximal_chains,
    partition_family,
    product_plane_lattice,
    rank_layers,
    rank_modular_elements,
    semimodularity_gap,
    subspace_family,
)
from rglat.limits import hypothesis_product_plane
from rglat.rank import NEG_INF, POS_INF, Rank
from rglat.regrading import ExplicitCutset, FiniteRegrader, LevelCutset

from oracle_helpers import (
    antichain_cutsets,
    bare_order,
    blocks_of,
    boolean_cutsets_bruteforce,
    count_maximal_chains,
    oracle_partition_join,
    oracle_partition_meet,
    partition_rank,
    refines,
    rgs_partitions,
    span,
    subspace_count,
)
from strategies import set_partitions

ZERO = Rank(0)


def part(*blocks):
    return SetPartition.from_blocks(4, blocks)


class TestMeetJoinRank:
    def test_partition_join_example(self):
        lattice = partition_family(4).lattice
        x = part([1, 3], [2], [4])
        y = part([1, 2], [3], [4])
        join = lattice.join(x, y)
        parts = rgs_partitions(4)
        assert blocks_of(lattice.meet(x, y)) == oracle_partition_meet(parts, blocks_of(x), blocks_of(y))
        assert blocks_of(join) == oracle_partition_join(parts, blocks_of(x), blocks_of(y))
        assert join == part([1, 2, 3], [4])
        assert (lattice.rank(x), lattice.rank(y)) == (Rank(1), Rank(1))

    def test_independent_lines_meet_in_zero(self):
        lattice = subspace_family(2, 3).lattice
        e1 = Subspace.from_rows(2, 3, [[1, 0, 0]])
        e2 = Subspace.from_rows(2, 3, [[0, 1, 0]])
        assert lattice.meet(e1, e2) == Subspace.zero(2, 3)
        assert lattice.join(e1, e2).dimension() == 2

    def test_boolean_set_algebra(self):
        lattice = boolean_family(4).lattice
        x = BitSubset.from_members(4, [1, 2])
        y = BitSubset.from_members(4, [2, 3])
        assert lattice.meet(x, y).members() == (2,)
        assert lattice.join(x, y).members() == (1, 2, 3)

    def test_ambient_mismatch_is_reported(self):
        lattice = boolean_family(4).lattice
        with pytest.raises(AmbientMismatch):
            lattice.meet(BitSubset(4, 1), BitSubset(3, 1))
        with pytest.raises(AmbientMismatch):
            partition_family(4).lattice.join(part([1, 2, 3, 4]), SetPartition.discrete(3))
        with pytest.raises(AmbientMismatch):
            subspace_family(2, 2).lattice.meet(Subspace.zero(2, 2), Subspace.zero(3, 2))


class TestCanonicalForms:
    @given(p=set_partitions())
    def test_partition_canonicalization_is_idempotent(self, p):
        assert SetPartition.from_blocks(p.n, p.blocks) == p

    def test_partition_blocks_sorted_by_minimum(self):
        p = SetPartition.from_blocks(4, [[4, 2], [3, 1]])
        assert p.blocks == ((1, 3), (2, 4))

    def test_rref_is_idempotent(self):
        w = Subspace.from_rows(2, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert Subspace.from_rows(2, 3, w.rows) == w
        assert w.dimension() == 2

    def test_non_canonical_inputs_rejected(self):
        with pytest.raises(PreconditionViolation):
            SetPartition(4, ((2, 1), (3, 4)))
        with pytest.raises(PreconditionViolation):
            Subspace(2, 2, ((1, 1), (1, 0)))
        with pytest.raises(PreconditionViolation):
            Subspace(4, 2, ())  # composite field size

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SetPartition(3, ((1, 2), (2, 3))),
            lambda: SetPartition(3, ((1, 1), (2,), (3,))),
            lambda: SetPartition(2, ((True, 2),)),
            lambda: SetPartition.from_blocks(3, [[1.0, 2], [3]]),
            lambda: Subspace(2, 3, ((0, 1, 0, 1),)),
            lambda: Subspace(2, 2, ((1, 0.0),)),
            lambda: Subspace.from_rows(2, 3, [[1]]),
            lambda: Subspace.from_rows(2, 2, [[False, 1]]),
            lambda: BitSubset.from_members(3, [True, 2]),
            lambda: BitSubset.from_members(3, [1.0]),
        ],
        ids=[
            "partition-overlap", "partition-member-twice", "partition-bool-member", "partition-float-member",
            "subspace-long-row", "subspace-float-entry", "subspace-short-row", "subspace-bool-entry",
            "boolean-bool-member", "boolean-float-member",
        ],
    )
    def test_malformed_members_and_rows_rejected(self, build):
        with pytest.raises(PreconditionViolation):
            build()

    def test_field_size_is_bounded_before_the_primality_test(self):
        # 10**12 + 39 is prime; testing it by trial division takes about 0.1 s.
        with pytest.raises(PreconditionViolation, match="element cap"):
            Subspace(10**12 + 39, 2, ())


class TestEnumerations:
    def test_boolean_chain_counts(self):
        assert len(enumerate_maximal_chains(boolean_family(3))) == 6
        assert len(enumerate_maximal_chains(boolean_family(4))) == 24

    def test_partition_chain_counts_match_order_oracle(self):
        for n, expected in ((3, 3), (4, 18)):
            fam = partition_family(n)
            got = len(enumerate_maximal_chains(fam))
            oracle = count_maximal_chains(
                fam.elements(), lambda x, y: refines(blocks_of(x), blocks_of(y))
            )
            assert got == oracle
            assert got == expected

    def test_chains_are_saturated(self):
        fam = partition_family(4)
        for chain in enumerate_maximal_chains(fam):
            ranks = [fam.lattice.rank(e) for e in chain]
            assert ranks == [Fraction(i) for i in range(4)]

    def test_chain_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr("rglat.finite.MAX_CHAINS", 5)
        with pytest.raises(SizeCapExceeded):
            enumerate_maximal_chains(boolean_family(4))

    def test_element_cap_is_enforced(self):
        # 2^13 = 8192 elements exceed the cap of 6000.
        with pytest.raises(SizeCapExceeded):
            boolean_family(13)

    @pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (2, 4), (3, 3), (2, 5), (5, 3), (13, 3)])
    def test_subspace_count_matches_the_gaussian_binomials(self, p, n):
        elems = subspace_family(p, n).elements()
        # Bases are canonical, so distinct elements of the right count are all subspaces.
        assert len(set(elems)) == len(elems) == subspace_count(p, n)
        assert elems == sorted(elems, key=lambda s: (s.dimension(), s.rows))

    def test_subspace_cap_is_enforced(self, monkeypatch):
        # F_2^3 has 16 subspaces; F_13^4 has 33,704, far past the cap of 6000.
        with pytest.raises(SizeCapExceeded):
            subspace_family(13, 4).elements()
        monkeypatch.setattr("rglat.finite.MAX_ELEMENTS", 16)
        assert len(subspace_family(2, 3).elements()) == 16
        monkeypatch.setattr("rglat.finite.MAX_ELEMENTS", 15)
        with pytest.raises(SizeCapExceeded):
            subspace_family(2, 3).elements()

    @pytest.mark.parametrize("build, n", [(partition_family, 100_000), (boolean_family, 10**7)])
    def test_ground_size_is_checked_before_anything_is_built(self, build, n):
        tracemalloc.start()
        try:
            with pytest.raises(LatticeError):
                build(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


SEMIMODULAR = {
    **{f"boolean-{n}": functools.partial(boolean_family, n) for n in range(1, 5)},
    **{f"partition-{n}": functools.partial(partition_family, n) for n in range(1, 5)},
    "subspace-F2^2": functools.partial(subspace_family, 2, 2),
    "subspace-F2^3": functools.partial(subspace_family, 2, 3),
    "subspace-F3^2": functools.partial(subspace_family, 3, 2),
}


def dual_family(fam: FiniteFamily) -> FiniteFamily:
    """The order dual: meet and join swapped, rank measured down from the top."""
    lattice = fam.lattice
    height = lattice.rank(lattice.top)
    dual = GradedLattice(
        name=f"dual-{lattice.name}",
        meet=lattice.join,
        join=lattice.meet,
        rank=lambda x: height - lattice.rank(x),
        bottom=lattice.top,
        top=lattice.bottom,
    )
    return dataclasses.replace(fam, lattice=dual, chief_elements=lambda: fam.chief_elements()[::-1])


class TestAntichainCutsets:
    def test_b2_matches_bruteforce_oracle(self):
        fam = boolean_family(2)
        got = {
            frozenset(frozenset(e.members()) for e in cutset)
            for cutset in antichain_cutsets(fam.elements(), bare_order("boolean"))
        }
        assert got == boolean_cutsets_bruteforce(2)
        assert len(got) == 3

    def test_level_sets_are_always_returned(self):
        fam = boolean_family(3)
        cutsets = antichain_cutsets(fam.elements(), bare_order("boolean"))
        as_sets = [set(c) for c in cutsets]
        for r in range(4):
            level = {e for e in fam.elements() if e.cardinality() == r}
            assert level in as_sets

    def test_every_cutset_meets_every_chain(self):
        fam = boolean_family(3)
        chains = [set(c) for c in enumerate_maximal_chains(fam)]
        for cutset in antichain_cutsets(fam.elements(), bare_order("boolean")):
            members = set(cutset)
            assert all(members & chain for chain in chains)


class TestSemimodularity:
    @pytest.mark.parametrize("build", SEMIMODULAR.values(), ids=SEMIMODULAR.keys())
    def test_certified_families_have_only_level_cutsets(self, build):
        fam = build()
        assert semimodularity_gap(fam) is None
        cutsets = antichain_cutsets(fam.elements(), bare_order(fam.kind))
        levels = rank_layers(fam).values()
        assert {frozenset(c) for c in cutsets} == {frozenset(level) for level in levels}
        assert len(cutsets) == len(levels)

    def test_the_dual_partition_lattice_is_not_upper_semimodular(self):
        fam = dual_family(partition_family(4))
        gap = semimodularity_gap(fam)
        assert gap is not None
        x, a, b = gap
        # Read back in the partition order: a and b are distinct lower covers
        # of x, and their meet is not two ranks below x.
        parts = rgs_partitions(4)
        rank = functools.partial(partition_rank, 4)
        bx, ba, bb = blocks_of(x), blocks_of(a), blocks_of(b)
        assert ba != bb
        for bc in (ba, bb):
            assert refines(bc, bx) and rank(bc) == rank(bx) - 1
        assert rank(oracle_partition_meet(parts, ba, bb)) != rank(bx) - 2


class TestChiefChainProof:
    def test_a_second_regrader_reruns_no_proof(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return rank_modular_defect(*args)

        monkeypatch.setattr("rglat.finite.rank_modular_defect", counted)
        fam = partition_family(4)
        FiniteRegrader(fam, LevelCutset(Fraction(1)))
        proof = len(calls)
        assert proof == 4 * 15
        FiniteRegrader(fam, LevelCutset(Fraction(2)))
        assert chief_chain(fam) is chief_chain(fam)
        assert len(calls) == proof
        # A new family object is a new proof: nothing is shared across instances.
        FiniteRegrader(partition_family(4), LevelCutset(Fraction(2)))
        assert len(calls) == 2 * proof

    def test_the_proof_does_not_keep_its_family_alive(self):
        fam = boolean_family(3)
        FiniteRegrader(fam, LevelCutset(Fraction(1)))
        ref = weakref.ref(fam)
        del fam
        gc.collect()
        assert ref() is None


class TestRankModularElements:
    def test_boolean_everything_is_modular(self):
        fam = boolean_family(4)
        assert len(rank_modular_elements(fam)) == 16

    def test_subspace_lattice_is_modular(self):
        fam = subspace_family(2, 3)
        assert rank_modular_elements(fam) == fam.elements()

    def test_partition_modular_set_is_the_twelve(self):
        mods = rank_modular_elements(partition_family(4))
        assert len(mods) == 12
        for m in mods:
            assert sum(1 for b in m.blocks if len(b) > 1) <= 1
        crossing = part([1, 2], [3, 4])
        assert crossing not in mods


class TestChiefChains:
    def test_boolean_prefixes(self):
        chain = chief_chain(boolean_family(3))
        assert [e.members() for e in chain.elements()] == [(), (1,), (1, 2), (1, 2, 3)]

    def test_partition_single_block_growth(self):
        chain = chief_chain(partition_family(4))
        expected = [
            SetPartition.discrete(4),
            part([1, 2], [3], [4]),
            part([1, 2, 3], [4]),
            part([1, 2, 3, 4]),
        ]
        assert list(chain.elements()) == expected

    def test_subspace_flag_ranks(self):
        chain = chief_chain(subspace_family(2, 3))
        assert list(chain.ranks()) == [0, 1, 2, 3]


class TestProductPlane:
    def test_limit_demo_discontinuity(self):
        meet = hypothesis_product_plane().conditions[0]
        assert meet.name == "chain-meet-sup"
        assert [v for _, v in meet.rows] == [ZERO, ZERO, ZERO]
        assert meet.scan_value == ZERO
        assert meet.target_value == Rank(1)
        assert not meet.holds

    def test_dual_scan_discontinuity_below(self):
        join = hypothesis_product_plane().conditions[1]
        assert join.name == "chain-join-inf"
        assert join.scan_value == ZERO
        assert join.target_value == Rank(-1)
        assert not join.holds

    def test_negative_parameter_sits_below_the_plateau(self):
        lattice = product_plane_lattice()
        meet = lattice.meet(PlanePoint.point(0, -7), PlanePoint.point(1, 0))
        assert lattice.rank(meet) == Rank(-7)

    def test_symbolic_extrema_ranks(self):
        lattice = product_plane_lattice()
        assert lattice.rank(lattice.bottom) is NEG_INF
        assert lattice.rank(lattice.top) is POS_INF

    @pytest.mark.parametrize(
        "a, b",
        [(POS_INF, Fraction(0)), (Fraction(0), NEG_INF), (POS_INF, NEG_INF), (NEG_INF, POS_INF),
         (0.5, "x"), (1, Fraction(2))],
    )
    def test_a_point_off_the_plane_is_refused(self, a, b):
        with pytest.raises(PreconditionViolation):
            PlanePoint(a, b)

    def test_rational_points_and_the_extrema_are_accepted(self):
        assert PlanePoint(Fraction(1), Fraction(-1, 2)) == PlanePoint.point(1, "-1/2")
        assert PlanePoint(NEG_INF, NEG_INF) == PlanePoint.bottom()
        assert PlanePoint(POS_INF, POS_INF) == PlanePoint.top()


class TestSubspaceOps:
    def test_meet_is_the_set_intersection_of_spans(self):
        fam = subspace_family(2, 3)
        elems = fam.elements()
        assert len(elems) == 16
        for x in elems:
            for y in elems:
                meet = fam.lattice.meet(x, y)
                assert span(meet) == span(x) & span(y)

    def test_join_spans_the_union(self):
        fam = subspace_family(3, 2)
        elems = fam.elements()
        for x in elems:
            for y in elems:
                join = fam.lattice.join(x, y)
                assert span(join) >= span(x) | span(y)
                assert join.dimension() <= x.dimension() + y.dimension()

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2)])
    def test_every_subspace_has_its_own_repr(self, p, n):
        elems = subspace_family(p, n).elements()
        assert len({repr(x) for x in elems}) == len(elems)
        assert repr(Subspace.from_rows(2, 3, [[0, 1, 0]])) == "Subspace(F2^3, [[0, 1, 0]])"

    def test_cutset_errors_name_the_missing_subspace(self):
        fam = subspace_family(2, 3)
        level = rank_layers(fam)[1]
        texts = set()
        for left_out in level[:2]:
            with pytest.raises(CutsetError) as info:
                FiniteRegrader(fam, ExplicitCutset(tuple(x for x in level if x != left_out)))
            assert repr(left_out) in str(info.value)
            texts.add(str(info.value))
        assert len(texts) == 2


@settings(max_examples=60)
@given(x=set_partitions(), y=set_partitions())
def test_partition_ops_match_refinement_oracle(x, y):
    lattice = partition_family(4).lattice
    parts = rgs_partitions(4)
    assert blocks_of(lattice.join(x, y)) == oracle_partition_join(parts, blocks_of(x), blocks_of(y))


def test_element_json_round_trip_shapes():
    assert element_to_json(BitSubset.from_members(4, [3, 1])) == [1, 3]
    assert element_to_json(part([1, 2], [3], [4])) == [[1, 2], [3], [4]]
    assert element_to_json(Subspace.from_rows(2, 2, [[1, 0]])) == [[1, 0]]
    fam = boolean_family(4)
    assert element_from_json(fam, [1, 3]) == BitSubset.from_members(4, [1, 3])
