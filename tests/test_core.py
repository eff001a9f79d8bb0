import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rglat.core import (
    ChainSample,
    GradedLattice,
    adjoin_bounds,
    check_lattice_axioms,
    diamond_row,
    lipschitz_scan,
    rank_modular_defect,
    updown_distance,
)
from rglat.errors import PreconditionViolation
from rglat.finite import (
    BitSubset,
    SetPartition,
    boolean_family,
    partition_family,
    rank_modular_elements,
)
from rglat.intervals import Ambient, IntervalSet, chief_element, interval_lattice
from rglat.rank import POS_INF, Rank
from rglat.suites import _balance_holds

from oracle_helpers import (
    blocks_of,
    grid_measure,
    oracle_partition_join,
    oracle_partition_meet,
    partition_rank,
    recomputing_lattice_axioms,
    refines,
    rgs_partitions,
)

ZERO = Rank(0)
P4 = partition_family(4)
PARTS4 = rgs_partitions(4)


def part(*blocks):
    return SetPartition.from_blocks(4, blocks)


def iset(*pairs):
    return IntervalSet.of(*pairs)


class TestRankModularDefect:
    def test_bottom_is_always_modular(self):
        lattice = boolean_family(4).lattice
        assert rank_modular_defect(lattice, lattice.bottom, BitSubset.from_members(4, [1, 3])) == ZERO

    def test_interval_lattice_is_modular_everywhere(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        m = iset(("1/2", "3/2"))
        x = iset((0, 1), ("7/4", 2))
        assert rank_modular_defect(lattice, m, x) == ZERO

    def test_partition_crossing_pair_has_defect_minus_one(self):
        # Oracle: locate meet and join by scanning the refinement order.
        m = part([1, 2], [3, 4])
        x = part([1, 3], [2, 4])
        om = oracle_partition_meet(PARTS4, blocks_of(m), blocks_of(x))
        oj = oracle_partition_join(PARTS4, blocks_of(m), blocks_of(x))
        oracle_defect = (
            partition_rank(4, oj) + partition_rank(4, om)
            - partition_rank(4, blocks_of(m)) - partition_rank(4, blocks_of(x))
        )
        assert oracle_defect == -1
        assert rank_modular_defect(P4.lattice, m, x) == Rank(-1)

    def test_comparable_pairs_bypass_infinite_arithmetic(self):
        unbounded = interval_lattice(Ambient(None))
        with_top = adjoin_bounds(unbounded, top_rank=POS_INF)
        assert rank_modular_defect(with_top, with_top.top, iset((-1, 1))) == ZERO


def residual(row):
    """The balance residual a diamond row carries: its two rises minus its height."""
    meet, join, height = row
    return meet + join - height


class TestBalanceResiduals:
    # Balance is read off the diamond rows: a row holds when its rises sum to its height.

    def test_interval_instance_against_measure_oracle(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        m, m_small = iset((0, "3/2")), iset((0, "1/2"))
        w, z = iset((1, "3/2")), iset((1, 2))
        rows = diamond_row(lattice, m, w, z), diamond_row(lattice, z, m_small, m)
        assert (residual(rows[0]), residual(rows[1])) == (ZERO, ZERO)
        assert all(map(_balance_holds, rows))
        # Rebuild the first residual from grid-counted measures.
        mz = [(1, Fraction(3, 2))]
        mvz = [(0, 2)]
        mw = [(1, Fraction(3, 2))]
        mvw = [(0, Fraction(3, 2))]
        first = (
            grid_measure(mz) + grid_measure(mvz)
            - grid_measure(mw) - grid_measure(mvw)
            - (grid_measure([(1, 2)]) - grid_measure([(1, Fraction(3, 2))]))
        )
        assert first == residual(rows[0]) == 0

    def test_degenerate_chain_gives_zero_first_residual(self):
        lattice = boolean_family(4).lattice
        w = BitSubset.from_members(4, [2])
        m = BitSubset.from_members(4, [1, 2])
        row = diamond_row(lattice, m, w, w)
        assert residual(row) == ZERO and _balance_holds(row)

    def test_partition_instance(self):
        m = part([1, 2, 3], [4])
        m_small = part([1, 2], [3], [4])
        w = SetPartition.discrete(4)
        z = part([1, 4], [2], [3])
        rows = (diamond_row(P4.lattice, m, w, z), diamond_row(P4.lattice, z, m_small, m))
        assert (residual(rows[0]), residual(rows[1])) == (ZERO, ZERO)
        assert all(map(_balance_holds, rows))

    def test_non_comparable_precondition_reports_witnesses(self):
        lattice = boolean_family(4).lattice
        # A reversed pair is refused too: here hi lies strictly below lo.
        a = BitSubset.from_members(4, [1])
        b = BitSubset.from_members(4, [1, 2])
        with pytest.raises(PreconditionViolation, match="not below"):
            diamond_row(lattice, a, b, a)


class TestDiamondBounds:
    def test_interval_instance_all_pass(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        m, m_small, w, z = iset((0, 1)), iset((0, "1/2")), iset(("1/2", 1)), iset(("1/2", 2))
        for meet, join, height in (diamond_row(lattice, m, w, z), diamond_row(lattice, z, m_small, m)):
            assert ZERO <= meet <= height and ZERO <= join <= height
            assert (height - meet) + (height - join) == height

    def test_top_meet_row_has_zero_slack(self):
        lattice = boolean_family(4).lattice
        w = BitSubset.from_members(4, [1])
        z = BitSubset.from_members(4, [1, 2, 3])
        meet, _, height = diamond_row(lattice, lattice.top, w, z)
        assert height - meet == ZERO

    def test_exhaustive_partition_quadruples(self):
        lattice = P4.lattice
        mods = rank_modular_elements(P4)
        elems = P4.elements()
        comp = [(w, z) for w in elems for z in elems if lattice.leq(w, z)]
        for m_small in mods:
            for m in mods:
                if not lattice.leq(m_small, m):
                    continue
                for w, z in comp:
                    for meet, join, height in (diamond_row(lattice, m, w, z), diamond_row(lattice, z, m_small, m)):
                        assert meet <= height and join <= height
                        assert (height - meet) + (height - join) == height

    def test_non_comparable_precondition_reports_witnesses(self):
        lattice = boolean_family(4).lattice
        a = BitSubset.from_members(4, [1])
        b = BitSubset.from_members(4, [2])
        with pytest.raises(PreconditionViolation, match="not below"):
            diamond_row(lattice, a, a, b)


class TestLipschitzScan:
    def _prefix_chain(self, lattice):
        ambient = Ambient(Fraction(2))
        return ChainSample.from_elements(
            lattice, [chief_element(ambient, Fraction(k, 8)) for k in range(17)]
        )

    def test_prefix_geometry_maxes_at_one(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        chain = self._prefix_chain(lattice)
        assert lipschitz_scan(lattice, chain, iset((0, 1)), "meet") == Rank(1)

    def test_bottom_meets_are_flat(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        chain = self._prefix_chain(lattice)
        assert lipschitz_scan(lattice, chain, IntervalSet(()), "meet") == ZERO

    def test_partition_chains_stay_within_one(self):
        from rglat.finite import enumerate_maximal_chains

        one = Rank(1)
        m = part([1, 2, 3], [4])
        for chain_elems in enumerate_maximal_chains(P4):
            chain = ChainSample.from_elements(P4.lattice, chain_elems)
            for mode in ("meet", "join"):
                assert lipschitz_scan(P4.lattice, chain, m, mode) <= one

    def test_bad_mode_rejected(self):
        lattice = interval_lattice(Ambient(Fraction(2)))
        with pytest.raises(PreconditionViolation):
            lipschitz_scan(lattice, self._prefix_chain(lattice), IntervalSet(()), "avg")


class TestAdjoinBounds:
    def test_adjoined_top_has_requested_rank_and_is_modular(self):
        unbounded = interval_lattice(Ambient(None))
        wrapped = adjoin_bounds(unbounded, top_rank=POS_INF)
        assert wrapped.rank(wrapped.top) is POS_INF
        probe = iset((-3, "-1/2"), (4, 5))
        assert wrapped.meet(wrapped.top, probe) == probe
        assert wrapped.join(wrapped.top, probe) == wrapped.top
        assert rank_modular_defect(wrapped, wrapped.top, probe) == ZERO

    def test_refuses_existing_extremum(self):
        bounded = interval_lattice(Ambient(Fraction(1)))
        with pytest.raises(PreconditionViolation):
            adjoin_bounds(bounded, top_rank=POS_INF)


class TestChainSample:
    def test_rejects_non_increasing_ranks(self):
        with pytest.raises(PreconditionViolation):
            ChainSample(((Rank(1), "a"), (Rank(1), "b")))

    def test_from_elements_validates_order(self):
        lattice = boolean_family(3).lattice
        good = [BitSubset(3, 0), BitSubset(3, 1), BitSubset(3, 3)]
        assert len(ChainSample.from_elements(lattice, good).points) == 3
        with pytest.raises(PreconditionViolation):
            ChainSample.from_elements(lattice, [BitSubset(3, 1), BitSubset(3, 2)])


class TestAxiomChecker:
    def test_passes_on_real_lattice(self):
        fam = boolean_family(3)
        assert check_lattice_axioms(fam.lattice, fam.elements(), random.Random(0)).ok

    def test_catches_a_broken_meet(self):
        from rglat.core import GradedLattice

        broken = GradedLattice(
            name="broken",
            meet=lambda x, y: min(x, y) + 0 * max(0, x - y),
            join=lambda x, y: max(x, y) + (1 if x != y else 0),
            rank=lambda x: Rank(x),
        )
        assert not check_lattice_axioms(broken, [0, 1, 2, 3], random.Random(0)).ok


def _base_tables(kind: str, n: int):
    """Meet, join and rank tables of the chain 0 < ... < n-1, or of 0 < n-2 atoms < n-1."""
    if kind == "chain":
        return (
            [[min(i, j) for j in range(n)] for i in range(n)],
            [[max(i, j) for j in range(n)] for i in range(n)],
            list(range(n)),
        )
    top = n - 1

    def meet(i, j):
        return i if i == j or j == top else j if i == top else 0

    def join(i, j):
        return i if i == j or j == 0 else j if i == 0 else top

    return (
        [[meet(i, j) for j in range(n)] for i in range(n)],
        [[join(i, j) for j in range(n)] for i in range(n)],
        [0] + [1] * (n - 2) + [2],
    )


@st.composite
def axiom_tables(draw):
    """Meet, join and rank tables on 3-6 elements: a real lattice with up to three cells rewritten."""
    n = draw(st.integers(3, 6))
    meet, join, ranks = _base_tables(draw(st.sampled_from(("chain", "diamond"))), n)
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        table, i, j, value = draw(st.sampled_from((meet, join))), draw(index), draw(index), draw(index)
        table[i][j] = value
        if draw(st.booleans()):
            table[j][i] = value
    if draw(st.booleans()):
        ranks[draw(index)] = draw(st.integers(0, n))
    return tuple(map(tuple, meet)), tuple(map(tuple, join)), tuple(ranks)


def table_lattice(tables) -> GradedLattice:
    meet, join, ranks = tables
    return GradedLattice("table", lambda x, y: meet[x][y], lambda x, y: join[x][y], ranks.__getitem__)


# One table per way the checker can fail, each found by a search over axiom_tables.
FAILING_TABLES = {
    "idempotence": (((0, 0, 0), (0, 1, 1), (0, 2, 2)), ((0, 1, 2), (1, 1, 2), (2, 2, 0)), (0, 1, 2)),
    "commutativity": (((0, 0, 0), (0, 1, 1), (0, 2, 2)), ((0, 1, 2), (1, 1, 2), (2, 2, 2)), (0, 1, 2)),
    "absorption": (((0, 1, 1), (1, 1, 1), (1, 1, 2)), ((0, 1, 2), (1, 1, 2), (2, 2, 2)), (0, 1, 2)),
    "rank not strictly increasing": (
        ((0, 0, 0), (0, 1, 1), (0, 1, 2)), ((0, 1, 1), (1, 1, 2), (1, 2, 2)), (0, 0, 2)
    ),
    "meet associativity": (
        ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 0), (0, 1, 0, 3)),
        ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 2), (3, 3, 2, 3)),
        (0, 1, 2, 3),
    ),
    "join associativity": (
        ((0, 0, 0), (0, 1, 1), (0, 1, 2)), ((0, 1, 1), (1, 1, 2), (1, 2, 2)), (0, 1, 2)
    ),
}


@pytest.mark.parametrize("kind", FAILING_TABLES)
def test_each_pinned_table_fails_the_way_it_is_named(kind):
    tables = FAILING_TABLES[kind]
    res = recomputing_lattice_axioms(table_lattice(tables), range(len(tables[2])), random.Random(0))
    assert not res.ok and res.witness.startswith(kind)


def _with_examples(test):
    for tables in FAILING_TABLES.values():
        test = example(tables=tables)(test)
    return test


@settings(max_examples=300)
@_with_examples
@given(tables=axiom_tables())
def test_axiom_checker_matches_the_recomputing_oracle(tables):
    lattice, elems = table_lattice(tables), range(len(tables[2]))
    assert check_lattice_axioms(lattice, elems, random.Random(3)) == recomputing_lattice_axioms(
        lattice, elems, random.Random(3)
    )


def _bent_join(lattice: GradedLattice, a, b, value) -> GradedLattice:
    """The lattice with the join of a and b, in both orders, replaced by value."""

    def join(x, y):
        return value if {x, y} == {a, b} else lattice.join(x, y)

    return GradedLattice("bent", lattice.meet, join, lattice.rank)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_axiom_checker_matches_the_oracle_when_pairs_are_sampled(seed):
    # 128 elements: 8,128 pairs and 341,376 triples, so both are sampled, and
    # some sampled triples read a pair the pair loop never visited.
    fam = boolean_family(7)
    elems = fam.elements()
    n, replay = len(elems), random.Random(seed)
    pairs = {tuple(replay.sample(range(n), 2)) for _ in range(4000)}
    triples = [tuple(replay.sample(range(n), 3)) for _ in range(4000)]
    i, j, _ = next(
        t for t in triples
        if t[:2] not in pairs and t[1::-1] not in pairs and not fam.lattice.comparable(elems[t[0]], elems[t[1]])
    )
    # The pair loop joins only its pairs and comparable ones, so a wrong join on
    # that unvisited incomparable pair passes it; a triple catches it.
    bent = _bent_join(fam.lattice, elems[i], elems[j], fam.lattice.bottom)
    for lattice in (fam.lattice, bent):
        got = check_lattice_axioms(lattice, elems, random.Random(seed))
        assert got == recomputing_lattice_axioms(lattice, elems, random.Random(seed))
    assert got.checked > n + 4000 and got.witness.startswith("join associativity")


def test_axiom_checker_calls_the_kernels_six_times_per_pair_and_four_per_triple():
    fam = partition_family(4)
    calls = []

    def counted(op):
        def call(x, y):
            calls.append(op)
            return getattr(fam.lattice, op)(x, y)
        return call

    lattice = GradedLattice("counted", counted("meet"), counted("join"), fam.lattice.rank)
    elems = fam.elements()
    res = check_lattice_axioms(lattice, elems, random.Random(0))
    n = len(elems)
    pairs, triples = n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6
    assert res.ok and res.checked == n + pairs + triples
    assert len(calls) == 2 * n + 6 * pairs + 4 * triples


def test_updown_distance_matches_symmetric_difference_measure():
    lattice = interval_lattice(Ambient(Fraction(2)))
    u = iset((0, 1))
    v = iset(("1/2", "3/2"))
    # In a Boolean lattice of sets the up-down distance is the measure of the
    # symmetric difference.
    assert updown_distance(lattice, u, v) == Rank(grid_measure([(0, Fraction(1, 2)), (1, Fraction(3, 2))]))


def test_partition_meet_join_agree_with_order_scan_oracle():
    lattice = P4.lattice
    elems = P4.elements()
    for x in elems:
        for y in elems:
            assert blocks_of(lattice.meet(x, y)) == oracle_partition_meet(PARTS4, blocks_of(x), blocks_of(y))
            assert blocks_of(lattice.join(x, y)) == oracle_partition_join(PARTS4, blocks_of(x), blocks_of(y))
            assert lattice.leq(x, y) == refines(blocks_of(x), blocks_of(y))
