import functools
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rglat.regrading as regrading
from rglat.cli import main
from rglat.core import CheckResult
from rglat.errors import AmbientMismatch, CutsetError, PreconditionViolation, SizeCapExceeded
from rglat.finite import (
    BitSubset,
    SetPartition,
    boolean_family,
    chief_chain,
    enumerate_maximal_chains,
    partition_family,
    rank_layers,
    subspace_family,
)
from rglat.gen import random_comparable_pair, random_set_with_mass
from rglat.intervals import (
    EMPTY,
    IntervalSet,
    StepDensity,
    grade_value,
    intersect,
    measure,
    profile_bundle,
    union,
)
from rglat.rank import Rank
from rglat.suites import SuiteConfig, run_suite
from rglat.regrading import (
    MAX_GRID_LEVELS,
    ExplicitCutset,
    FiniteRegrader,
    IntervalRegrader,
    LevelCutset,
    ProjectionResult,
    SweepRow,
    counterexample_report,
    counterexample_stage,
    cutset_from_json,
    cutset_to_json,
    finite_good_chain,
    hypothesis_bounded_interval,
    hypothesis_line_sets,
    hypothesis_product_plane,
    _grid,
    _SweepEvaluator,
)

from oracle_helpers import (
    antichain_cutsets,
    antichains,
    bare_order,
    chain_crosscheck,
    cutset_gap,
    fraction_sweep,
    maximal_chains,
    meets_every_chain,
)
from strategies import interval_sets, step_densities

TWO = Fraction(2)
HALF = Fraction(1, 2)


def through_rows(regrader, z, step):
    """The projection chain through z, meet side then join side, in rank order.

    The sweep evaluator's integer rows, read as Fraction ``SweepRow``s.
    """
    sweep = _SweepEvaluator(regrader, z, step)
    levels = [Fraction(x, sweep.scale) for x in sweep.grid]
    return [
        SweepRow(side, level, Fraction(rank, sweep.scale), Fraction(num, den))
        for side in ("meet", "join")
        for level, (rank, num, den) in zip(levels, sweep.side_rows(side))
    ]


# Finite families with their order taken from the bare representation, not
# from the package's meet.
ORDERED_FAMILIES = {
    "boolean-3": (lambda: boolean_family(3), bare_order("boolean")),
    "boolean-4": (lambda: boolean_family(4), bare_order("boolean")),
    "partition-3": (lambda: partition_family(3), bare_order("partition")),
    "partition-4": (lambda: partition_family(4), bare_order("partition")),
}


def iset(*pairs):
    return IntervalSet.of(*pairs)


def stage() -> IntervalRegrader:
    return counterexample_stage()


def chain_point(regrader, z, level, side):
    """The element of the projection chain through z at a chief level."""
    op = intersect if side == "meet" else union
    return op(z, regrader.chief(level))


def chain_maximality(regrader, z, density=None):
    """The projection chain through z covers the full grading range.

    The meet and join profiles increase weakly and splice at grading(z)
    while spanning grading(bottom) to grading(top).
    """
    bundle = profile_bundle(regrader.ambient, z, density)
    meet, join = bundle.grade_meet, bundle.grade_join
    gz = grade_value(z, density)
    return (
        meet.is_weakly_increasing
        and join.is_weakly_increasing
        and meet.values[0] == 0
        and meet.values[-1] == gz
        and join.values[0] == gz
        and join.values[-1] == grade_value(regrader.top, density)
    )


def projections_reverse_or_agree(regrader, w, z):
    """For w < z above or on the cutset: levels reverse or projections agree."""
    assert intersect(w, z) == w and w != z
    assert regrader.grade(w) >= regrader.cutset.value
    pw, pz = regrader.project(w), regrader.project(z)
    return pw.chief_level > pz.chief_level or pw.element == pz.element


def bracket_crossing(regrader, z, step=Fraction(1, 128)):
    """Grid-scan oracle: bracket the least level where the relevant profile
    reaches the cutset value, without touching the exact solver."""
    target = regrader.cutset.value
    side = "meet" if regrader.grade(z) >= target else "join"
    prev = Fraction(0)
    level = Fraction(0)
    while level <= regrader.ambient.upper:
        point = chain_point(regrader, z, level, side)
        if regrader.grade(point) >= target:
            return prev, level, side
        prev = level
        level += step
    raise AssertionError("scan never crossed the cutset")


class TestProjection:
    def test_upper_interval_projects_to_its_lower_half(self):
        result = stage().project(iset((1, 2)))
        assert result.element == iset((1, "3/2"))
        assert result.chief_level == Fraction(3, 2)
        assert result.side == "meet"

    def test_element_on_the_cutset_is_its_own_projection(self):
        z = iset((0, 1))
        result = stage().project(z)
        assert result.element == z
        assert result.side == "meet"

    def test_empty_set_projects_upward(self):
        regrader = stage()
        result = regrader.project(EMPTY)
        assert result.element == iset((0, 1))
        assert result.chief_level == 1
        assert result.side == "join"
        lo, hi, side = bracket_crossing(regrader, EMPTY)
        assert side == "join"
        assert lo < result.chief_level <= hi

    def test_minimal_level_is_bracketed_by_the_grid_scan(self):
        regrader = stage()
        rng = random.Random(11)
        for _ in range(25):
            z = random_set_with_mass(rng, regrader.density, Fraction(3, 2))
            result = regrader.project(z)
            lo, hi, side = bracket_crossing(regrader, z)
            assert side == result.side
            assert lo < result.chief_level <= hi
            assert regrader.grade(result.element) == regrader.cutset.value

    def test_float_cutset_value_is_refused(self):
        with pytest.raises(PreconditionViolation, match="float"):
            LevelCutset(0.1)
        assert LevelCutset(1).value == LevelCutset("1").value == Fraction(1)

    def test_cutset_level_must_be_interior(self):
        with pytest.raises(CutsetError):
            IntervalRegrader(TWO, LevelCutset(Fraction(5)))
        with pytest.raises(CutsetError):
            IntervalRegrader(TWO, LevelCutset(Fraction(0)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, z: r.project(z),
            lambda r, z: r.regraded(z),
            lambda r, z: through_rows(r, z, Fraction(1, 4)),
        ],
        ids=["project", "regraded", "sweep"],
    )
    @pytest.mark.parametrize("density", [None, StepDensity((0, 1, 2), (1, 2))], ids=["measure", "density"])
    @pytest.mark.parametrize("z", [iset((1, 3)), iset((-1, 1))], ids=["past-upper", "below-zero"])
    def test_set_outside_the_ambient_is_rejected(self, call, density, z):
        regrader = IntervalRegrader(TWO, LevelCutset(Fraction(1), density))
        with pytest.raises(AmbientMismatch):
            call(regrader, z)


class TestRegradedRank:
    def test_prefix_values_match_the_pinned_table(self):
        regrader = stage()
        for t in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            assert regrader.regraded(iset((0, t))) == t - 1

    def test_upper_interval_value(self):
        assert stage().regraded(iset((1, 2))) == HALF

    def test_empty_set_value(self):
        assert stage().regraded(EMPTY) == -1

    def test_report_matches_expected(self):
        report = counterexample_report()
        assert report.matches_expected
        assert report == counterexample_report()

    def test_chief_member_loses_rank_modularity(self):
        regrader = stage()
        assert regrader.regraded_defect(iset((0, 1)), iset((1, 2))) == Fraction(-1, 2)

    def test_defect_vanishes_for_comparable_arguments(self):
        regrader = stage()
        assert regrader.regraded_defect(EMPTY, iset((1, 2))) == 0
        z = iset(("1/4", "7/4"))
        assert regrader.regraded_defect(z, z) == 0

    def test_uniform_density_keeps_modularity(self):
        uniform = IntervalRegrader(TWO, LevelCutset(Fraction(1)))
        assert uniform.regraded_defect(iset((0, 1)), iset((1, 2))) == 0

    def test_level_set_property_sampled(self):
        regrader = stage()
        rng = random.Random(5)
        for _ in range(50):
            z = random_set_with_mass(rng, regrader.density, Fraction(1))
            assert regrader.regraded(z) == 0
        for _ in range(50):
            z = random_set_with_mass(rng, regrader.density, Fraction(7, 4))
            assert regrader.regraded(z) > 0
            z = random_set_with_mass(rng, regrader.density, Fraction(1, 4))
            assert regrader.regraded(z) < 0


class TestChainMachinery:
    def test_chain_point_extremes(self):
        regrader = stage()
        z = iset(("1/4", "3/4"))
        assert chain_point(regrader, z, 0, "meet") == EMPTY
        assert chain_point(regrader, z, TWO, "join") == regrader.top
        assert chain_point(regrader, iset((1, 2)), Fraction(3, 2), "meet") == iset((1, "3/2"))

    def test_chain_maximality_for_empty_seed(self):
        assert chain_maximality(stage(), EMPTY)

    def test_chain_maximality_covers_the_range(self):
        regrader = stage()
        assert chain_maximality(regrader, iset((1, 2)))
        assert chain_maximality(regrader, iset((1, 2)), regrader.density)

    def test_reversed_chain_via_profiles(self):
        # Meets and joins of a chief member m along the prefix chain are the
        # profiles of m with the roles of m and the chain exchanged.
        assert chain_maximality(stage(), iset((0, 1)))

    def test_finite_good_chain_is_saturated(self):
        fam = boolean_family(4)
        chief = list(chief_chain(fam).elements())
        chain = finite_good_chain(fam.lattice, chief, BitSubset.from_members(4, [1, 3]))
        assert len(chain) == 5
        assert [fam.lattice.rank(p.element) for p in chain] == [0, 1, 2, 3, 4]

    def test_reversed_chain_finite_example(self):
        fam = boolean_family(4)
        m = BitSubset.from_members(4, [1, 2])
        chain = [
            BitSubset.from_members(4, []),
            BitSubset.from_members(4, [3]),
            BitSubset.from_members(4, [3, 4]),
            BitSubset.from_members(4, [1, 3, 4]),
            BitSubset.from_members(4, [1, 2, 3, 4]),
        ]
        reversed_chain = [p.element for p in finite_good_chain(fam.lattice, chain, m)]
        assert [fam.lattice.rank(e) for e in reversed_chain] == [0, 1, 2, 3, 4]
        assert reversed_chain[0] == fam.lattice.bottom and reversed_chain[-1] == fam.lattice.top

    def test_reversed_chain_with_bottom_is_the_original(self):
        fam = boolean_family(3)
        chain = list(chief_chain(fam).elements())
        assert [p.element for p in finite_good_chain(fam.lattice, chain, fam.lattice.bottom)] == chain


class TestOrderAndMonotonicity:
    def test_equal_projections_on_the_cutset(self):
        regrader = stage()
        w, z = iset((1, "3/2")), iset((1, 2))
        assert projections_reverse_or_agree(regrader, w, z)
        pw, pz = regrader.project(w), regrader.project(z)
        assert pw.element == pz.element == iset((1, "3/2"))

    def test_nested_prefixes(self):
        regrader = stage()
        assert projections_reverse_or_agree(regrader, iset((0, "5/4")), iset((0, 2)))

    def test_monotone_on_pinned_pairs(self):
        regrader = stage()
        assert regrader.regraded(EMPTY) < regrader.regraded(iset((0, 2)))
        assert regrader.regraded(iset((0, 1))) < regrader.regraded(iset((0, "3/2")))

    def test_monotone_on_500_random_pairs(self):
        regrader = stage()
        rng = random.Random(23)
        pairs = [random_comparable_pair(rng, TWO) for _ in range(500)]
        assert regrader.monotone_check(pairs).ok


class TestSweeps:
    def test_chief_sweep_runs_minus_one_to_one(self):
        rows = stage().sweep_chief(Fraction(1, 4))
        values = [r.regraded for r in rows]
        assert values[0] == -1 and values[-1] == 1
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_grid_is_capped_at_max_grid_levels(self):
        upper = TWO
        assert len(_grid(upper, upper / (MAX_GRID_LEVELS - 1))[0]) == MAX_GRID_LEVELS
        with pytest.raises(SizeCapExceeded, match=f"over the cap {MAX_GRID_LEVELS}"):
            _grid(upper, upper / MAX_GRID_LEVELS)

    def test_grid_numerators_share_one_denominator(self):
        assert _grid(TWO, Fraction(3, 4)) == ([0, 3, 6, 8], 4)
        assert _grid(Fraction(7, 3), Fraction(1, 2)) == ([0, 3, 6, 9, 12, 14], 6)

    def test_float_step_is_refused(self):
        with pytest.raises(PreconditionViolation, match="float"):
            stage().sweep_chief(0.3)
        with pytest.raises(PreconditionViolation, match="float"):
            through_rows(stage(), iset((1, 2)), 0.25)

    def test_degenerate_two_point_grid(self):
        rows = stage().sweep_chief(TWO)
        assert [r.regraded for r in rows] == [Fraction(-1), Fraction(1)]

    @pytest.mark.parametrize("step", [Fraction(1, 4), Fraction(1, 7), Fraction(1, 64), TWO])
    @pytest.mark.parametrize(
        "cutset",
        [
            LevelCutset(Fraction(1), StepDensity((0, 1, 2), (1, 2))),
            LevelCutset(Fraction(1)),
            LevelCutset(Fraction(15, 8)),
            LevelCutset(Fraction(6, 5), StepDensity((0, "1/3", 2), (3, "1/5"))),
        ],
    )
    def test_chief_sweep_matches_per_element_regrading(self, cutset, step):
        regrader = IntervalRegrader(TWO, cutset)
        rows = regrader.sweep_chief(step)
        assert rows[0].level == 0 and rows[-1].level == TWO
        for row in rows:
            m = regrader.chief(row.level)
            assert row.side == "chief"
            assert (row.rank, row.regraded) == (measure(m), regrader.regraded(m))

    def test_trivial_cutset_regrades_affinely_past_the_crossing(self):
        regrader = IntervalRegrader(TWO, LevelCutset(Fraction(15, 8)))
        for row in regrader.sweep_chief(Fraction(1, 8)):
            if row.level >= Fraction(15, 8):
                assert row.regraded == row.rank - Fraction(15, 8)

    def test_good_chain_sweep_attains_endpoints(self):
        # One row per side and level; the meet side plateaus at rank 0 over the
        # gap (0, 1] of z, and the join side starts at z, where the meet side ends.
        regrader = stage()
        rows = through_rows(regrader, iset((1, "7/4")), Fraction(1, 8))
        assert len(rows) == 2 * 17
        assert rows[0].regraded == regrader.regraded(EMPTY)
        assert rows[-1].regraded == regrader.regraded(regrader.top)
        assert any(a.rank == b.rank for a, b in zip(rows, rows[1:]))
        for a, b in zip(rows, rows[1:]):
            if a.rank == b.rank:
                assert a.regraded == b.regraded
            else:
                assert a.rank < b.rank and a.regraded < b.regraded


class TestFiniteRegrading:
    def test_boolean_level_cutset_is_rank_shift(self):
        fam = boolean_family(4)
        regrader = FiniteRegrader(fam, LevelCutset(Fraction(2)))
        for e in fam.elements():
            assert regrader.regraded(e) == fam.lattice.rank(e) - 2
        assert regrader.crosscheck().ok

    def test_every_exhaustive_cutset_crosschecks(self, monkeypatch):
        # Regrading walks no maximal chain, so a chain cap of 1 cannot stop it.
        families = (boolean_family(4), partition_family(4))
        stages = [(fam, antichain_cutsets(fam.elements(), bare_order(fam.kind))) for fam in families]
        monkeypatch.setattr("rglat.finite.MAX_CHAINS", 1)
        for fam, cutsets in stages:
            with pytest.raises(SizeCapExceeded):
                enumerate_maximal_chains(fam)
            for cutset in cutsets:
                regrader = FiniteRegrader(fam, ExplicitCutset(tuple(cutset)))
                assert regrader.crosscheck().ok

    def test_boolean_9_level_given_element_by_element(self):
        fam = boolean_family(9)
        level = tuple(e for e in fam.elements() if e.cardinality() == 4)
        regrader = FiniteRegrader(fam, ExplicitCutset(level))
        assert regrader.crosscheck() == CheckResult(True, 512)

    @pytest.mark.parametrize("name, count", [("boolean-3", 19), ("boolean-4", 167), ("partition-4", 346)])
    def test_cover_test_agrees_with_the_chain_walk(self, name, count):
        build, leq = ORDERED_FAMILIES[name]
        fam = build()
        elems = fam.elements()
        chains = maximal_chains(elems, leq)
        found = antichains(elems, leq)
        assert len(found) == count
        for antichain in found:
            gap = cutset_gap(fam, antichain)
            assert (gap is None) == meets_every_chain(chains, antichain)
            if gap is not None:
                x, y = gap
                assert any(leq(x, a) and x != a for a in antichain)
                assert not any(leq(y, a) for a in antichain)
                assert any(x in chain and y in chain for chain in chains)

    @pytest.mark.parametrize("name", ORDERED_FAMILIES)
    def test_crosscheck_agrees_with_the_chain_walk(self, name):
        build, leq = ORDERED_FAMILIES[name]
        fam = build()
        elems = fam.elements()
        chains = maximal_chains(elems, leq)
        outcomes = set()
        for cutset in antichain_cutsets(elems, leq):
            regrader = FiniteRegrader(fam, ExplicitCutset(tuple(cutset)))
            values = {e: regrader.regraded(e) for e in elems}
            for graded in _tampered(fam, values):
                regrader.regraded = graded.__getitem__
                ok = regrader.crosscheck().ok
                assert ok == chain_crosscheck(chains, graded, cutset)
                outcomes.add(ok)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "build",
        [
            functools.partial(boolean_family, 4),
            functools.partial(partition_family, 4),
            functools.partial(subspace_family, 2, 3),
        ],
        ids=["boolean-4", "partition-4", "subspace-F2^3"],
    )
    def test_one_pass_projection_matches_the_two_pass_rule(self, build):
        fam = build()
        elems = fam.elements()
        top = int(fam.lattice.rank(fam.lattice.top))
        cutsets = [LevelCutset(Fraction(k)) for k in range(1, top)]
        cutsets += [ExplicitCutset(c) for c in antichain_cutsets(elems, bare_order(fam.kind))]
        for cutset in cutsets:
            regrader = FiniteRegrader(fam, cutset)
            for z in elems:
                assert regrader.project(z) == _two_pass_projection(regrader, z)

    def test_partition_projection_moves_along_the_good_chain(self):
        fam = partition_family(4)
        regrader = FiniteRegrader(fam, LevelCutset(Fraction(2)))
        z = SetPartition.from_blocks(4, [[1, 4], [2], [3]])
        result = regrader.project(z)
        assert fam.lattice.rank(result.element) == 2
        assert regrader.regraded(z) == -1

    def test_non_antichain_rejected(self):
        fam = boolean_family(3)
        with pytest.raises(CutsetError):
            FiniteRegrader(
                fam,
                ExplicitCutset((BitSubset(3, 1), BitSubset(3, 3))),
            )

    def test_non_cutset_antichain_rejected(self):
        fam = boolean_family(3)
        with pytest.raises(CutsetError, match="not listed"):
            FiniteRegrader(fam, ExplicitCutset((BitSubset.from_members(3, [1]),)))

    @pytest.mark.parametrize(
        "build, leq, count, cutsets",
        [
            (functools.partial(boolean_family, 3), bare_order("boolean"), 19, 4),
            (functools.partial(boolean_family, 4), bare_order("boolean"), 167, 5),
            (functools.partial(partition_family, 3), bare_order("partition"), 9, 3),
            (functools.partial(partition_family, 4), bare_order("partition"), 346, 4),
            (functools.partial(subspace_family, 2, 3), bare_order("subspace"), 459, 4),
            (functools.partial(subspace_family, 3, 2), bare_order("subspace"), 17, 3),
        ],
        ids=["boolean-3", "boolean-4", "partition-3", "partition-4", "subspace-F2^3", "subspace-F3^2"],
    )
    def test_whole_level_check_agrees_with_the_cover_test(self, build, leq, count, cutsets):
        fam = build()
        found = antichains(fam.elements(), leq)
        assert len(found) == count
        built = 0
        for antichain in found:
            try:
                FiniteRegrader(fam, ExplicitCutset(antichain))
            except CutsetError:
                assert cutset_gap(fam, antichain) is not None
            else:
                assert cutset_gap(fam, antichain) is None
                built += 1
        assert built == cutsets

    def test_element_listed_twice_rejected(self):
        fam = boolean_family(3)
        level = [e for e in fam.elements() if e.cardinality() == 1]
        with pytest.raises(CutsetError, match="listed twice"):
            FiniteRegrader(fam, ExplicitCutset(tuple(level + level[:1])))

    def test_members_of_two_ranks_rejected(self):
        fam = partition_family(3)
        bottom, middle = fam.lattice.bottom, SetPartition.from_blocks(3, [[1, 2], [3]])
        with pytest.raises(CutsetError, match="not one rank level"):
            FiniteRegrader(fam, ExplicitCutset((middle, bottom)))

    @pytest.mark.parametrize("name", ["boolean-4", "partition-4"])
    def test_level_with_a_member_left_out_names_it(self, name):
        build, leq = ORDERED_FAMILIES[name]
        fam = build()
        chains = maximal_chains(fam.elements(), leq)
        for r, level in rank_layers(fam).items():
            if len(level) < 2:
                continue  # leaving out the only element leaves an empty cutset
            for y in level:
                rest = tuple(e for e in level if e != y)
                with pytest.raises(CutsetError, match=re.escape(f"through {y!r}, which has rank {r}")):
                    FiniteRegrader(fam, ExplicitCutset(rest))
                through_y = [chain for chain in chains if y in chain]
                assert through_y and not any(meets_every_chain([chain], rest) for chain in through_y)

    def test_cli_rejects_a_partial_level(self, tmp_path, capsys):
        spec = {
            "lattice": {"kind": "boolean", "n": 3},
            "cutset": {"type": "explicit", "elements": [[1], [2]]},
            "targets": [[1]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["regrade", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: antichain misses the maximal chains through BitSubset(3, {3})")
        assert "Traceback" not in err

    def test_level_must_be_interior(self):
        with pytest.raises(CutsetError):
            FiniteRegrader(boolean_family(3), LevelCutset(Fraction(3)))
        with pytest.raises(CutsetError):
            FiniteRegrader(boolean_family(3), LevelCutset(HALF))


def _two_pass_projection(regrader, z):
    """The crossing found by a second pass: collect the chain, then search the chief chain.

    The side is meet when the crossing lies below z; the level is the least
    chief rank whose meet (or join) with z is the crossing.
    """
    lattice = regrader.lattice
    chain = {e for m in regrader.chief for e in (lattice.meet(z, m), lattice.join(z, m))}
    hits = [e for e in chain if regrader.in_cutset(e)]
    assert len(hits) == 1
    alpha = hits[0]
    side = "meet" if lattice.leq(alpha, z) else "join"
    op = lattice.meet if side == "meet" else lattice.join
    level = next(lattice.rank(m) for m in regrader.chief if op(z, m) == alpha)
    return ProjectionResult(alpha, level, side)


def _tampered(fam, values):
    """The grading itself, then each element shifted, each pair swapped and each rank shifted."""
    yield values
    for e in values:
        for shift in (-1, 1):
            yield values | {e: values[e] + shift}
    for e, f in itertools.combinations(values, 2):
        yield values | {e: values[f], f: values[e]}
    rank = fam.lattice.rank
    for r in {rank(e) for e in values}:
        for shift in (-1, 1):
            yield {e: v + shift if rank(e) == r else v for e, v in values.items()}


class TestHypothesisReports:
    def test_bounded_stage_is_vacuous(self):
        report = hypothesis_bounded_interval(TWO)
        assert not report.failing
        assert all(c.vacuous for c in report.conditions)

    def test_line_stage_flags_only_the_chain_meet(self):
        report = hypothesis_line_sets()
        assert report.failing == ("chain-meet-sup",)
        by_name = {c.name: c for c in report.conditions}
        assert by_name["chain-meet-sup"].scan_value == Rank(0)
        assert by_name["chain-meet-sup"].target_value == Rank(2)
        assert by_name["chief-meet-sup"].holds and not by_name["chief-meet-sup"].vacuous

    def test_plane_stage_flags_both_chain_conditions(self):
        report = hypothesis_product_plane()
        assert report.failing == ("chain-meet-sup", "chain-join-inf")
        by_name = {c.name: c for c in report.conditions}
        assert by_name["chain-meet-sup"].scan_value == Rank(0)
        assert by_name["chain-meet-sup"].target_value == Rank(1)
        assert by_name["chain-join-inf"].scan_value == Rank(0)
        assert by_name["chain-join-inf"].target_value == Rank(-1)


class TestCutsetJson:
    def test_level_cutset_round_trip(self):
        cutset = stage().cutset
        payload = cutset_to_json(cutset)
        assert payload["type"] == "level"
        assert payload["value"] == "1/1"
        assert cutset_from_json(payload) == cutset

    def test_rank_grading_token(self):
        cutset = LevelCutset(Fraction(2))
        assert cutset_to_json(cutset)["grading"] == "rank"
        assert cutset_from_json({"type": "level", "grading": "lebesgue", "value": "2/1"}) == cutset

    def test_explicit_round_trip(self):
        fam = boolean_family(3)
        cutset = ExplicitCutset(tuple(e for e in fam.elements() if e.cardinality() == 1))
        payload = cutset_to_json(cutset)
        assert cutset_from_json(payload, fam) == cutset


@settings(max_examples=40)
@given(z=interval_sets())
def test_projection_grade_is_exact_for_random_elements(z):
    regrader = counterexample_stage()
    result = regrader.project(z)
    assert regrader.grade(result.element) == regrader.cutset.value
    value = regrader.regraded(z)
    gz = regrader.grade(z)
    if gz == regrader.cutset.value:
        assert value == 0
    else:
        assert (value > 0) == (gz > regrader.cutset.value)


@settings(max_examples=40)
@given(z=interval_sets())
def test_good_chains_are_maximal_for_random_seeds(z):
    regrader = counterexample_stage()
    assert chain_maximality(regrader, z)
    assert chain_maximality(regrader, z, regrader.density)


@st.composite
def sweep_stages(draw):
    """A regrader on (0, 2] under Lebesgue or a step density, at a random level.

    Half the levels are the grade of a prefix (0, k/8], which puts the chief
    crossing t* on the 1/8 sweep grid, where the sweep changes branch.
    """
    density = draw(st.none() | step_densities())
    total = grade_value(iset((0, 2)), density)
    if draw(st.booleans()):
        level = grade_value(iset((0, Fraction(draw(st.integers(1, 15)), 8))), density)
    else:
        level = total * Fraction(draw(st.integers(1, 47)), 48)
    return IntervalRegrader(TWO, LevelCutset(level, density))


@settings(max_examples=60)
@given(z=interval_sets(), regrader=sweep_stages())
def test_sweep_agrees_with_per_element_projection(z, regrader):
    # Two routes to the same numbers: the closed-form sweep off z's profiles,
    # and a fresh projection of each materialized chain element.
    step = Fraction(1, 8)
    rows = [(r, chain_point(regrader, z, r.level, r.side)) for r in through_rows(regrader, z, step)]
    rows += [(r, regrader.chief(r.level)) for r in regrader.sweep_chief(step)]
    for row, element in rows:
        assert row.rank == measure(element)
        assert row.regraded == regrader.regraded(element)


@st.composite
def oracle_stages(draw):
    """A regrader on (0, 2] or (0, 7/3] under Lebesgue or a density with values over 2 and 3.

    Density breakpoints and the cutset level are random too, so the common
    denominator of a sweep mixes the ambient's, the density's and the grid's.
    """
    upper = draw(st.sampled_from([TWO, Fraction(7, 3)]))
    density = None
    if draw(st.booleans()):
        den = draw(st.sampled_from([3, 4, 6, 8]))
        cuts = sorted(draw(st.sets(st.integers(1, den - 1), max_size=3)))
        breakpoints = [Fraction(0)] + [upper * c / den for c in cuts] + [upper]
        values = [Fraction(draw(st.integers(1, 7)), draw(st.sampled_from([1, 2, 3]))) for _ in range(len(cuts) + 1)]
        density = StepDensity(tuple(breakpoints), tuple(values))
    total = grade_value(iset((0, upper)), density)
    return IntervalRegrader(upper, LevelCutset(total * Fraction(draw(st.integers(1, 59)), 60), density))


@st.composite
def sets_touching_the_ends(draw, upper: Fraction):
    """Up to three pieces on a grid of (0, upper], often reaching 0 or upper."""
    den = draw(st.sampled_from([4, 6, 7, 16]))
    k = draw(st.integers(0, min(3, (den - 1) // 2)))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=2 * k, max_size=2 * k, unique=True)))
    if k and draw(st.booleans()):
        cuts[0] = 0
    if k and draw(st.booleans()):
        cuts[-1] = den
    return IntervalSet.of(*((upper * a / den, upper * b / den) for a, b in zip(cuts[::2], cuts[1::2])))


@settings(max_examples=80)
@given(
    regrader=oracle_stages(),
    data=st.data(),
    step=st.sampled_from([Fraction(1, 7), Fraction(3, 10), Fraction(1, 128)]),
)
def test_integer_sweep_matches_the_fraction_oracle(regrader, data, step):
    # Row for row, value for value, against the same closed form in Fractions.
    z = data.draw(sets_touching_the_ends(regrader.ambient.upper))
    assert through_rows(regrader, z, step) == fraction_sweep(regrader, z, step)
    assert regrader.sweep_chief(step) == fraction_sweep(regrader, None, step)


@settings(max_examples=100)
@given(regrader=st.one_of(sweep_stages(), oracle_stages()))
def test_chief_crossing_is_the_solved_crossing_of_the_empty_set(regrader):
    # The chief chain is the join side of the projection chain through EMPTY.
    bundle = profile_bundle(regrader.ambient, EMPTY, regrader.density)
    assert regrader.chief_alpha == regrader._solve(bundle)[2]


@pytest.mark.parametrize(
    "cutset, t_star",
    [
        (LevelCutset(Fraction(3, 4)), Fraction(3, 4)),
        (LevelCutset(Fraction(1), StepDensity((0, 1, 2), (1, 2))), Fraction(1)),
        (LevelCutset(Fraction(2), StepDensity((0, 1, 2), (1, 2))), Fraction(3, 2)),
        (LevelCutset(Fraction(6, 5), StepDensity((0, "1/3", 2), (3, "1/5"))), Fraction(1, 3) + Fraction(1)),
    ],
)
def test_a_regrader_builds_no_profile_bundle(monkeypatch, cutset, t_star):
    def refused(*args):
        raise AssertionError("a profile bundle was built")

    monkeypatch.setattr(regrading, "profile_bundle", refused)
    assert IntervalRegrader(TWO, cutset).chief_alpha == t_star


def test_monotone_surjective_fails_a_chief_sweep_off_by_half_the_crossing(monkeypatch):
    real = IntervalRegrader.sweep_chief

    def halved(self, step):
        return [SweepRow(r.side, r.level, r.rank, r.rank - self.chief_alpha / 2) for r in real(self, step)]

    monkeypatch.setattr(IntervalRegrader, "sweep_chief", halved)
    result = run_suite("monotone-surjective", SuiteConfig(seed=7))
    assert not result.passed and result.checked == 0
    assert result.witness == "chief chain: endpoints -1/2..3/2 instead of -1..1"


def test_sweep_matches_hand_computed_chain():
    # Along the meet side of the chain through (1, 2] the regraded rank is
    # 2s - 3 below the cutset and s - 3/2 above it, s the right endpoint.
    regrader = counterexample_stage()
    evaluator_rows = through_rows(regrader, iset((1, 2)), Fraction(1, 8))
    by_key = {(r.side, r.level): r for r in evaluator_rows}
    assert by_key[("meet", Fraction(5, 4))].regraded == Fraction(-1, 2)
    assert by_key[("meet", Fraction(3, 2))].regraded == Fraction(0)
    assert by_key[("meet", Fraction(15, 8))].regraded == Fraction(3, 8)
