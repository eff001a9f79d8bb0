import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rglat.core import CheckResult, GradedLattice, diamond_row, rank_modular_defect, updown_distance
from rglat.errors import PreconditionViolation
from rglat.finite import BitSubset, boolean_family, boolean_lattice, partition_family
from rglat.suites import (
    SUITES,
    SuiteConfig,
    SuiteResult,
    _check_sweep,
    _diamond_holds,
    _diamond_witness,
    _finite_stage,
    run_suite,
)

from oracle_helpers import fraction_check_sweep
from strategies import rationals


def rows(*values):
    """Integer sweep rows (rank, num, den), one element per rank.

    Row i carries its value over (i + 1) times the reduced denominator, as a
    sweep's rows need not be reduced.
    """
    rows = []
    for i, v in enumerate(map(Fraction, values)):
        rows.append((i, (i + 1) * v.numerator, (i + 1) * v.denominator))
    return rows


LO, HI = Fraction(-1), Fraction(1)


def test_sweep_gate_passes_when_every_gap_is_within_the_bound():
    assert _check_sweep(rows(-1, "-1/2", 0, "1/2", 1), LO, HI, Fraction(1, 2)) is None


def test_sweep_gate_fails_on_a_gap_over_the_bound():
    # Halving the grid need not shrink the largest gap; the bound is what holds.
    why = _check_sweep(rows(-1, "-1/2", 0, "3/4", 1), LO, HI, Fraction(1, 2))
    assert why == "regraded gap 0..3/4 wider than 1/2"


def test_sweep_gate_reports_a_sweep_that_does_not_increase():
    why = _check_sweep(rows(-1, 0, 0, 1), LO, HI, Fraction(1))
    assert why == "regraded column not strictly increasing"


def test_sweep_gate_counts_equal_rank_rows_as_one_element():
    # The middle element repeats over a plateau of the chain parameter.
    plateau = [(0, -1, 1), (8, 0, 1), (8, 0, 3), (16, 2, 2)]
    assert _check_sweep(plateau, LO, HI, Fraction(1)) is None


def test_sweep_gate_reports_missed_endpoints():
    why = _check_sweep(rows("-1/2", 0, 1), LO, HI, Fraction(1))
    assert why == "endpoints -1/2..1 instead of -1..1"


@given(
    steps=st.lists(
        st.tuples(st.integers(0, 1), rationals(-1, 2, 6), st.integers(1, 6)), min_size=1, max_size=8
    ),
    lo=rationals(-1, 0, 2),
    hi=rationals(0, 3, 2),
    max_gap=rationals(1, 2, 4),
)
def test_sweep_gate_matches_the_fraction_oracle(steps, lo, hi, max_gap):
    # Each step keeps the rank or raises it by one; a kept rank repeats the element.
    # Each row carries its value over a multiple of the reduced denominator.
    rank, value, sweep = 0, lo, []
    for rank_step, rise, k in steps:
        rank, value = rank + rank_step, value + rise
        sweep.append((rank, k * value.numerator, k * value.denominator))
    oracle_rows = [(r, Fraction(num, den)) for r, num, den in sweep]
    assert _check_sweep(sweep, lo, hi, max_gap) == fraction_check_sweep(oracle_rows, lo, hi, max_gap)


def test_counterexample_counts_the_comparisons_it_makes():
    # Four prefix rows and four single values, the rerun, the uniform density.
    result = run_suite("counterexample", SuiteConfig())
    assert result.passed and result.checked == 10


def run_fake(monkeypatch, checks):
    monkeypatch.setitem(SUITES, "fake", (checks, "fake detail"))
    return run_suite("fake", SuiteConfig(seed=5))


def outcomes(*items):
    def checks(cfg, rng):
        yield from items
    return checks


def test_runner_counts_single_and_bulk_checks(monkeypatch):
    result = run_fake(monkeypatch, outcomes(None, CheckResult(True, 5), None))
    assert result == SuiteResult("fake", True, 7, "fake detail")


def test_runner_stops_at_the_first_failure(monkeypatch):
    reached = []

    def checks(cfg, rng):
        yield None
        yield CheckResult(True, 3)
        yield "first witness"
        reached.append("after the failure")
        yield "second witness"

    result = run_fake(monkeypatch, checks)
    assert result == SuiteResult("fake", False, 4, "failed", "first witness")
    assert reached == []


def test_a_failing_bulk_check_adds_nothing_to_the_count(monkeypatch):
    result = run_fake(monkeypatch, outcomes(None, CheckResult(False, 9, "bulk witness"), None))
    assert result == SuiteResult("fake", False, 1, "failed", "bulk witness")


def test_runner_seeds_the_random_by_seed_and_name(monkeypatch):
    def checks(cfg, rng):
        yield str(rng.random())

    assert run_fake(monkeypatch, checks).witness == str(random.Random("5:fake").random())


@pytest.mark.parametrize(
    "error, witness",
    [
        (PreconditionViolation("ranks must increase"), "PreconditionViolation: ranks must increase"),
        (RuntimeError("projection missed the cutset level"), "RuntimeError: projection missed the cutset level"),
    ],
)
def test_a_suite_that_raises_fails_with_the_checks_counted_so_far(monkeypatch, error, witness):
    def checks(cfg, rng):
        yield None
        yield CheckResult(True, 2)
        raise error

    assert run_fake(monkeypatch, checks) == SuiteResult("fake", False, 3, "failed", witness)


def test_a_suite_that_raises_anything_else_fails_with_an_internal_error(monkeypatch):
    def checks(cfg, rng):
        yield None
        raise TypeError("a program error")

    result = run_fake(monkeypatch, checks)
    assert result == SuiteResult("fake", False, 1, "failed", "internal error: TypeError: a program error")


def test_an_unknown_suite_raises_key_error():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", SuiteConfig())


def test_finite_regrade_fails_with_the_semimodularity_witness(monkeypatch):
    x, a, b = BitSubset(4, 0), BitSubset(4, 1), BitSubset(4, 2)
    monkeypatch.setattr("rglat.suites.semimodularity_gap", lambda family: (x, a, b))
    result = run_suite("finite-regrade", SuiteConfig())
    witness = f"boolean-4 is not upper semimodular: {a!r} and {b!r} cover {x!r}"
    assert result == SuiteResult("finite-regrade", False, 0, "failed", witness)


def test_tower_fails_on_a_boolean_rank_off_by_one_above_level_4(monkeypatch):
    # Only the 4 -> 8 embedding check reads a Boolean rank above level 4.
    def miscounted(n):
        return replace(boolean_lattice(n), rank=lambda x: Fraction(x.cardinality() + (x.n > 4)))

    monkeypatch.setattr("rglat.finite.boolean_lattice", miscounted)
    result = run_suite("tower", SuiteConfig())
    assert not result.passed
    assert result.witness == "isometry_boolean_4_8: rank not preserved at BitSubset(4, {})"


def test_diamond_check_names_the_first_broken_bound():
    # Boolean 2 as bitmasks with its top ranked 5: m = 0b01 joined along
    # w = 0 <= z = 0b10 climbs from rank 1 to 5, more than the height 1.
    ranks = {0: Fraction(0), 1: Fraction(1), 2: Fraction(1), 3: Fraction(5)}
    lattice = GradedLattice("skewed-b2", operator.and_, operator.or_, ranks.__getitem__, bottom=0, top=3)
    m, ms, w, z = 1, 0, 0, 2
    first, second = diamond_row(lattice, m, w, z), diamond_row(lattice, z, ms, m)
    assert not _diamond_holds(first)
    assert _diamond_witness(first, second) == "bound 'join along w<z' broken: lhs 4 > rhs 1"


# --- per-run tables: call counts, and a wrong value seen as the recomputing loop sees it

SEED7 = SuiteConfig(seed=7)


def stages():
    """The Boolean-4 and partition-4 stages the suites read."""
    return _finite_stage(boolean_family), _finite_stage(partition_family)


def count_calls(monkeypatch, name: str, real, wrong: dict | None = None) -> list:
    """Replace ``rglat.suites.<name>`` by ``real`` wrapped to record each call on a finite stage.

    ``wrong`` maps (lattice, a, b) to the value returned instead of the real one.
    """
    by_lattice = {id(stage.family.lattice): stage for stage in stages()}
    calls = []

    def wrapped(lattice, a, b):
        if id(lattice) in by_lattice:
            calls.append((by_lattice[id(lattice)], a, b))
        value = (wrong or {}).get((id(lattice), a, b))
        return real(lattice, a, b) if value is None else value

    monkeypatch.setattr(f"rglat.suites.{name}", wrapped)
    return calls


def recomputing_meet_contraction(stage, distance):
    """The partition half of ``metric`` with two distance calls per check."""
    lattice = stage.family.lattice
    for m in stage.modular:
        for x in stage.elements:
            for y in stage.elements:
                lhs = distance(lattice, lattice.meet(m, x), lattice.meet(m, y))
                yield f"meet contraction fails at m={m!r}" if lhs > distance(lattice, x, y) else None


def recomputing_finite_projection(defect):
    """The finite half of ``interval-projection`` with one defect call per check."""
    for stage in stages():
        lattice = stage.family.lattice
        for m in stage.modular:
            for (w, z), between in zip(stage.strict, stage.between):
                e = lattice.join(w, lattice.meet(m, z))
                for x in between:
                    ok = defect(lattice, e, x) == 0
                    yield None if ok else f"finite relative defect nonzero at m={m!r} w={w!r} z={z!r} x={x!r}"


def expected_from_the_last_half(suite: str, half) -> SuiteResult:
    """The result of ``suite`` when its last half is ``half``, from a passing run's count."""
    outcomes = list(half)
    passing = run_suite(suite, SEED7)
    first = next((i for i, why in enumerate(outcomes) if why is not None), None)
    if first is None:
        return passing
    before = passing.checked - len(outcomes)
    return SuiteResult(suite, False, before + first, "failed", outcomes[first])


def test_metric_reads_its_partition_distances_from_one_table(monkeypatch):
    calls = count_calls(monkeypatch, "updown_distance", updown_distance)
    assert run_suite("metric", SEED7).passed
    # 15 x 15 stage pairs, instead of two calls for each of 12 x 15 x 15 checks.
    elems = stages()[1].elements
    assert len(calls) == 225
    assert {(a, b) for _, a, b in calls} == {(a, b) for a in elems for b in elems}


def test_interval_projection_computes_each_finite_defect_once(monkeypatch):
    calls = count_calls(monkeypatch, "rank_modular_defect", rank_modular_defect)
    assert run_suite("interval-projection", SEED7).passed
    # One call per distinct (e, x), instead of 5,508, one per check.
    assert len(calls) == len(set(calls)) == 463
    assert sum(stage is stages()[1] for stage, _, _ in calls) == 207


@pytest.mark.parametrize("wrong", ["negative", "large"])
def test_a_wrong_partition_distance_fails_metric_as_the_recomputing_loop_does(monkeypatch, wrong):
    stage = stages()[1]
    lattice, elems = stage.family.lattice, stage.elements
    # A negative distance breaks a right-hand side; a large one on (bottom, bottom)
    # breaks the left-hand side of every m, x, y whose meets with m are the bottom.
    bottom = lattice.bottom
    key, value = ((elems[3], elems[7]), Fraction(-1)) if wrong == "negative" else ((bottom, bottom), Fraction(5))

    def distance(lat, a, b):
        return value if lat is lattice and (a, b) == key else updown_distance(lat, a, b)

    expected = expected_from_the_last_half("metric", recomputing_meet_contraction(stage, distance))
    count_calls(monkeypatch, "updown_distance", updown_distance, {(id(lattice), *key): value})
    result = run_suite("metric", SEED7)
    assert not result.passed and result == expected


@pytest.mark.parametrize("which", [0, 1], ids=["boolean", "partition"])
def test_a_wrong_finite_defect_fails_interval_projection_as_the_recomputing_loop_does(monkeypatch, which):
    stage = stages()[which]
    lattice = stage.family.lattice
    seen = []
    for m in stage.modular:
        for (w, z), between in zip(stage.strict, stage.between):
            e = lattice.join(w, lattice.meet(m, z))
            seen.extend((e, x) for x in between if (e, x) not in seen)
    key = seen[len(seen) // 2]

    def defect(lat, e, x):
        return Fraction(1) if lat is lattice and (e, x) == key else rank_modular_defect(lat, e, x)

    expected = expected_from_the_last_half("interval-projection", recomputing_finite_projection(defect))
    count_calls(monkeypatch, "rank_modular_defect", rank_modular_defect, {(id(lattice), *key): Fraction(1)})
    result = run_suite("interval-projection", SEED7)
    assert not result.passed and result == expected
