import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rglat.core import CheckResult, GradedLattice, diamond_row
from rglat.errors import PreconditionViolation
from rglat.finite import BitSubset
from rglat.suites import (
    SUITES,
    SuiteConfig,
    SuiteResult,
    _check_sweep,
    _diamond_holds,
    _diamond_witness,
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


def test_a_suite_that_raises_anything_else_is_not_caught(monkeypatch):
    def checks(cfg, rng):
        yield None
        raise TypeError("a program error")

    with pytest.raises(TypeError, match="a program error"):
        run_fake(monkeypatch, checks)


def test_an_unknown_suite_raises_key_error():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", SuiteConfig())


def test_finite_regrade_fails_with_the_semimodularity_witness(monkeypatch):
    x, a, b = BitSubset(4, 0), BitSubset(4, 1), BitSubset(4, 2)
    monkeypatch.setattr("rglat.suites.semimodularity_gap", lambda family: (x, a, b))
    result = run_suite("finite-regrade", SuiteConfig())
    witness = f"boolean-4 is not upper semimodular: {a!r} and {b!r} cover {x!r}"
    assert result == SuiteResult("finite-regrade", False, 0, "failed", witness)


def test_diamond_check_names_the_first_broken_bound():
    # Boolean 2 as bitmasks with its top ranked 5: m = 0b01 joined along
    # w = 0 <= z = 0b10 climbs from rank 1 to 5, more than the height 1.
    ranks = {0: Fraction(0), 1: Fraction(1), 2: Fraction(1), 3: Fraction(5)}
    lattice = GradedLattice("skewed-b2", operator.and_, operator.or_, ranks.__getitem__, bottom=0, top=3)
    m, ms, w, z = 1, 0, 0, 2
    first, second = diamond_row(lattice, m, w, z), diamond_row(lattice, z, ms, m)
    assert not _diamond_holds(first)
    assert _diamond_witness(first, second) == "bound 'join along w<z' broken: lhs 4 > rhs 1"
