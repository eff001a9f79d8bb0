"""The balance and diamond suites check each quadruple as two three-element rows.

Both suites read ``core.diamond_row``.  The rows are pinned against the
quadruple formulas of ``oracle_helpers``: the balance residuals each row
carries (its rises minus its height), the same four bounds and the same
witness text, on every quadruple of the exhaustive stages and on random
interval quadruples.
Each check runs under the lattice's own rank, where every quadruple passes,
and under its square, which is not modular, so the witnesses are exercised.
The traffic guard counts the partition stage's lattice calls per run.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

import rglat.regrading as regrading
import rglat.suites as suites
from rglat.core import diamond_row
from rglat.finite import boolean_family, partition_family
from rglat.intervals import Ambient, intersect, interval_lattice, union
from rglat.suites import (
    SuiteConfig,
    _balance_holds,
    _balance_witness,
    _diamond_holds,
    _diamond_witness,
    run_suite,
    sweep_levels,
)

from oracle_helpers import quadruple_balance, quadruple_diamond
from strategies import mixed_interval_sets


def squared(lattice):
    """The lattice ranked by the square of its rank: strictly increasing, not modular."""
    rank = lattice.rank
    return dataclasses.replace(lattice, rank=lambda x: rank(x) * rank(x))


def verdict(holds, witness, first, second):
    """A quadruple's outcome as the suites form it from its two rows."""
    return None if holds(first) and holds(second) else witness(first, second)


def check_rows(lattice, m, ms, w, z) -> tuple:
    """Assert the rows agree with the quadruple formulas; return both witnesses."""
    d1, d2 = diamond_row(lattice, m, w, z), diamond_row(lattice, z, ms, m)
    (a, b, h), (c, d, k) = d1, d2
    residuals, balance_why = quadruple_balance(lattice, m, ms, w, z)
    assert (a + b - h, c + d - k) == residuals
    assert verdict(_balance_holds, _balance_witness, d1, d2) == balance_why
    bounds, diamond_why = quadruple_diamond(lattice, m, ms, w, z)
    assert [(lhs, rhs) for _, lhs, rhs in bounds] == [(a, h), (b, h), (c, k), (d, k)]
    assert verdict(_diamond_holds, _diamond_witness, d1, d2) == diamond_why
    return balance_why, diamond_why


@pytest.mark.parametrize("make", [partition_family, boolean_family], ids=["partition-4", "boolean-4"])
def test_rows_match_the_quadruple_formulas_on_every_stage_quadruple(make):
    stage = suites._finite_stage(make)
    lattice = stage.family.lattice
    nested = [(ms, m) for ms in stage.modular for m in stage.modular if lattice.leq(ms, m)]
    for ranked, fails in ((lattice, False), (squared(lattice), True)):
        whys = Counter()
        for ms, m in nested:
            for w, z in stage.pairs:
                for why in check_rows(ranked, m, ms, w, z):
                    whys[why.split(":")[0] if why else None] += 1
        if fails:
            # Squared ranks break residuals, bounds and row sums alike.
            assert {"bound 'join along w<z' broken", "row slacks do not sum to the row height"} <= set(whys)
            assert any(why and why.startswith("residuals") for why in whys)
        else:
            assert set(whys) == {None}


@settings(max_examples=150, deadline=None)
@given(m=mixed_interval_sets(), u=mixed_interval_sets(), w=mixed_interval_sets(), v=mixed_interval_sets())
def test_rows_match_the_quadruple_formulas_on_interval_quadruples(m, u, w, v):
    lattice = interval_lattice(Ambient(Fraction(2)))
    ms, z = intersect(m, u), union(w, v)
    assert check_rows(lattice, m, ms, w, z) == (None, None)
    check_rows(squared(lattice), m, ms, w, z)


def counting_stages(monkeypatch, counts: Counter) -> None:
    """Route the suites' partition stage through a lattice that counts its calls."""
    real = suites._finite_stage

    def counted(name, op):
        def wrapper(*args):
            counts[name] += 1
            return op(*args)
        return wrapper

    def stage(make):
        built = real(make)
        if make is not partition_family:
            return built
        lattice = built.family.lattice
        wrapped = dataclasses.replace(
            lattice,
            meet=counted("meet", lattice.meet),
            join=counted("join", lattice.join),
            rank=counted("rank", lattice.rank),
        )
        return dataclasses.replace(built, family=dataclasses.replace(built.family, lattice=wrapped))

    monkeypatch.setattr(suites, "_finite_stage", stage)


# 12 rank-modular partitions of 4 against 60 pairs w <= z, and 15 elements
# against 45 pairs ms <= m: the distinct rows of the 2,700 quadruples.
DISTINCT_ROWS = 12 * 60 + 15 * 45


@pytest.mark.parametrize("name", ["balance", "diamond"])
def test_the_partition_half_evaluates_each_distinct_row_once_per_run(monkeypatch, name):
    counts = Counter()
    counting_stages(monkeypatch, counts)
    cfg = SuiteConfig(seed=7, samples=1)
    runs = []
    for _ in range(2):
        counts.clear()
        result = run_suite(name, cfg)
        assert result.passed and result.checked == 1 + 45 * 60
        runs.append(dict(counts))
    # Each row makes two joins, and nothing else in the partition half joins.
    assert runs[0]["join"] == 2 * DISTINCT_ROWS
    # Nothing is kept from one run to the next.
    assert runs[0] == runs[1]


def test_monotone_surjective_builds_sweep_rows_for_the_chief_chain_only(monkeypatch):
    # The sampled chains are checked on integer rows; only the chief chain is
    # read off sweep_chief, once.
    built = Counter()
    real = regrading.SweepRow

    def sweep_row(side, *args):
        built[side] += 1
        return real(side, *args)

    monkeypatch.setattr(regrading, "SweepRow", sweep_row)
    cfg = SuiteConfig(seed=7)
    result = run_suite("monotone-surjective", cfg)
    assert result.passed and result.checked == 251
    assert built == {"chief": sweep_levels(cfg)} and sweep_levels(cfg) == 257
