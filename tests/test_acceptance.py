"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Each test prints a single pass line with its elapsed time.  All equality
assertions are exact rational comparisons; the time budgets are the only
inexact quantities here.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


from rglat.finite import (
    boolean_family,
    enumerate_maximal_chains,
    partition_family,
    rank_modular_elements,
)
from rglat.gen import random_comparable_pair, random_interval_set, random_set_with_mass
from rglat.intervals import EMPTY, IntervalSet
from rglat.limits import cauchy_approx
from rglat.regrading import counterexample_stage
from rglat.suites import SuiteConfig, run_suite

from oracle_helpers import antichain_cutsets, bare_order

# The report of `verify --suite all --seed 7`, written before the suites were
# refactored; it pins every suite's checked count and detail.
GOLDEN_VERIFY_ALL = Path(__file__).parent / "golden" / "verify_all_seed7.txt"

class _Timer:
    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.label}: PASS ({elapsed:.2f}s < {self.budget}s)")
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget}s budget"
        else:
            print(f"{self.label}: FAIL after {elapsed:.2f}s")
        return False


def iset(*pairs):
    return IntervalSet.of(*pairs)


def test_criterion_1_counterexample_exact():
    with _Timer("criterion 1 (counterexample reproduction)", 1.0):
        stage = counterexample_stage()
        for t in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            assert stage.regraded(iset((0, t))) == t - 1
        assert stage.regraded(iset((1, 2))) == Fraction(1, 2)
        assert stage.regraded(EMPTY) == Fraction(-1)
        defect = stage.regraded_defect(iset((0, 1)), iset((1, 2)))
        assert defect == Fraction(-1, 2)
        assert defect != 0


def test_criterion_2_level_set_property():
    with _Timer("criterion 2 (level-set property)", 5.0):
        stage = counterexample_stage()
        rng = random.Random(2026)
        for _ in range(200):
            z = random_set_with_mass(rng, stage.density, Fraction(1))
            assert stage.regraded(z) == 0
        produced = 0
        while produced < 200:
            z = random_interval_set(rng, Fraction(2), max_pieces=4)
            gz = stage.grade(z)
            if gz == 1:
                continue
            value = stage.regraded(z)
            assert value != 0
            assert (value > 0) == (gz > 1)
            produced += 1


def test_criterion_3_monotone_and_surjective():
    with _Timer("criterion 3 (monotonicity and surjectivity)", 10.0):
        result = run_suite(
            "monotone-surjective",
            SuiteConfig(seed=2026, samples=50, grid=Fraction(1, 64)),
        )
        assert result.passed, result.witness


def test_criterion_4_identity_suites():
    with _Timer("criterion 4 (exchange and bound identity suites)", 30.0):
        cfg_1000 = SuiteConfig(seed=2026, samples=1000)
        cfg_500 = SuiteConfig(seed=2026, samples=500)
        for name, cfg in (
            ("balance", cfg_1000),
            ("diamond", cfg_1000),
            ("left-modular", cfg_1000),
            ("chief-exchange", cfg_1000),
            ("interval-projection", cfg_500),
        ):
            result = run_suite(name, cfg)
            assert result.passed, f"{name}: {result.witness}"


def test_criterion_5_finite_oracle_counts():
    with _Timer("criterion 5 (finite oracle counts)", 5.0):
        assert len(rank_modular_elements(partition_family(4))) == 12
        assert len(antichain_cutsets(boolean_family(2).elements(), bare_order("boolean"))) == 3
        assert len(enumerate_maximal_chains(boolean_family(4))) == 24


def test_criterion_6_finite_regrading_crosscheck():
    with _Timer("criterion 6 (finite regrading cross-check)", 30.0):
        result = run_suite("finite-regrade", SuiteConfig(seed=2026))
        assert result.passed, result.witness


def test_criterion_7_tower_suite():
    with _Timer("criterion 7 (tower limits)", 10.0):
        result = run_suite("tower", SuiteConfig(seed=2026))
        assert result.passed, result.witness
        report = cauchy_approx(iset((0, "1/3")), [2, 4, 8, 16, 32, 64, 128, 256])
        assert report.rows[-1].distance_to_target <= Fraction(2, 256)


def test_criterion_8_discontinuity_demos():
    with _Timer("criterion 8 (discontinuity demos)", 2.0):
        result = run_suite("infinity-demos", SuiteConfig(seed=2026))
        assert result.passed, result.witness


def test_criterion_9_cli_verify_all_under_a_minute():
    with _Timer("criterion 9 (full verify run)", 60.0):
        proc = subprocess.run(
            [sys.executable, "-m", "rglat", "verify", "--suite", "all", "--seed", "7"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == GOLDEN_VERIFY_ALL.read_text(encoding="utf-8")
