from fractions import Fraction

from rglat.regrading import SweepRow
from rglat.suites import SuiteConfig, _examine_sweeps, run_suite


def rows(*values):
    return [SweepRow("chief", Fraction(i), Fraction(i), Fraction(v)) for i, v in enumerate(values)]


LO, HI = Fraction(-1), Fraction(1)


def test_sweep_gate_passes_when_the_max_gap_shrinks():
    assert _examine_sweeps(rows(-1, 0, 1), rows(-1, "-1/2", 0, "1/2", 1), LO, HI) is None


def test_sweep_gate_fails_when_the_max_gap_does_not_shrink():
    # The fine grid keeps a gap of 1, as large as the coarse grid's.
    why = _examine_sweeps(rows(-1, 0, 1), rows(-1, 0, "1/2", "3/4", 1), LO, HI)
    assert why == "max regraded gap did not shrink with the grid"


def test_sweep_gate_reports_a_fine_grid_that_does_not_increase():
    why = _examine_sweeps(rows(-1, 0, 1), rows(-1, 0, 0, 1), LO, HI)
    assert why == "fine grid: regraded column not strictly increasing"


def test_counterexample_counts_the_comparisons_it_makes():
    # Four prefix rows and four single values, the rerun, the uniform density.
    result = run_suite("counterexample", SuiteConfig())
    assert result.passed and result.checked == 10
