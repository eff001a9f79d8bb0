"""Byte-for-byte pins of CLI reports.

The files under ``golden/`` were written by the CLI before the refactors
they now guard; a refactor must leave every report unchanged.  To change a
report on purpose, regenerate its file with the command listed here and
say why in the change log.  The scripts' files were written by running
``python scripts/<name>.py`` with ``src`` on the path.
"""

import runpy
from pathlib import Path

import pytest

from rglat.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parents[1] / "scripts"

CASES = [
    (["counterexample", "--format", "json"], "counterexample.json"),
    (["limit", "{golden}/third.json"], "limit_third.csv"),
    (["regrade", "{golden}/density_spec.json", "--grid", "1/4"], "regrade_density.csv"),
    # 3/10 does not divide 7/3: the last chief row, at 7/3, is off the grid.
    (["regrade", "{golden}/density7_3_spec.json", "--grid", "3/10"], "regrade_density7_3.csv"),
    (["regrade", "{golden}/boolean3_spec.json"], "regrade_boolean3.csv"),
    (["regrade", "{golden}/partition4_spec.json"], "regrade_partition4.csv"),
    (["regrade", "{golden}/subspace2_3_spec.json"], "regrade_subspace2_3.csv"),
    (["verify", "--suite", "tower"], "verify_tower.txt"),
    (["verify", "--suite", "finite-counts"], "verify_finite_counts.txt"),
    (["verify", "--suite", "finite-regrade"], "verify_finite_regrade.txt"),
    (["verify", "--suite", "all", "--seed", "2026", "--samples", "5"], "verify_all_seed2026_samples5.txt"),
    (["verify", "--suite", "all", "--seed", "3"], "verify_all_seed3.txt"),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[name for _, name in CASES])
def test_report_bytes_match_the_golden_file(argv, expected, capsys):
    assert main([arg.format(golden=GOLDEN) for arg in argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")


SCRIPT_CASES = [
    ("counterexample_report.py", "counterexample_report.txt"),
    ("limit_convergence.py", "limit_convergence.csv"),
    ("verify_all.py", "verify_all_seed7.txt"),
]


@pytest.mark.parametrize("script, expected", SCRIPT_CASES, ids=[name for name, _ in SCRIPT_CASES])
def test_script_output_matches_the_golden_file(script, expected, capsys):
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as done:
        assert done.code in (0, None)
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")
