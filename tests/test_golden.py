"""Byte-for-byte pins of CLI reports.

The files under ``golden/`` were written by the CLI before the refactors
they now guard; a refactor must leave every report unchanged.  To change a
report on purpose, regenerate its file with the command listed here and
say why in the change log.
"""

from pathlib import Path

import pytest

from rglat.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["counterexample", "--format", "json"], "counterexample.json"),
    (["limit", "{golden}/third.json"], "limit_third.csv"),
    (["regrade", "{golden}/density_spec.json", "--grid", "1/4"], "regrade_density.csv"),
    (["regrade", "{golden}/boolean3_spec.json"], "regrade_boolean3.csv"),
    (["regrade", "{golden}/partition4_spec.json"], "regrade_partition4.csv"),
    (["regrade", "{golden}/subspace2_3_spec.json"], "regrade_subspace2_3.csv"),
    (["verify", "--suite", "tower"], "verify_tower.txt"),
    (["verify", "--suite", "finite-counts"], "verify_finite_counts.txt"),
    (["verify", "--suite", "finite-regrade"], "verify_finite_regrade.txt"),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[name for _, name in CASES])
def test_report_bytes_match_the_golden_file(argv, expected, capsys):
    assert main([arg.format(golden=GOLDEN) for arg in argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")
