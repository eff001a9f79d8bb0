"""Self-test of the benchmark on tiny inputs: ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, run_workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_emitted_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    run = run_workload(workload, 5, 0, trace, TINY)
    metrics = run.metrics()
    expected = workloads.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert run.attempted > 0 and run.failed == 0, run.failures
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_expected_count_raises_fail_ratio():
    spec = TINY.families[0]
    wrong = dataclasses.replace(spec, elements=spec.elements + 1)
    scale = dataclasses.replace(TINY, families=(wrong,) + TINY.families[1:])
    run = run_workload("finite-regrade", 5, 0, False, scale)
    assert run.failed / run.attempted > 0


def test_corrupted_expected_measure_raises_fail_ratio(monkeypatch):
    monkeypatch.setattr(oracle, "measure", lambda payload: 0)
    run = run_workload("interval-regrade", 5, 0, False, TINY)
    assert run.failed / run.attempted > 0


def test_counts_and_outputs_repeat_for_a_fixed_seed():
    first = run_workload("finite-regrade", 9, 0, True, TINY)
    second = run_workload("finite-regrade", 9, 0, True, TINY)
    assert first.details["call_counts"] == second.details["call_counts"]
    for key in ("meet", "join", "rank"):
        assert first.layer[f"core.{key}_calls"] == second.layer[f"core.{key}_calls"] > 0
    assert first.digests[0] == second.digests[0]


def test_closed_form_counts():
    assert [oracle.element_count(*f) for f in [("boolean", (7,)), ("partition", (6,)),
                                               ("subspace", (2, 4)), ("subspace", (3, 3))]] == [128, 203, 67, 28]
    assert [oracle.chain_count(*f) for f in [("boolean", (7,)), ("partition", (6,)),
                                             ("subspace", (2, 4)), ("subspace", (3, 3))]] == [5040, 2700, 315, 52]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
