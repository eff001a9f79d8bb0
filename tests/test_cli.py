import codecs
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rglat.cli import main
from rglat.errors import PreconditionViolation
from rglat.finite import boolean_family, element_from_json, element_to_json, partition_family, subspace_family
from rglat.intervals import (
    Ambient,
    IntervalSet,
    density_to_json,
    grade_value,
    interval_set_from_json,
    interval_set_to_json,
)
from rglat.rank import format_fraction
from rglat.regrading import FiniteRegrader, IntervalRegrader, LevelCutset
from rglat.suites import SUITES

from strategies import interval_sets, step_densities

FINAL_SPEC = {
    "lattice": {"kind": "interval", "ambient": "2/1"},
    "cutset": {
        "type": "level",
        "grading": {"density": {"breakpoints": ["0/1", "1/1", "2/1"], "values": ["1/1", "2/1"]}},
        "value": "1/1",
    },
    "targets": [
        {"intervals": [["1/1", "2/1"]]},
        {"intervals": [["0/1", "1/1"]]},
        {"intervals": []},
    ],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "finite-counts"]) == 0
        out = capsys.readouterr().out
        assert "PASS finite-counts" in out
        assert "seed=7" in out

    def test_unknown_suite_is_an_input_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_bad_grid_is_an_input_error(self):
        assert main(["verify", "--suite", "finite-counts", "--grid", "0/1"]) == 2

    @pytest.mark.parametrize("seed", ["7", "1"])
    @pytest.mark.parametrize("grid", ["1/8", "1/4", "1/2", "2/3", "3/4", "5/4", "2", "3", "4"])
    def test_monotone_surjective_passes_on_coarse_grids(self, grid, seed, capsys):
        # Halving these grids does not always shrink the largest gap; the exact
        # bound on each gap holds all the same.
        assert main(["verify", "--suite", "monotone-surjective", "--grid", grid, "--seed", seed]) == 0

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["verify", "--suite", "finite-counts", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# command=verify")
        assert "finite-counts,PASS" in text

    def test_json_format_prints_the_report_on_stdout(self, tmp_path, capsys):
        assert main(["verify", "--suite", "tower", "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["config"].endswith("format=json caps=elements:6000,chains:250000")
        assert printed["columns"] == ["suite", "status", "checked", "detail", "witness"]
        [(name, status, checked, _, witness)] = printed["rows"]
        assert (name, status, witness) == ("tower", "PASS", "") and int(checked) > 0
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "tower", "--format", "json", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        # Elapsed seconds differ between runs, so the comparison drops exactly the timings.
        assert set(written["timings"]) == set(printed.pop("timings")) == {"tower"}
        del written["timings"]
        assert written == printed

    def test_json_report_schema_with_timings(self, capsys):
        assert main(["verify", "--suite", "all", "--samples", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["config", "columns", "rows", "timings"]
        assert [row[0] for row in payload["rows"]] == list(payload["timings"]) == list(SUITES)
        assert all(type(elapsed) is float and elapsed >= 0 for elapsed in payload["timings"].values())

    def test_csv_report_is_the_same_from_run_to_run(self, tmp_path, capsys):
        # Only the JSON report carries timings; the CSV report stays byte-identical.
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["verify", "--suite", "tower", "--out", str(first)]) == 0
        assert main(["verify", "--suite", "tower", "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        assert "timings" not in first.read_text()

    def test_unwritable_out_fails_before_any_suite_runs(self, tmp_path, monkeypatch, capsys):
        def run_suites(names, cfg):
            raise AssertionError("the suites ran before the report file was opened")

        monkeypatch.setattr("rglat.suites.run_suites", run_suites)
        assert main(["verify", "--suite", "all", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: cannot write {tmp_path}")
        assert "PASS" not in captured.out
        assert "Traceback" not in captured.err

    def test_grid_past_the_sweep_cap_fails_before_any_suite_runs(self, tmp_path, capsys):
        report = tmp_path / "rep.txt"
        report.write_text("an earlier report\n")
        assert main(["verify", "--suite", "all", "--grid", "1/100000", "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--grid 1/100000" in captured.err
        assert "Traceback" not in captured.err
        assert report.read_text() == "an earlier report\n"

    def test_a_failure_prints_a_replay_command_that_reproduces_it(self, monkeypatch, capsys):
        # The first sweep passes, the next fails: the witness names the random
        # chain the seed drew and the row count the grid gives.
        calls = []

        def forced(rows, lo, hi, max_gap):
            calls.append(rows)
            return None if len(calls) == 1 else f"forced after {len(rows)} rows"

        monkeypatch.setattr("rglat.suites._check_sweep", forced)
        argv = ["verify", "--suite", "monotone-surjective", "--seed", "5", "--grid", "1/2", "--samples", "3"]
        assert main(argv) == 1
        fail, replay, config = capsys.readouterr().out.splitlines()
        assert fail.startswith("FAIL monotone-surjective checked=1 failed witness: chain through")
        assert replay == "replay: rglat verify --suite monotone-surjective --seed 5 --grid 1/2 --samples 3"
        assert config.startswith("# command=verify")

        calls.clear()
        assert main(replay.removeprefix("replay: rglat ").split()) == 1
        assert capsys.readouterr().out.splitlines()[:2] == [fail, replay]

        calls.clear()
        assert main([*argv, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["config", "columns", "rows", "replay", "timings"]
        assert payload["replay"] == [replay.removeprefix("replay: ")]
        assert fail.endswith(payload["rows"][0][4])

    @pytest.mark.parametrize(
        "name, error",
        [
            ("lipschitz", PreconditionViolation("chain ranks must strictly increase, got 3 then 3")),
            ("profiles", RuntimeError("projection missed the cutset level")),
        ],
    )
    def test_a_suite_that_raises_fails_alone(self, monkeypatch, capsys, name, error):
        def raising(cfg, rng):
            yield None
            raise error

        monkeypatch.setitem(SUITES, name, (raising, "never reported"))
        assert main(["verify", "--suite", "all", "--samples", "5"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail = f"FAIL {name} checked=1 failed witness: {type(error).__name__}: {error}"
        assert lines[lines.index(fail) + 1] == f"replay: rglat verify --suite {name} --seed 7 --grid 1/64 --samples 5"
        passed = [line.split()[1] for line in lines if line.startswith("PASS ")]
        assert passed == [other for other in SUITES if other != name]
        # A malformed command still fails before any suite runs.
        assert main(["verify", "--suite", "all", "--grid", "0"]) == 2
        assert not any(line.startswith(("PASS", "FAIL")) for line in capsys.readouterr().out.splitlines())

    def test_a_passing_report_has_no_replay(self, capsys):
        assert main(["verify", "--suite", "finite-counts", "--format", "json"]) == 0
        assert "replay" not in json.loads(capsys.readouterr().out)

    def test_sample_override_runs(self, capsys):
        assert main(["verify", "--suite", "balance", "--samples", "50", "--seed", "3"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_non_positive_samples_are_an_input_error(self, samples, capsys):
        assert main(["verify", "--suite", "level-set", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "sample count must be positive" in captured.err


class TestRegrade:
    def test_interval_targets(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", FINAL_SPEC)
        assert main(["regrade", spec]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any(line.endswith("1/2") and '""1/1"", ""2/1""' in line for line in lines)
        assert any(line.endswith("0/1") and '""0/1"", ""1/1""' in line for line in lines)
        assert any(line.endswith("-1/1") for line in lines)

    def test_chief_sweep_strictly_increases(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**FINAL_SPEC, "targets": []})
        assert main(["regrade", spec, "--grid", "1/8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sweep = [row for row in payload["rows"] if row[0] == "chief"]
        values = [row[4] for row in sweep]
        fractions = [tuple(map(int, v.split("/"))) for v in values]
        decimals = [a / b for a, b in fractions]
        assert decimals == sorted(decimals)
        assert decimals[0] == -1.0 and decimals[-1] == 1.0

    def test_target_on_cutset_gets_zero(self, tmp_path, capsys):
        spec = dict(FINAL_SPEC, targets=[{"intervals": [["0/1", "1/1"]]}])
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["regrade", path]) == 0
        assert ",0/1\n" in capsys.readouterr().out

    def test_finite_lattice_spec(self, tmp_path, capsys):
        spec = {
            "lattice": {"kind": "boolean", "n": 4},
            "cutset": {"type": "level", "grading": "rank", "value": "2/1"},
            "targets": [[1, 3, 4], [2]],
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["regrade", path]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out and "-1/1" in out

    def test_out_of_range_level_is_an_input_error(self, tmp_path, capsys):
        bad = dict(FINAL_SPEC, cutset={"type": "level", "grading": "lebesgue", "value": "9/1"})
        path = write_json(tmp_path / "spec.json", bad)
        assert main(["regrade", path]) == 2

    def test_corrupted_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["regrade", str(path)]) == 2

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["regrade", "/nonexistent/spec.json"]) == 2


MALFORMED_SPECS = {
    "top-level-list": [FINAL_SPEC],
    "missing-n": {**FINAL_SPEC, "lattice": {"kind": "boolean"}, "targets": []},
    "non-integer-n": {**FINAL_SPEC, "lattice": {"kind": "boolean", "n": "x"}, "targets": []},
    "fractional-n": {**FINAL_SPEC, "lattice": {"kind": "boolean", "n": 2.5}, "targets": []},
    "boolean-n": {**FINAL_SPEC, "lattice": {"kind": "boolean", "n": True}, "targets": []},
    "float-p": {**FINAL_SPEC, "lattice": {"kind": "subspace", "p": 2.0, "n": 2}, "targets": []},
    "string-cutset": {**FINAL_SPEC, "cutset": "level"},
    "string-lattice": {**FINAL_SPEC, "lattice": "interval"},
    "interval-without-ambient": {**FINAL_SPEC, "lattice": {"kind": "interval"}},
    "string-pair": {**FINAL_SPEC, "targets": [{"intervals": ["02"]}]},
    "string-intervals": {**FINAL_SPEC, "targets": [{"intervals": "02"}]},
    "object-pair": {**FINAL_SPEC, "targets": [{"intervals": [{"0/1": 0, "2/1": 0}]}]},
    "string-breakpoints": {
        **FINAL_SPEC,
        "cutset": {
            "type": "level",
            "grading": {"density": {"breakpoints": "02", "values": "1"}},
            "value": "1/1",
        },
    },
    "string-values": {
        **FINAL_SPEC,
        "cutset": {
            "type": "level",
            "grading": {"density": {"breakpoints": ["0/1", "2/1"], "values": "1"}},
            "value": "1/1",
        },
    },
}


def finite_spec(kind, targets, **sizes):
    return {
        "lattice": {"kind": kind, **sizes},
        "cutset": {"type": "level", "grading": "rank", "value": "1/1"},
        "targets": targets,
    }


MALFORMED_SPECS |= {
    "short-subspace-row-0": finite_spec("subspace", [[[0]]], p=2, n=3),
    "short-subspace-row-1": finite_spec("subspace", [[[1]]], p=2, n=3),
    "long-subspace-row": finite_spec("subspace", [[[0, 1, 0, 1]]], p=2, n=3),
    "float-subspace-entry": finite_spec("subspace", [[[1.0, 0, 0]]], p=2, n=3),
    "partition-member-twice": finite_spec("partition", [[[1, 1], [2], [3]]], n=3),
    "float-partition-member": finite_spec("partition", [[[1.0, 2], [3]]], n=3),
    "boolean-true-member": finite_spec("boolean", [[True, 2]], n=3),
    "boolean-float-member": finite_spec("boolean", [[1.0]], n=3),
    # A string or an object is not an element payload, though it iterates like one.
    "string-boolean-target": finite_spec("boolean", [""], n=4),
    "object-boolean-target": finite_spec("boolean", [{}], n=4),
    "string-subspace-target": finite_spec("subspace", [""], p=2, n=3),
    "string-partition-target": finite_spec("partition", ["123"], n=3),
    "string-explicit-elements": {
        **finite_spec("boolean", [], n=2),
        "cutset": {"type": "explicit", "elements": "abc"},
    },
    "empty-string-explicit-elements": {
        **finite_spec("boolean", [], n=2),
        "cutset": {"type": "explicit", "elements": ""},
    },
}


@pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_regrade_spec_is_an_input_error(spec, tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", spec)
    assert main(["regrade", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_field_beyond_the_element_cap_is_an_input_error(tmp_path, capsys):
    spec = {**FINAL_SPEC, "lattice": {"kind": "subspace", "p": 10**12 + 39, "n": 2}, "targets": []}
    assert main(["regrade", write_json(tmp_path / "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field size")
    assert "Traceback" not in err


def test_grid_on_a_finite_spec_is_an_input_error(tmp_path, capsys):
    # The grid sweeps the interval chief chain; a finite spec has none to sweep.
    path = write_json(tmp_path / "spec.json", finite_spec("boolean", [[1]], n=3))
    assert main(["regrade", path, "--grid", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "--grid" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "monotone-surjective", "--grid", "1/1000000"],
        ["regrade", str(Path(__file__).parent / "golden" / "density_spec.json"), "--grid", "1/1000000"],
    ],
    ids=["verify", "regrade"],
)
def test_grid_beyond_the_level_cap_is_an_input_error(argv, capsys):
    # Refused before any level is built, so this returns at once.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid step") and "cap" in captured.err
    assert "Traceback" not in captured.err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
NON_SPECS = JSON_VALUES | st.fixed_dictionaries(
    {"lattice": JSON_VALUES, "cutset": JSON_VALUES}, optional={"targets": JSON_VALUES}
)


@settings(max_examples=150)
@given(spec=NON_SPECS)
def test_arbitrary_non_spec_json_is_an_input_error(spec, tmp_path_factory):
    path = write_json(tmp_path_factory.mktemp("fuzz") / "spec.json", spec)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["regrade", path])
    assert code == 2
    assert err.getvalue().startswith("input error:")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150)
@given(
    lattice=st.sampled_from([("boolean", {"n": 3}), ("partition", {"n": 3}), ("subspace", {"p": 2, "n": 2})]),
    targets=st.lists(JSON_VALUES, max_size=3),
)
def test_arbitrary_finite_targets_exit_0_or_2(lattice, targets, tmp_path_factory):
    kind, sizes = lattice
    path = write_json(tmp_path_factory.mktemp("fuzz") / "spec.json", finite_spec(kind, targets, **sizes))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["regrade", path])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("input error:")
    assert "Traceback" not in err.getvalue()


def _regrade_rows(spec, tmp_path_factory) -> list[list[str]]:
    path = write_json(tmp_path_factory.mktemp("rows") / "spec.json", spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["regrade", path, "--format", "json"]) == 0
    return json.loads(out.getvalue())["rows"]


@settings(max_examples=40)
@given(
    density=st.none() | step_densities(),
    eighths=st.integers(1, 7),
    targets=st.lists(interval_sets(), min_size=1, max_size=4),
)
def test_interval_regrade_rows_match_regraded(density, eighths, targets, tmp_path_factory):
    # The CLI reads the regraded rank off the projection; regraded(z) solves it again.
    ambient = Ambient(Fraction(2))
    top = IntervalSet(((Fraction(0), Fraction(2)),))
    cutset = LevelCutset(grade_value(top, density) * eighths / 8, density)
    grading = "rank" if density is None else {"density": density_to_json(density)}
    spec = {
        "lattice": {"kind": "interval", "ambient": "2/1"},
        "cutset": {"type": "level", "grading": grading, "value": format_fraction(cutset.value)},
        "targets": [interval_set_to_json(z) for z in targets],
    }
    regrader = IntervalRegrader(ambient, cutset)
    rows = _regrade_rows(spec, tmp_path_factory)
    assert [row[4] for row in rows] == [
        format_fraction(regrader.regraded(interval_set_from_json({"intervals": json.loads(row[1])})))
        for row in rows
    ]
    assert len(rows) == len(targets)


FAMILIES = {
    "boolean": ({"n": 4}, lambda: boolean_family(4)),
    "partition": ({"n": 4}, lambda: partition_family(4)),
    "subspace": ({"p": 2, "n": 3}, lambda: subspace_family(2, 3)),
}


@settings(max_examples=30)
@given(kind=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_finite_regrade_rows_match_regraded(kind, data, tmp_path_factory):
    sizes, build = FAMILIES[kind]
    family = build()
    top = family.lattice.rank(family.lattice.top)
    level = data.draw(st.integers(1, int(top) - 1))
    targets = data.draw(st.lists(st.sampled_from(family.elements()), min_size=1, max_size=4))
    spec = finite_spec(kind, [element_to_json(z) for z in targets], **sizes)
    spec["cutset"]["value"] = f"{level}/1"
    regrader = FiniteRegrader(family, LevelCutset(Fraction(level)))
    rows = _regrade_rows(spec, tmp_path_factory)
    assert [row[4] for row in rows] == [
        format_fraction(regrader.regraded(element_from_json(family, json.loads(row[1])))) for row in rows
    ]
    assert len(rows) == len(targets)


class TestCounterexample:
    def test_matches_and_is_deterministic(self, capsys):
        assert main(["counterexample"]) == 0
        first = capsys.readouterr().out
        assert main(["counterexample"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "defect,,-1/2" in first
        assert "matches_expected: True" in first

    def test_json_format(self, capsys):
        assert main(["counterexample", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_expected"] == "True"
        assert ["full", "", "1/1"] in payload["rows"]


class TestLimit:
    def test_distance_table(self, tmp_path, capsys):
        path = write_json(tmp_path / "target.json", {"intervals": [["0/1", "1/3"]]})
        assert main(["limit", path]) == 0
        out = capsys.readouterr().out
        assert "256,1/768,1/256" in out
        assert "coherence_boolean: pass" in out
        assert "isometry_boolean: pass" in out

    def test_dyadic_target_zero_tail(self, tmp_path, capsys):
        path = write_json(tmp_path / "target.json", {"intervals": [["1/4", "3/4"]]})
        assert main(["limit", path, "--levels", "4,8,16"]) == 0
        out = capsys.readouterr().out
        assert "4,0/1," in out
        assert "16,0/1,0/1" in out

    def test_non_divisible_levels_are_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "target.json", {"intervals": [["0/1", "1/3"]]})
        assert main(["limit", path, "--levels", "2,3"]) == 2

    def test_string_pair_is_an_input_error(self, tmp_path, capsys):
        # The string "01" would otherwise unpack as the pair (0, 1].
        path = write_json(tmp_path / "target.json", {"intervals": ["01"]})
        assert main(["limit", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    def test_target_outside_unit_interval_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path / "target.json", {"intervals": [["0/1", "2/1"]]})
        assert main(["limit", path]) == 2


GOLDEN = Path(__file__).parent / "golden"
UNWRITABLE_OUT_RUNS = {
    "verify": ["verify", "--suite", "finite-counts"],
    "regrade": ["regrade", str(GOLDEN / "boolean3_spec.json")],
    "counterexample": ["counterexample"],
    "limit": ["limit", str(GOLDEN / "third.json"), "--levels", "2,4"],
}


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", list(UNWRITABLE_OUT_RUNS))
def test_unwritable_out_is_an_input_error(command, where, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.csv"
    assert main(UNWRITABLE_OUT_RUNS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out}: ")
    assert "Traceback" not in err


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["regrade"])  # missing the spec argument
    assert exc.value.code == 2


UNREADABLE_FILES = {
    "nested-arrays": b"[" * 100_000,
    "nested-objects": b'{"a":' * 3_000,
    "utf-16-bytes": b"\xff\xfe" + '{"intervals": []}'.encode("utf-16-le"),
}


@pytest.mark.parametrize("content", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys())
@pytest.mark.parametrize("command", ["regrade", "limit"])
def test_an_unreadable_file_is_an_input_error(command, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "lattice",
    [
        {"kind": "subspace", "p": 4, "n": 2},
        {"kind": "subspace", "p": -3, "n": 2},
        {"kind": "subspace", "p": 10**9 + 7, "n": 2},
        {"kind": "subspace", "p": 2, "n": 9},
        {"kind": "boolean", "n": 0},
        {"kind": "partition", "n": 9},
    ],
    ids=["p-4", "p-minus-3", "p-1e9+7", "subspace-n-9", "boolean-n-0", "partition-n-9"],
)
def test_a_bad_family_size_is_a_lattice_error(lattice, tmp_path, capsys):
    spec = {**finite_spec("boolean", []), "lattice": lattice}
    assert main(["regrade", write_json(tmp_path / "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# Every spec and target file among the goldens; counterexample.json is a report.
GOLDEN_INPUTS = {path.name: path.read_bytes() for path in GOLDEN.glob("*.json") if path.name != "counterexample.json"}


@st.composite
def damaged_inputs(draw) -> tuple[str, bytes]:
    """A golden spec or target, truncated, with a byte flipped, nested deep, re-encoded or behind a BOM."""
    name = draw(st.sampled_from(sorted(GOLDEN_INPUTS)))
    raw = GOLDEN_INPUTS[name]
    how = draw(st.sampled_from(["truncate", "flip", "nest", "encode", "bom"]))
    if how == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif how == "flip":
        i = draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
    elif how == "nest":
        opening, closing = draw(st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]))
        depth = draw(st.integers(1, 5_000))
        raw = opening * depth + raw + closing * depth
    elif how == "encode":
        raw = raw.decode("utf-8").encode(draw(st.sampled_from(["utf-16", "utf-16-be", "utf-32", "latin-1"])))
    else:
        raw = draw(st.sampled_from([codecs.BOM_UTF8, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE])) + raw
    return name, raw


@settings(max_examples=60)
@given(case=damaged_inputs())
def test_damaged_golden_inputs_keep_the_exit_contract(case, tmp_path_factory):
    name, raw = case
    path = tmp_path_factory.mktemp("bytes") / name
    path.write_bytes(raw)
    command = "limit" if name == "third.json" else "regrade"
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert main([command, str(path)]) in (0, 1, 2)


COLD_START = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "rglat")

golden = sys.argv[1]
import rglat.cli
seen = {"import": loaded()}
try:
    getattr(rglat, "no_such_name")
except AttributeError:
    seen["no_such_name"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen["codes"] = [rglat.cli.main(["regrade", golden + "/density_spec.json"]), rglat.cli.main(["counterexample"])]
    seen["regrade"] = loaded()
    seen["codes"].append(rglat.cli.main(["limit", golden + "/third.json"]))
    seen["limit"] = loaded()
from rglat import *
seen["unbound"] = [name for name in rglat.__all__ if name not in globals()]
seen["same"] = rglat.cauchy_approx is rglat.limits.cauchy_approx
print(json.dumps(seen))
"""


def test_each_command_loads_only_the_modules_it_runs():
    # A fresh interpreter: this test session has long since loaded every module.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(GOLDEN)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    core = ["rglat"] + [f"rglat.{name}" for name in ("cli", "core", "errors", "finite", "intervals", "rank", "regrading")]
    assert seen["import"] == seen["no_such_name"] == seen["regrade"] == core
    assert seen["codes"] == [0, 0, 0]
    assert "rglat.limits" in seen["limit"] and "rglat.suites" not in seen["limit"]
    assert seen["unbound"] == [] and seen["same"]
