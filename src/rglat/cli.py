"""Batch command-line front end.

Four subcommands: ``verify`` runs the named identity suites, ``regrade``
computes projections and regraded ranks for targets from a JSON spec,
``counterexample`` reproduces the two-speed density instance, and ``limit``
emits the tower convergence table.  Reports print rationals exactly as
``p/q``; a decimal column, where present, is display only.  Exit codes:
0 all checks pass, 1 a property failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction

from . import finite
from .errors import InputFormatError, LatticeError
from .finite import (
    boolean_family,
    element_from_json,
    element_to_json,
    partition_family,
    subspace_family,
)
from .intervals import Ambient, interval_set_from_json, interval_set_to_json, measure
from .limits import cauchy_approx, tower_checks
from .rank import format_fraction, parse_fraction
from .regrading import (
    MAX_GRID_LEVELS,
    FiniteRegrader,
    IntervalRegrader,
    LevelCutset,
    counterexample_report,
    cutset_from_json,
)
from .suites import SUITES, SuiteConfig, run_suites, sweep_levels


def _config_line(args: argparse.Namespace) -> str:
    parts = [f"command={args.command}"]
    for key in ("suite", "seed", "samples", "grid", "levels", "format"):
        if hasattr(args, key) and getattr(args, key) is not None:
            parts.append(f"{key}={getattr(args, key)}")
    if args.command == "verify":
        parts.append(f"caps=elements:{finite.MAX_ELEMENTS},chains:{finite.MAX_CHAINS}")
    return " ".join(parts)


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _emit(args: argparse.Namespace, header: list[str], rows: list[list[str]], extra: dict, out=None) -> None:
    """Print the report, or write it to ``args.out``; ``out`` is that file if the caller opened it."""
    config = _config_line(args)
    if args.format == "json":
        payload = {"config": config, "columns": header, "rows": rows, **extra}
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        buf.write(f"# {config}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        for key, value in extra.items():
            for item in value if isinstance(value, list) else [value]:
                buf.write(f"# {key}: {item}\n")
        text = buf.getvalue()
    if args.out:
        try:
            with out or _open_out(args.out) as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        print(f"unknown suite {args.suite!r}; available: all, {', '.join(SUITES)}", file=sys.stderr)
        return 2
    cfg = SuiteConfig(seed=args.seed, samples=args.samples, grid=parse_fraction(args.grid))
    if cfg.grid <= 0:
        print("grid step must be positive", file=sys.stderr)
        return 2
    levels = sweep_levels(cfg)
    if levels > MAX_GRID_LEVELS:
        print(
            f"error: grid step too fine: --grid {args.grid} sweeps at half that step, "
            f"{levels} levels, over the cap {MAX_GRID_LEVELS}",
            file=sys.stderr,
        )
        return 2
    if cfg.samples is not None and cfg.samples <= 0:
        print("sample count must be positive", file=sys.stderr)
        return 2
    # The report file is opened before the suites run, so an unwritable path fails fast.
    with _open_out(args.out) if args.out else contextlib.nullcontext() as out:
        results, timings = run_suites(names, cfg)
        rows = [
            [res.name, "PASS" if res.passed else "FAIL", str(res.checked), res.detail, res.witness or ""]
            for res in results
        ]
        replay = {res.name: _replay(res.name, cfg) for res in results if not res.passed}
        # JSON on stdout is the report alone, so it parses; otherwise the text lines come first.
        if args.format == "csv" or args.out:
            for name, status, checked, detail, witness in rows:
                print(f"{status} {name} checked={checked} {detail}" + (f" witness: {witness}" if witness else ""))
                if name in replay:
                    print(f"replay: {replay[name]}")
            print(f"# {_config_line(args)}")
        if args.format == "json" or args.out:
            extra = {"replay": list(replay.values())} if replay else {}
            if args.format == "json":
                # Wall-clock seconds: the one part of a JSON report that differs between runs.
                extra["timings"] = timings
            _emit(args, ["suite", "status", "checked", "detail", "witness"], rows, extra, out)
    return 0 if all(r.passed for r in results) else 1


def _replay(name: str, cfg: SuiteConfig) -> str:
    """The command that reruns one suite with the run's seed, grid and sample count."""
    command = f"rglat verify --suite {name} --seed {cfg.seed} --grid {cfg.grid}"
    return command if cfg.samples is None else f"{command} --samples {cfg.samples}"


def _spec_size(spec: dict, key: str) -> int:
    # JSON integers only: 2.5, "4" and true are not lattice sizes.
    value = spec.get(key)
    if type(value) is not int:
        raise InputFormatError(f"lattice spec needs an integer {key!r}: {spec!r}")
    return value


def _family_from_spec(spec: dict):
    kind = spec.get("kind")
    try:
        if kind == "boolean":
            return boolean_family(_spec_size(spec, "n"))
        if kind == "partition":
            return partition_family(_spec_size(spec, "n"))
        if kind == "subspace":
            return subspace_family(_spec_size(spec, "p"), _spec_size(spec, "n"))
    except ValueError as exc:
        raise InputFormatError(f"bad {kind} lattice spec: {spec!r}") from exc
    raise InputFormatError(f"unknown lattice kind {kind!r}")


def cmd_regrade(args: argparse.Namespace) -> int:
    spec = _load_json(args.spec)
    if not isinstance(spec, dict):
        raise InputFormatError(f"regrade spec must be a JSON object, got {spec!r}")
    try:
        lattice_spec = spec["lattice"]
        cutset_spec = spec["cutset"]
    except KeyError as exc:
        raise InputFormatError(f"regrade spec is missing {exc}") from exc
    targets = spec.get("targets", [])
    if not isinstance(lattice_spec, dict) or not isinstance(targets, list):
        raise InputFormatError("regrade spec needs a lattice object and a targets array")
    rows: list[list[str]] = []
    if lattice_spec.get("kind") == "interval":
        if "ambient" not in lattice_spec:
            raise InputFormatError("interval lattice spec is missing 'ambient'")
        ambient = Ambient(parse_fraction(lattice_spec["ambient"]))
        cutset = cutset_from_json(cutset_spec)
        if not isinstance(cutset, LevelCutset):
            raise InputFormatError("interval regrading needs a level cutset")
        regrader = IntervalRegrader(ambient, cutset)
        for payload in targets:
            z = interval_set_from_json(payload, ambient)
            # The regraded rank is read off the projection, so z is projected once.
            projection = regrader.project(z)
            rows.append([
                "target",
                json.dumps(interval_set_to_json(z)["intervals"]),
                format_fraction(regrader.grade(z)),
                json.dumps(interval_set_to_json(projection.element)["intervals"]),
                format_fraction(measure(z) - measure(projection.element)),
            ])
        if args.grid is not None:
            for row in regrader.sweep_chief(parse_fraction(args.grid)):
                rows.append([
                    row.side,
                    format_fraction(row.level),
                    format_fraction(row.rank),
                    "",
                    format_fraction(row.regraded),
                ])
        header = ["kind", "element_or_level", "grade", "projection", "regraded"]
    else:
        if args.grid is not None:
            raise InputFormatError("--grid sweeps the chief chain of interval specs only")
        family = _family_from_spec(lattice_spec)
        regrader = FiniteRegrader(family, cutset_from_json(cutset_spec, family))
        for payload in targets:
            z = element_from_json(family, payload)
            projection = regrader.project(z)
            rank = family.lattice.rank(z)
            rows.append([
                "target",
                json.dumps(element_to_json(z)),
                str(rank),
                json.dumps(element_to_json(projection.element)),
                format_fraction(rank - family.lattice.rank(projection.element)),
            ])
        header = ["kind", "element", "rank", "projection", "regraded"]
    _emit(args, header, rows, {})
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    report = counterexample_report()
    rows = [["prefix", format_fraction(t), format_fraction(v)] for t, v in report.prefix_rows]
    rows.append(["upper-half", "", format_fraction(report.upper_half)])
    rows.append(["full", "", format_fraction(report.full_interval)])
    rows.append(["empty", "", format_fraction(report.empty_set)])
    rows.append(["defect", "", format_fraction(report.modular_defect)])
    ok = report.matches_expected
    _emit(
        args,
        ["row", "parameter", "regraded"],
        rows,
        {"chief_modularity_broken": str(report.modular_defect != 0), "matches_expected": str(ok)},
    )
    return 0 if ok else 1


def cmd_limit(args: argparse.Namespace) -> int:
    payload = _load_json(args.target)
    target = interval_set_from_json(payload, Ambient(Fraction(1)))
    try:
        levels = [int(part) for part in args.levels.split(",") if part]
    except ValueError as exc:
        raise InputFormatError(f"bad level list {args.levels!r}") from exc
    report = cauchy_approx(target, levels)
    rows = [
        [
            str(row.level),
            format_fraction(row.distance_to_target),
            "" if row.distance_to_previous is None else format_fraction(row.distance_to_previous),
        ]
        for row in report.rows
    ]
    summary = {"within_bound": str(report.bound_ok)}
    checks = tower_checks()
    for label, res in checks.items():
        summary[label] = "pass" if res.ok else f"fail: {res.witness}"
    checks_ok = report.bound_ok and all(res.ok for res in checks.values())
    _emit(args, ["level", "distance_to_target", "distance_to_previous"], rows, summary)
    return 0 if checks_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rglat",
        description="Exact checks and constructions for real-graded lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all", help="suite name or 'all'")
    p_verify.add_argument("--samples", type=int, default=None, help="override random sample counts")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--grid", default="1/64", help="grid step for continuity scans")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=cmd_verify)

    p_regrade = sub.add_parser("regrade", help="project targets onto a cutset and regrade")
    p_regrade.add_argument("spec", help="JSON file with lattice, cutset, targets")
    p_regrade.add_argument(
        "--grid", default=None, help="also sweep the chief chain at this step (interval specs only)"
    )
    p_regrade.add_argument("--out", default=None)
    p_regrade.add_argument("--format", choices=("csv", "json"), default="csv")
    p_regrade.set_defaults(func=cmd_regrade)

    p_counter = sub.add_parser("counterexample", help="reproduce the two-speed density instance")
    p_counter.add_argument("--out", default=None)
    p_counter.add_argument("--format", choices=("csv", "json"), default="csv")
    p_counter.set_defaults(func=cmd_counterexample)

    p_limit = sub.add_parser("limit", help="tower approximation distance table")
    p_limit.add_argument("target", help="JSON file with an interval set in (0, 1]")
    p_limit.add_argument("--levels", default="2,4,8,16,32,64,128,256")
    p_limit.add_argument("--out", default=None)
    p_limit.add_argument("--format", choices=("csv", "json"), default="csv")
    p_limit.set_defaults(func=cmd_limit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
