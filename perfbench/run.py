"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` directory and nowhere else; without it the run exits 2
and prints no result.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  A full
record of the run (environment, counts, digest, spans) is written to
``perfbench/out/``.  The exit code is 1 when any output fails its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_revision(root: Path) -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_program() -> bool:
    """Import rglat from the checkout's src; False when it is not there."""
    if not (SRC / "rglat" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    try:
        rglat = importlib.import_module("rglat")
    except ImportError:
        return False
    return Path(rglat.__file__).resolve().is_relative_to(SRC)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        print(f"rglat not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = run.metrics()
    digest = run.digests[0] if run.digests else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "batches": len(run.batch_spans),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "output_sha256": digest,
        "metrics": metrics,
        **run.details,
    }
    if run.tracer is not None:
        record["spans"] = run.tracer.export()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for failure in run.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"output sha256 {digest}")
    print(f"record {path.relative_to(ROOT)}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
