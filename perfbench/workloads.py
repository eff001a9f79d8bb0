"""The benchmark's three workloads, their correctness gate and their probes.

Each workload runs in its own process on one thread, as a closed loop: the
next call starts when the previous one returns.  Batches repeat until the
run's time is up.  An untraced run times the batches and their items.  A
traced run first times one untraced reference batch, then records spans
around every call the benchmark makes into a layer; the difference between
the two batch times is the tracing overhead.

Workloads, and why each was chosen:

- ``verify-all``: the headline ``rglat verify --suite all``.  Many tiny
  interval sets with power-of-two denominators plus partition kernels;
  chain sweeps dominate.
- ``interval-regrade``: what ``rglat regrade`` does per target, on wide
  targets with mixed denominators.  Profiles, projection and the interval
  kernel on large elements dominate; the finite layers are unused.
- ``finite-regrade``: four finite families regraded under every interior
  rank level, with construction and the exhaustive crosscheck.  Finite
  enumeration dominates; the interval layer is unused, and elements repeat
  across the cutsets of one family.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import importlib
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

import inputs
import oracle
from hostspeed import HostSpeed, clock
from spans import CallCounter, Tracer, untraced

from rglat import cli, finite, intervals, limits, rank, regrading, suites

SUITE_NAMES = (
    "lattice-axioms",
    "balance",
    "diamond",
    "lipschitz",
    "left-modular",
    "chief-exchange",
    "interval-projection",
    "profiles",
    "modular-grading",
    "level-set",
    "monotone-surjective",
    "finite-counts",
    "finite-regrade",
    "metric",
    "tower",
    "infinity-demos",
    "counterexample",
    "json-roundtrip",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

INTERVAL_PROBES = (
    "profile_bundle",
    "intersect",
    "union",
    "normalize",
    "measure",
    "density_mass",
    "prefix_inverse",
)
FAMILY_PROBES = ("elements", "maximal_chains", "chief_chain", "rank_modular_elements")
KERNEL_PROBES = ("partition_meet", "partition_join", "subspace_meet", "subspace_join")

# Per-layer metrics: a ``_us``/``_ns`` metric is the median time of one call;
# an ``_ms``/``_s`` metric is the total time per batch (median over batches),
# or over the run's one probe pass for ``finite.*_ms``.  A layer that the
# workload never calls reads 0.
PER_LAYER_UNITS = {
    **{f"suites.{name}_s": "s" for name in SUITE_NAMES},
    "regrading.project_us": "us",
    "regrading.regraded_us": "us",
    "regrading.grade_us": "us",
    "intervals.from_json_us": "us",
    "intervals.to_json_us": "us",
    **{f"intervals.{name}_us": "us" for name in INTERVAL_PROBES},
    "intervals.breakpoints_per_item": "count",
    "regrading.sweep_chief_ms": "ms",
    "regrading.finite_init_ms": "ms",
    "regrading.crosscheck_ms": "ms",
    "regrading.finite_project_us": "us",
    "regrading.finite_regraded_us": "us",
    **{f"finite.{name}_ms": "ms" for name in FAMILY_PROBES},
    **{f"finite.{name}_us": "us" for name in KERNEL_PROBES},
    "core.meet_calls": "count",
    "core.join_calls": "count",
    "core.rank_calls": "count",
    "limits.updown_metric_us": "us",
    "rank.arith_ns": "ns",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    args: tuple
    elements: int
    chains: int

    @property
    def name(self) -> str:
        return f"{self.kind}{self.args}"

    def build(self):
        return getattr(finite, f"{self.kind}_family")(*self.args)


def family_spec(kind: str, *args: int) -> FamilySpec:
    return FamilySpec(kind, args, oracle.element_count(kind, args), oracle.chain_count(kind, args))


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` serves the self-test."""

    verify_suites: tuple[str, ...]
    interval_targets: int
    pieces: tuple[int, int]
    sweep_step: Fraction
    families: tuple[FamilySpec, ...]
    probe_items: int
    setup_repeats: int


FULL = Scale(
    verify_suites=("all",),
    interval_targets=1000,
    pieces=(4, 24),
    sweep_step=Fraction(1, 16),
    families=(
        family_spec("boolean", 7),
        family_spec("partition", 6),
        family_spec("subspace", 2, 4),
        family_spec("subspace", 3, 3),
    ),
    probe_items=200,
    setup_repeats=21,
)

TINY = Scale(
    verify_suites=("counterexample", "finite-counts"),
    interval_targets=12,
    pieces=(4, 6),
    sweep_step=Fraction(1, 2),
    families=(
        family_spec("boolean", 3),
        family_spec("partition", 4),
        family_spec("subspace", 2, 2),
        family_spec("subspace", 3, 2),
    ),
    probe_items=6,
    setup_repeats=2,
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """State of one benchmark run: timings, checks, digest and spans.

    Every time reported is in reference seconds (see ``hostspeed``).
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: Scale):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.speed = HostSpeed()
        self.tracer = Tracer(self.speed.reference) if trace else None
        self.rng = random.Random(f"{seed}:{workload}")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_spans: dict[str, list[tuple[float, float]]] = {"import": [], "build": []}
        self.batch_spans: list[tuple[float, float]] = []
        self.samples: list[list[tuple[str, float, float]]] = []
        self.digests: list[str] = []
        self.layer: dict[str, float] = {}
        self.details: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Call ``fn``; a raise counts as a failed check and gives None."""
        try:
            return fn(*args)
        except Exception:
            self.check(False, f"{what} raised:\n{traceback.format_exc(limit=4)}")
            return None

    def label(self, item: str | None) -> None:
        """Tag the spans that follow with an item id."""
        if self.tracer is not None:
            self.tracer.item = item

    def setup(self, build):
        """Import the program afresh and build its objects, several times."""
        for _ in range(self.scale.setup_repeats):
            start = clock()
            _import_program()
            self.setup_spans["import"].append((start, clock()))
            gc.collect()  # free the discarded copy before it adds to peak_rss_mb
            start = clock()
            built = build()
            self.setup_spans["build"].append((start, clock()))
        return built

    def batches(self, batch) -> None:
        """Run ``batch(call)`` while another batch is expected to end in time.

        ``batch`` returns the digest of its outputs.  It checks its outputs
        in the first batch; every later batch must reproduce that digest.
        A traced run ends with one untraced batch, the reference for the
        tracing overhead.
        """
        deadline = clock() + self.seconds
        traced = self.tracer is not None
        while True:
            self._one(batch, traced)
            mean = statistics.mean(e - s for s, e in self.batch_spans)
            if clock() + mean * (1 + traced) > deadline:
                break
        if traced:
            self._one(batch, False)

    def _one(self, batch, traced: bool) -> None:
        self.samples.append([])
        index = self.tracer.begin("batch") if traced else None
        start = clock()
        digest = batch(self.tracer.call if traced else untraced)
        self.batch_spans.append((start, clock()))
        if traced:
            self.tracer.end(index)
        if self.digests:
            self.check(digest == self.digests[0], "batch outputs differ from the first batch")
        self.digests.append(digest)

    @property
    def first_batch(self) -> bool:
        """True while the run's first batch runs; later ones are checked by digest."""
        return not self.digests

    def unit(self, key: str, fn, *args):
        """Call ``fn`` and record its span as unit ``key`` of the current batch.

        A batch's time is the sum of its units, which leaves out the
        benchmark's own checking.  Keys starting with ``item:`` are items;
        an item's time is its median over the run's batches.
        """
        start = clock()
        out = fn(*args)
        self.samples[-1].append((key, start, clock()))
        return out

    def metrics(self) -> dict:
        ref = self.speed.reference
        self.details["setup_s"] = {k: [ref(s, e) for s, e in v] for k, v in self.setup_spans.items()}
        setup = sum(statistics.median(times) for times in self.details["setup_s"].values())
        self.details["raw_batch_s"] = [e - s for s, e in self.batch_spans]
        batches = [[(key, ref(s, e)) for key, s, e in units] for units in self.samples]
        walls = [sum(t for _, t in units) for units in batches]
        if self.tracer is None:
            per_item: dict[str, list[float]] = {}
            for units in batches:
                for key, t in units:
                    if key.startswith("item:"):
                        per_item.setdefault(key, []).append(t)
            items = [statistics.median(times) for times in per_item.values()]
            self.details["items"] = len(items)
            self.details["samples_per_item"] = len(batches)
            values = {
                "setup_s": setup,
                "wall_s": statistics.median(walls),
                "item_p50_ms": percentile(items, 0.50) * 1e3,
                "item_p99_ms": percentile(items, 0.99) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        else:
            values = {name: self.layer.get(name, 0.0) for name in PER_LAYER_UNITS}
            values["trace.overhead_s"] = statistics.median(walls[:-1]) - walls[-1]
            units = PER_LAYER_UNITS
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def record_layers(self, spec: dict) -> None:
        """Fill per-layer metrics from spans: name -> (span name, unit scale, per pass)."""
        for metric, (span, scale, parent) in spec.items():
            if parent is None:
                self.layer[metric] = self.tracer.per_call(span, scale)
            else:
                self.layer[metric] = self.tracer.per_pass(span, scale, parent)


def _import_program() -> None:
    """Import rglat afresh, then put the modules in use back."""
    def ours(name: str) -> bool:
        return name == "rglat" or name.startswith("rglat.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("rglat.cli")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# --- verify-all ---------------------------------------------------------------

def verify_all(run: Run) -> None:
    scale = run.scale
    cfg = run.setup(lambda: suites.SuiteConfig(seed=run.seed))
    expected = SUITE_NAMES if scale.verify_suites == ("all",) else scale.verify_suites

    def command(name: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", name, "--seed", str(run.seed)])
        return code, buf.getvalue()

    def batch(call):
        statuses = []
        if call is untraced:
            for name in scale.verify_suites:
                out = run.guard(f"verify --suite {name}", run.unit, f"item:{name}", command, name)
                if out is None:
                    continue
                code, text = out
                run.check(code == 0, f"verify --suite {name} exited {code}")
                for line in text.splitlines():
                    status, _, rest = line.partition(" ")
                    if status in ("PASS", "FAIL"):
                        statuses.append([rest.split(" ", 1)[0], status])
        else:
            for name in expected:
                result = run.guard(f"suite {name}", run.unit, name, call, f"suites.{name}",
                                   suites.run_suite, name, cfg)
                if result is not None:
                    statuses.append([name, "PASS" if result.passed else "FAIL"])
        run.check([n for n, _ in statuses] == list(expected), f"suites ran: {statuses}")
        for name, status in statuses:
            run.check(status == "PASS", f"suite {name} {status}")
        return _digest(statuses)

    run.batches(batch)
    if run.tracer is None:
        return
    run.record_layers({f"suites.{n}_s": (f"suites.{n}", 1.0, "batch") for n in SUITE_NAMES})
    density = intervals.density_from_json(inputs.narrow_density(run.rng))
    _interval_probes(run, intervals.Ambient(inputs.NARROW_UPPER), [None, density], density,
                     inputs.narrow_targets(run.rng, scale.probe_items))
    _kernel_probes(run, [finite.partition_family(4), finite.subspace_family(2, 2)])
    _scalar_probes(run)


# --- interval-regrade -----------------------------------------------------------

def interval_regrade(run: Run) -> None:
    scale = run.scale
    cutsets = inputs.regrade_cutsets(run.rng)
    targets = inputs.wide_targets(run.rng, scale.interval_targets, scale.pieces)

    def build():
        ambient = intervals.Ambient(rank.parse_fraction(inputs.text(inputs.WIDE_UPPER)))
        return ambient, [
            regrading.IntervalRegrader(ambient, regrading.cutset_from_json(c)) for c in cutsets
        ]

    ambient, regraders = run.setup(build)
    gradings = [
        oracle.Grading(c["grading"]["density"] if isinstance(c["grading"], dict) else None)
        for c in cutsets
    ]
    levels = [inputs.parse(c["value"]) for c in cutsets]
    grid_size = int(inputs.WIDE_UPPER / scale.sweep_step) + 1

    def batch(call):
        def item(i):
            payload = targets[i]
            regrader = regraders[i % 2]
            z = call("intervals.from_json", intervals.interval_set_from_json, payload, ambient)
            projection = call("regrading.project", regrader.project, z)
            grade = call("regrading.grade", regrader.grade, z)
            regraded = call("regrading.regraded", regrader.regraded, z)
            z_json = call("intervals.to_json", intervals.interval_set_to_json, z)
            p_json = call("intervals.to_json", intervals.interval_set_to_json, projection.element)
            return [z_json["intervals"], inputs.text(grade), p_json["intervals"], inputs.text(regraded)]

        def guarded(i):
            run.label(f"target-{i}")
            return run.guard(f"target {i}", run.unit, f"item:{i}", item, i)

        rows = [guarded(i) for i in range(len(targets))]
        run.label(None)
        sweeps = [
            run.guard(f"sweep {j}", run.unit, f"sweep:{j}", call, "regrading.sweep_chief",
                      r.sweep_chief, scale.sweep_step) or []
            for j, r in enumerate(regraders)
        ]
        sweep_rows = [
            [inputs.text(r.level), inputs.text(r.rank), inputs.text(r.regraded)]
            for sweep in sweeps for r in sweep
        ]
        if run.first_batch:
            _check_targets(run, targets, rows, gradings, levels)
            _check_sweeps(run, sweeps, gradings, levels, grid_size)
        return _digest(rows + sweep_rows)

    run.batches(batch)
    if run.tracer is None:
        return
    run.record_layers({
        "regrading.project_us": ("regrading.project", 1e6, None),
        "regrading.regraded_us": ("regrading.regraded", 1e6, None),
        "regrading.grade_us": ("regrading.grade", 1e6, None),
        "intervals.from_json_us": ("intervals.from_json", 1e6, None),
        "intervals.to_json_us": ("intervals.to_json", 1e6, None),
        "regrading.sweep_chief_ms": ("regrading.sweep_chief", 1e3, "batch"),
    })
    _interval_probes(run, ambient, [r.density for r in regraders], regraders[0].density,
                     targets[: scale.probe_items])


def _check_targets(run: Run, targets, rows, gradings, levels) -> None:
    """Round trip, grade, cutset value and regraded rank of every target, exactly."""
    for i, row in enumerate(rows):
        if row is None:
            continue
        grading, level = gradings[i % 2], levels[i % 2]
        z_pay, p_pay = targets[i], {"intervals": row[2]}
        regraded = oracle.measure(z_pay) - oracle.measure(p_pay)
        run.check(
            row[0] == z_pay["intervals"]
            and row[1] == inputs.text(grading.of(z_pay))
            and grading.of(p_pay) == level
            and row[3] == inputs.text(regraded),
            f"target {i}: {row}",
        )


def _check_sweeps(run: Run, sweeps, gradings, levels, grid_size: int) -> None:
    """On the chief chain, regraded(m_t) = t - t* where grading(m_t*) is the level."""
    for grading, level, sweep in zip(gradings, levels, sweeps):
        crossing = grading.prefix_point(level)
        values = [r.regraded for r in sweep]
        run.check(
            len(sweep) == grid_size
            and all(r.rank == r.level and r.regraded == r.level - crossing for r in sweep)
            and all(a < b for a, b in zip(values, values[1:])),
            f"chief sweep at level {level}",
        )


# --- finite-regrade -------------------------------------------------------------

def finite_regrade(run: Run) -> None:
    scale = run.scale
    payloads = {}
    for spec in scale.families:
        elements = inputs.element_payloads(spec.kind, spec.args)
        run.rng.shuffle(elements)
        payloads[spec] = elements

    def cutset_payload(spec: FamilySpec, level: int) -> dict:
        # Odd levels as a rank level set, even ones as the same antichain listed.
        if level % 2:
            return {"type": "level", "grading": "rank", "value": f"{level}/1"}
        members = [p for p in payloads[spec] if inputs.payload_rank(spec.kind, spec.args, p) == level]
        return {"type": "explicit", "elements": members}

    def build():
        pairs = []
        for spec in scale.families:
            family = spec.build()
            for level in range(1, inputs.top_rank(spec.kind, spec.args)):
                cutset = regrading.cutset_from_json(cutset_payload(spec, level), family)
                pairs.append((spec, family, level, cutset))
        return pairs

    pairs = run.setup(build)
    counter = CallCounter()
    pass_counts: list[dict] = []

    def batch(call):
        rows = []
        counts = {}
        for spec, family, level, cutset in pairs:
            # Only traced batches count lattice calls.
            fam = family if call is untraced else counter.family(family)
            label = f"{spec.name}@{level}"
            run.label(label)
            regrader = run.guard(f"{label} construction", run.unit, f"init:{label}", call,
                                 "regrading.finite_init", regrading.FiniteRegrader, fam, cutset)
            if regrader is None:
                continue
            result = run.guard(f"{label} crosscheck", run.unit, f"crosscheck:{label}", call,
                               "regrading.crosscheck", regrader.crosscheck)
            if result is None:
                continue
            rows.append([label, "crosscheck", result.ok])
            if run.first_batch:
                run.check(result.ok, f"{label} crosscheck: {result.witness}")

            def item(payload):
                z = call("finite.from_json", finite.element_from_json, fam, payload)
                projection = call("regrading.finite_project", regrader.project, z)
                value = call("regrading.finite_regraded", regrader.regraded, z)
                return call("finite.to_json", finite.element_to_json, projection.element), value

            outputs = [
                run.guard(f"{label} element {payload}", run.unit, f"item:{label}:{j}", item, payload)
                for j, payload in enumerate(payloads[spec])
            ]
            for payload, out in zip(payloads[spec], outputs):
                if out is None:
                    continue
                projection, value = out
                if run.first_batch:
                    # For a rank level set, regraded(z) = rank(z) - level exactly.
                    run.check(
                        inputs.payload_rank(spec.kind, spec.args, projection) == level
                        and value == inputs.payload_rank(spec.kind, spec.args, payload) - level,
                        f"{label} element {payload}: projection {projection}, regraded {value}",
                    )
                rows.append([label, payload, projection, inputs.text(value)])
            if call is not untraced:
                counts[label] = counter.take()
        run.label(None)
        if counts:
            pass_counts.append(counts)
        return _digest(rows)

    run.batches(batch)
    _family_gate(run, {spec: family for spec, family, _, _ in pairs})
    if run.tracer is None:
        return
    run.record_layers({
        "regrading.finite_init_ms": ("regrading.finite_init", 1e3, "batch"),
        "regrading.crosscheck_ms": ("regrading.crosscheck", 1e3, "batch"),
        "regrading.finite_project_us": ("regrading.finite_project", 1e6, None),
        "regrading.finite_regraded_us": ("regrading.finite_regraded", 1e6, None),
        **{f"finite.{n}_ms": (f"finite.{n}", 1e3, "probes") for n in FAMILY_PROBES},
    })
    run.check(all(c == pass_counts[0] for c in pass_counts), "call counts differ between passes")
    run.details["call_counts"] = pass_counts[0]
    for key in ("meet", "join", "rank"):
        run.layer[f"core.{key}_calls"] = sum(c[key] for c in pass_counts[0].values())
    _kernel_probes(run, [family for _, family, _, _ in pairs])


def _family_gate(run: Run, families: dict) -> None:
    """Closed-form element and maximal-chain counts; traced runs time more probes."""
    tracer = run.tracer
    index = tracer.begin("probes") if tracer else None
    call = tracer.call if tracer else untraced
    for spec, family in families.items():
        elements = run.guard(f"{spec.name} elements", call, "finite.elements", family.elements)
        chains = run.guard(f"{spec.name} maximal chains", call, "finite.maximal_chains",
                           finite.enumerate_maximal_chains, family)
        if elements is not None:
            run.check(len(elements) == spec.elements,
                      f"{spec.name}: {len(elements)} elements, expected {spec.elements}")
        if chains is not None:
            run.check(len(chains) == spec.chains,
                      f"{spec.name}: {len(chains)} maximal chains, expected {spec.chains}")
        if tracer:
            call("finite.chief_chain", finite.chief_chain, family)
            call("finite.rank_modular_elements", finite.rank_modular_elements, family)
    if tracer:
        tracer.end(index)


# --- probes ------------------------------------------------------------------------

def _interval_probes(run: Run, ambient, densities, density, payloads) -> None:
    """Kernel calls on the workload's own targets, one span per call."""
    zs = [intervals.interval_set_from_json(p, ambient) for p in payloads]
    breakpoints = []
    for i, (z, w) in enumerate(zip(zs, zs[1:] + zs[:1])):
        bundle = run.tracer.call("intervals.profile_bundle", intervals.profile_bundle, ambient, z, densities[i % 2])
        breakpoints.append(len(bundle.grade_meet.breakpoints))
        run.tracer.call("intervals.intersect", intervals.intersect, z, w)
        run.tracer.call("intervals.union", intervals.union, z, w)
        run.tracer.call("intervals.normalize", intervals.normalize, z.intervals + w.intervals)
        run.tracer.call("intervals.measure", intervals.measure, z)
        mass = run.tracer.call("intervals.density_mass", density.mass, z)
        run.tracer.call("intervals.prefix_inverse", density.prefix_inverse, mass)
    run.record_layers({f"intervals.{n}_us": (f"intervals.{n}", 1e6, None) for n in INTERVAL_PROBES})
    run.layer["intervals.breakpoints_per_item"] = sum(breakpoints) / len(breakpoints)


def _kernel_probes(run: Run, families) -> None:
    """Meet and join on random element pairs of each partition and subspace family."""
    for family in families:
        if family.kind not in ("partition", "subspace"):
            continue
        elements = family.elements()
        for _ in range(300):
            x, y = run.rng.choice(elements), run.rng.choice(elements)
            run.tracer.call(f"finite.{family.kind}_meet", family.lattice.meet, x, y)
            run.tracer.call(f"finite.{family.kind}_join", family.lattice.join, x, y)
    run.record_layers({f"finite.{n}_us": (f"finite.{n}", 1e6, None) for n in KERNEL_PROBES})


def _scalar_probes(run: Run) -> None:
    """The up-down metric on Boolean-4 pairs and exact rank arithmetic."""
    elements = finite.boolean_family(4).elements()
    for x in elements:
        for y in elements:
            run.tracer.call("limits.updown_metric", limits.updown_metric, x, y)
    values = [
        rank.Rank(Fraction(run.rng.randint(-64, 64), run.rng.choice((1, 2, 4, 8))))
        for _ in range(256)
    ]
    pairs = list(zip(values, values[1:] + values[:1]))
    for _ in range(20):
        index = run.tracer.begin("rank.arith", count=3 * len(pairs))
        for a, b in pairs:
            a + b
            a - b
            a < b
        run.tracer.end(index)
    run.record_layers({
        "limits.updown_metric_us": ("limits.updown_metric", 1e6, None),
        "rank.arith_ns": ("rank.arith", 1e9, None),
    })


RUNNERS = {
    "verify-all": verify_all,
    "interval-regrade": interval_regrade,
    "finite-regrade": finite_regrade,
}
WORKLOADS = tuple(RUNNERS)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Run:
    run = Run(workload, seed, seconds, trace, scale)
    with run.speed:
        RUNNERS[workload](run)
    return run
