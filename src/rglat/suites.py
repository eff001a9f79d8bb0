"""Named verification suites behind the `verify` command.

Each suite checks one family of exact identities or one demo.  A suite is a
generator ``checks(cfg, rng)`` that yields one outcome per check: ``None``
for a passing check, a witness string for a failing one, or a
:class:`CheckResult` for a bulk check that counts its own ``checked``.
:func:`run_suite` is the one place that turns outcomes into a
:class:`SuiteResult`: it counts the passing checks, stops at the first
failure and reports its witness.  A check that is part of another check's
count yields only when it fails.  The ``rng`` is a Random seeded by the seed
and the suite name, so a run is reproducible from its seed alone.
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, TypeAlias

from .core import (
    ChainSample,
    CheckResult,
    adjoin_bounds,
    check_lattice_axioms,
    diamond_row,
    lipschitz_scan,
    rank_modular_defect,
    updown_distance,
)
from .errors import LatticeError, PreconditionViolation
from .finite import (
    FiniteFamily,
    PlanePoint,
    boolean_family,
    chief_chain,
    element_from_json,
    element_to_json,
    enumerate_maximal_chains,
    partition_family,
    product_plane_lattice,
    rank_layers,
    rank_modular_elements,
    semimodularity_gap,
    subspace_family,
)
from .gen import (
    random_between,
    random_comparable_pair,
    random_density,
    random_interval_set,
    random_nested_quadruple,
    random_set_with_mass,
)
from .intervals import (
    EMPTY,
    Ambient,
    IntervalSet,
    chief_element,
    density_from_json,
    density_to_json,
    grade_value,
    intersect,
    interval_lattice,
    interval_set_from_json,
    interval_set_to_json,
    profile_bundle,
    union,
)
from .limits import (
    BOOLEAN_TOWER,
    F2_SUBSPACE_TOWER,
    boolean_to_interval,
    cauchy_approx,
    embed_boolean,
    embedding_check,
    tower_checks,
    updown_metric,
)
from .rank import POS_INF
from .regrading import (
    ExplicitCutset,
    FiniteRegrader,
    LevelCutset,
    counterexample_report,
    counterexample_stage,
    cutset_from_json,
    cutset_to_json,
    hypothesis_bounded_interval,
    hypothesis_line_sets,
    hypothesis_product_plane,
    IntervalRegrader,
    _SweepEvaluator,
)

UPPER = Fraction(2)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    samples: int | None = None
    grid: Fraction = Fraction(1, 64)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str
    witness: str | None = None


# String aliases: a subscripted typing alias is cached by typing and would
# keep this module alive after it is unloaded.
Outcome: TypeAlias = "None | str | CheckResult"
Checks: TypeAlias = "Callable[[SuiteConfig, random.Random], Iterator[Outcome]]"


@dataclass(frozen=True)
class _FiniteStage:
    """A small finite family with the data the exhaustive suites iterate."""

    family: FiniteFamily
    elements: tuple
    modular: tuple
    pairs: tuple  # every (w, z) with w <= z
    strict: tuple  # every (w, z) with w < z, in the same order
    between: tuple  # for each strict pair, the elements of [w, z] in stage order


def _tabled(family: FiniteFamily) -> FiniteFamily:
    """The family with meet, join and rank read from tables of its own kernels.

    The exhaustive suites ask the same few hundred meets and joins tens of
    thousands of times, so each is computed once, when the stage is built.
    A kernel result is mapped onto the equal enumerated element; a result
    outside the enumeration is an internal error.
    """
    lattice = family.lattice
    elems = tuple(family.elements())
    canon = {e: e for e in elems}

    def table(op: Callable, label: str) -> dict:
        rows: dict = {}
        for x in elems:
            row = rows[x] = {}
            for y in elems:
                r = op(x, y)
                if r not in canon:
                    raise RuntimeError(f"{label} of {x!r} and {y!r} is {r!r}, not an element of {lattice.name}")
                row[y] = canon[r]
        return rows

    meets, joins = table(lattice.meet, "meet"), table(lattice.join, "join")
    ranks = {e: lattice.rank(e) for e in elems}
    tables = replace(
        lattice, meet=lambda x, y: meets[x][y], join=lambda x, y: joins[x][y], rank=ranks.__getitem__
    )
    return replace(family, lattice=tables, elements=lambda: elems)


@functools.cache
def _finite_stage(make: Callable[[int], FiniteFamily]) -> _FiniteStage:
    """The Boolean-4 or partition-4 stage on meet, join and rank tables, built once per process."""
    family = _tabled(make(4))
    elems = family.elements()
    leq = family.lattice.leq
    pairs = tuple((w, z) for w in elems for z in elems if leq(w, z))
    strict = tuple((w, z) for w, z in pairs if w != z)
    between = tuple(tuple(x for x in elems if leq(w, x) and leq(x, z)) for w, z in strict)
    return _FiniteStage(family, elems, tuple(rank_modular_elements(family)), pairs, strict, between)


def _stages() -> list[_FiniteStage]:
    return [_finite_stage(boolean_family), _finite_stage(partition_family)]


# --- lattice axioms -----------------------------------------------------------

def suite_lattice_axioms(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    stages = []
    interval_samples = [random_interval_set(rng, UPPER, max_pieces=3) for _ in range(40)]
    interval_samples.append(EMPTY)
    stages.append((interval_lattice(Ambient(UPPER)), interval_samples))
    for fam in (boolean_family(3), partition_family(4), subspace_family(2, 2)):
        stages.append((fam.lattice, fam.elements()))
    plane_samples = [
        PlanePoint.point(Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2))
        for _ in range(20)
    ] + [PlanePoint.bottom(), PlanePoint.top()]
    stages.append((product_plane_lattice(), plane_samples))
    for lattice, samples in stages:
        res = check_lattice_axioms(lattice, samples, rng=rng)
        yield res if res.ok else f"{lattice.name}: {res.witness}"


# --- balance residuals and diamond bounds -------------------------------------

def _quadruple_suite(cfg: SuiteConfig, rng: random.Random, holds: Callable, witness: Callable) -> Iterator[Outcome]:
    """One per-quadruple check over random intervals and all partitions of 4.

    A quadruple ms <= m of rank-modular elements and w <= z passes when both
    of its diamond rows do, ``diamond_row(lattice, m, w, z)`` and
    ``diamond_row(lattice, z, ms, m)``, each by ``holds(row)``;
    ``witness(first, second)`` says why a quadruple fails.  It runs on random
    nested interval quadruples, then on every pair ms <= m of rank-modular
    partitions against every pair w <= z.  A partition row reads three of the
    four elements, so each distinct row is evaluated and checked once per run.
    """
    def checked(lattice, x, lo, hi):
        row = diamond_row(lattice, x, lo, hi)
        return row, holds(row)

    def verdict(first, second) -> str | None:
        (a, a_holds), (b, b_holds) = first, second
        return None if a_holds and b_holds else witness(a, b)

    lattice = interval_lattice(Ambient(UPPER))
    for _ in range(cfg.samples or 1000):
        m, ms, w, z = random_nested_quadruple(rng, UPPER)
        why = verdict(checked(lattice, m, w, z), checked(lattice, z, ms, m))
        yield f"{why} at m={m!r} ms={ms!r} w={w!r} z={z!r}" if why else None
    stage = _finite_stage(partition_family)
    plattice = stage.family.lattice
    mods = stage.modular
    nested = [(ms, m) for ms in mods for m in mods if plattice.leq(ms, m)]
    along_pairs = {m: [checked(plattice, m, w, z) for w, z in stage.pairs] for m in {m for _, m in nested}}
    for ms, m in nested:
        along_mods = {z: checked(plattice, z, ms, m) for z in stage.elements}
        for (w, z), first in zip(stage.pairs, along_pairs[m]):
            why = verdict(first, along_mods[z])
            yield f"partition {why} at m={m!r} ms={ms!r} w={w!r} z={z!r}" if why else None


def _balance_holds(row) -> bool:
    """The meet and join rises sum to the height: the balance residual is zero."""
    meet, join, height = row
    return meet + join == height


def _balance_witness(first, second) -> str:
    (a, b, h), (c, d, k) = first, second
    return f"residuals ({a + b - h}, {c + d - k})"


_DIAMOND_LABELS = ("meet along w<z", "join along w<z", "meet along m_small<m", "join along m_small<m")


def _diamond_holds(row) -> bool:
    """Both rises within the height, and the balance identity."""
    meet, join, height = row
    return meet <= height and join <= height and _balance_holds(row)


def _diamond_witness(first, second) -> str:
    """The first broken bound of the four, else the row sum that fails."""
    (a, b, h), (c, d, k) = first, second
    for label, lhs, rhs in zip(_DIAMOND_LABELS, (a, b, c, d), (h, h, k, k)):
        if not lhs <= rhs:
            return f"bound {label!r} broken: lhs {lhs} > rhs {rhs}"
    return "row slacks do not sum to the row height"


# --- Lipschitz chain scans ----------------------------------------------------

def suite_lipschitz(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    ambient = Ambient(UPPER)
    lattice = interval_lattice(ambient)
    chain = ChainSample.from_elements(
        lattice, [chief_element(ambient, Fraction(k, 8)) for k in range(0, 17)]
    )
    for _ in range(cfg.samples or 30):
        m = random_interval_set(rng, UPPER)
        for mode in ("meet", "join"):
            ratio = lipschitz_scan(lattice, chain, m, mode)
            yield f"ratio {ratio} for m={m!r} mode={mode}" if ratio > 1 else None
    stage = _finite_stage(partition_family)
    plattice = stage.family.lattice
    for chain_elems in enumerate_maximal_chains(stage.family):
        sample = ChainSample.from_elements(plattice, chain_elems)
        for m in stage.modular:
            for mode in ("meet", "join"):
                ratio = lipschitz_scan(plattice, sample, m, mode)
                yield f"partition ratio {ratio} for m={m!r}" if ratio > 1 else None


# --- exchange identities ------------------------------------------------------

def suite_left_modular(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    for stage in _stages():
        lattice = stage.family.lattice
        for m in stage.modular:
            for w, z in stage.strict:
                left = lattice.meet(lattice.join(w, m), z)
                right = lattice.join(w, lattice.meet(m, z))
                yield None if left == right else f"(w v m) ^ z != w v (m ^ z) at m={m!r} w={w!r} z={z!r}"


def suite_chief_exchange(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    for stage in _stages():
        lattice = stage.family.lattice
        chief = list(chief_chain(stage.family).elements())
        for m in chief:
            for z, w in stage.strict:
                ok = lattice.meet(lattice.join(z, m), w) == lattice.join(z, lattice.meet(m, w))
                yield None if ok else f"first identity fails at m={m!r} z={z!r} w={w!r}"
        for i, lo in enumerate(chief):
            for hi in chief[i + 1 :]:
                for z in stage.elements:
                    left = lattice.meet(lattice.join(lo, z), hi)
                    right = lattice.join(lo, lattice.meet(z, hi))
                    yield None if left == right else f"second identity fails at lo={lo!r} hi={hi!r} z={z!r}"


def suite_interval_projection(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    lattice = interval_lattice(Ambient(UPPER))
    for _ in range(cfg.samples or 500):
        m = random_interval_set(rng, UPPER)
        w, z = random_comparable_pair(rng, UPPER)
        e = union(w, intersect(m, z))
        if not (lattice.leq(w, e) and lattice.leq(e, z)):
            yield f"projected element escapes [w, z] at m={m!r}"
        for _ in range(3):
            x = random_between(rng, UPPER, w, z)
            ok = rank_modular_defect(lattice, e, x) == 0
            yield None if ok else f"relative defect nonzero at m={m!r} x={x!r}"
    for stage in _stages():
        flattice = stage.family.lattice
        # Many (m, w, z) project onto the same e, so each (e, x) is checked once per run.
        zero_defect = {}
        for m in stage.modular:
            for (w, z), between in zip(stage.strict, stage.between):
                e = flattice.join(w, flattice.meet(m, z))
                for x in between:
                    ok = zero_defect.get((e, x))
                    if ok is None:
                        ok = zero_defect[e, x] = rank_modular_defect(flattice, e, x) == 0
                    yield None if ok else f"finite relative defect nonzero at m={m!r} w={w!r} z={z!r} x={x!r}"


# --- profiles and gradings ----------------------------------------------------

def suite_profiles(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    ambient = Ambient(UPPER)
    top = IntervalSet(((Fraction(0), UPPER),))
    for i in range(cfg.samples or 100):
        z = random_interval_set(rng, UPPER)
        density = None if i % 2 == 0 else random_density(rng, UPPER)
        bundle = profile_bundle(ambient, z, density)
        meet_prof, join_prof = bundle.grade_meet, bundle.grade_join
        expected_points = {Fraction(0), UPPER} | set(z.endpoints())
        if density is not None:
            expected_points |= set(density.breakpoints)
        if set(meet_prof.breakpoints) != expected_points:
            yield f"unexpected breakpoints for z={z!r}"
        gz = grade_value(z, density)
        gtop = grade_value(top, density)
        ok = (
            meet_prof.is_weakly_increasing
            and join_prof.is_weakly_increasing
            and meet_prof.total_rise == gz
            and join_prof.total_rise == gtop - gz
        )
        if not ok:
            yield f"profile shape wrong for z={z!r}"
        allowed = {Fraction(0), Fraction(1)} if density is None else {Fraction(0)} | set(density.values)
        if not set(meet_prof.slopes) <= allowed or not set(join_prof.slopes) <= allowed:
            yield f"illegal slope for z={z!r}"
        for _ in range(3):
            level = UPPER * rng.randint(0, 64) / 64
            probe = chief_element(ambient, level)
            if meet_prof.value_at(level) != grade_value(intersect(z, probe), density):
                yield f"meet profile disagrees at level {level}"
            ok = join_prof.value_at(level) == grade_value(union(z, probe), density)
            yield None if ok else f"join profile disagrees at level {level}"


def suite_modular_grading(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    for _ in range(cfg.samples or 300):
        density = None if rng.random() < 0.5 else random_density(rng, UPPER)
        u = random_interval_set(rng, UPPER)
        v = random_interval_set(rng, UPPER)
        lhs = grade_value(union(u, v), density) + grade_value(intersect(u, v), density)
        rhs = grade_value(u, density) + grade_value(v, density)
        if lhs != rhs:
            yield f"grading not modular at u={u!r} v={v!r}"
        w, z = random_comparable_pair(rng, UPPER)
        ok = grade_value(w, density) < grade_value(z, density)
        yield None if ok else f"grading not strictly increasing at w={w!r} z={z!r}"


# --- regrading ------------------------------------------------------------------

def suite_level_set(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    stage = counterexample_stage()
    n = cfg.samples or 200
    for _ in range(n):
        z = random_set_with_mass(rng, stage.density, Fraction(1))
        yield None if stage.regraded(z) == 0 else f"regraded rank nonzero on the cutset at {z!r}"
    produced = 0
    while produced < n:
        z = random_interval_set(rng, UPPER, max_pieces=4)
        gz = stage.grade(z)
        if gz == 1:
            continue
        value = stage.regraded(z)
        ok = (value > 0) == (gz > 1) and value != 0
        yield None if ok else f"sign mismatch at {z!r}: grade {gz}, regraded {value}"
        produced += 1


def _check_sweep(rows, lo, hi, max_gap: Fraction) -> str | None:
    """The chain's elements increase from lo to hi, each by at most max_gap.

    ``rows`` are (rank, num, den), the regraded value being num / den with
    den > 0: a sweep evaluator's integer rows, or ``sweep_chief`` rows.
    Consecutive rows of equal rank are one element: the chain parameter
    plateaus across the gaps of z, and the first row of each run stands for
    it.  One walk finds every witness; a non-increase is reported first,
    then wrong endpoints, then the first gap over max_gap.
    Each step compares cross-multiplied numerators, so the walk builds a
    Fraction only for a witness.
    """
    g, h = max_gap.numerator, max_gap.denominator
    first = last = last_rank = wide = None
    for rank, num, den in rows:
        if rank == last_rank:
            continue
        if last is None:
            first = num, den
        else:
            # The rise over the last value is rise / (den * last_den).
            last_num, last_den = last
            rise = num * last_den - last_num * den
            if rise <= 0:
                return "regraded column not strictly increasing"
            if wide is None and rise * h > g * den * last_den:
                wide = f"regraded gap {Fraction(*last)}..{Fraction(num, den)} wider than {max_gap}"
        last, last_rank = (num, den), rank
    if first[0] * lo.denominator != lo.numerator * first[1] or last[0] * hi.denominator != hi.numerator * last[1]:
        return f"endpoints {Fraction(*first)}..{Fraction(*last)} instead of {lo}..{hi}"
    return wide


def _sweep_step(cfg: SuiteConfig) -> Fraction:
    return cfg.grid / 2


def sweep_levels(cfg: SuiteConfig) -> int:
    """Levels on each side of a monotone-surjective sweep, whose step is half the grid."""
    return math.ceil(UPPER / _sweep_step(cfg)) + 1


def suite_monotone_surjective(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    stage = counterexample_stage()
    lo = stage.regraded(EMPTY)
    hi = stage.regraded(stage.top)
    step = _sweep_step(cfg)
    # Along a chain the regraded value is continuous and piecewise linear in the
    # level, with slope 0 or 1, or on the exchange branches a ratio of two density
    # values.  So neighbouring elements of a sweep differ by at most L * step,
    # L the ratio of the largest density value to the smallest (1 under measure).
    values = stage.density.values
    max_gap = max(values) / min(values) * step

    rows = [(row.rank, row.regraded.numerator, row.regraded.denominator) for row in stage.sweep_chief(step)]
    why = _check_sweep(rows, lo, hi, max_gap)
    yield f"chief chain: {why}" if why else None
    for _ in range(cfg.samples or 50):
        z = random_interval_set(rng, UPPER, max_pieces=3)
        sweep = _SweepEvaluator(stage, z, step)
        why = _check_sweep(sweep.side_rows("meet") + sweep.side_rows("join"), lo, hi, max_gap)
        yield f"chain through {z!r}: {why}" if why else None
    pairs = [random_comparable_pair(rng, UPPER) for _ in range(200)]
    yield stage.monotone_check(pairs)


def suite_finite_counts(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    expected = [
        (len(rank_modular_elements(partition_family(4))), 12, "modular elements of partitions of 4"),
        (len(enumerate_maximal_chains(boolean_family(4))), 24, "maximal chains of subsets of 4"),
        (len(enumerate_maximal_chains(boolean_family(3))), 6, "maximal chains of subsets of 3"),
        (len(enumerate_maximal_chains(partition_family(3))), 3, "maximal chains of partitions of 3"),
    ]
    for got, want, label in expected:
        yield None if got == want else f"{label}: got {got}, expected {want}"


def suite_finite_regrade(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    # Certified families have no cutsets but their rank levels (see semimodularity_gap).
    for stage in _stages():
        fam = stage.family
        name = fam.lattice.name
        gap = semimodularity_gap(fam)
        yield None if gap is None else (
            f"{name} is not upper semimodular: {gap[1]!r} and {gap[2]!r} cover {gap[0]!r}"
        )
        for r, level in sorted(rank_layers(fam).items()):
            res = FiniteRegrader(fam, ExplicitCutset(tuple(level))).crosscheck()
            yield res if res.ok else f"{name} level {r}: {res.witness}"


# --- metric -------------------------------------------------------------------

def suite_metric(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    elems = _finite_stage(boolean_family).elements
    dist = {}
    for x in elems:
        for y in elems:
            d = dist[x, y] = updown_metric(x, y)
            bad = d < 0 or (d == 0) != (x == y) or d != updown_metric(y, x)
            yield f"metric axiom fails at ({x!r}, {y!r})" if bad else None
    for x in elems:
        for y in elems:
            for z in elems:
                bad = dist[x, z] > dist[x, y] + dist[y, z]
                yield f"triangle fails at ({x!r}, {y!r}, {z!r})" if bad else None
    lattice = interval_lattice(Ambient(UPPER))
    for _ in range(cfg.samples or 100):
        x = random_interval_set(rng, UPPER)
        y = random_interval_set(rng, UPPER)
        z = random_interval_set(rng, UPPER)
        dxy = updown_distance(lattice, x, y)
        if dxy < 0 or (dxy == 0) != (x == y):
            yield f"interval metric axiom fails at ({x!r}, {y!r})"
        if updown_distance(lattice, x, z) > dxy + updown_distance(lattice, y, z):
            yield f"interval triangle fails at ({x!r}, {y!r}, {z!r})"
        bad = updown_distance(lattice, union(x, z), union(y, z)) > dxy
        yield f"join continuity fails at ({x!r}, {y!r}, {z!r})" if bad else None
    stage = _finite_stage(partition_family)
    plattice = stage.family.lattice
    # The tabled meet returns stage elements, so both sides read one distance table.
    pdist = {(x, y): updown_distance(plattice, x, y) for x in stage.elements for y in stage.elements}
    for m in stage.modular:
        for x in stage.elements:
            for y in stage.elements:
                lhs = pdist[plattice.meet(m, x), plattice.meet(m, y)]
                yield f"meet contraction fails at m={m!r}" if lhs > pdist[x, y] else None


# --- tower limits ---------------------------------------------------------------

def suite_tower(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    checks = tower_checks()
    checks["isometry_subspace"] = embedding_check(F2_SUBSPACE_TOWER, 2, 4)
    checks["isometry_boolean_4_8"] = embedding_check(BOOLEAN_TOWER, 4, 8)
    for label, res in checks.items():
        yield res if res.ok else f"{label}: {res.witness}"
    for k, n in ((2, 4), (4, 8)):
        for x in BOOLEAN_TOWER.at(k).elements():
            ok = boolean_to_interval(embed_boolean(x, n)) == boolean_to_interval(x)
            yield None if ok else f"interval identification not natural at {x!r}"
    third = IntervalSet(((Fraction(0), Fraction(1, 3)),))
    report = cauchy_approx(third, [2 ** i for i in range(1, 9)])
    dists = [r.distance_to_target for r in report.rows]
    if not report.bound_ok or any(b > a for a, b in zip(dists, dists[1:])):
        yield "approximant distances not shrinking within bound"
    if dists[-1] > Fraction(2, 256):
        yield f"level-256 distance {dists[-1]} above 2/256"
    yield CheckResult(True, len(dists))
    dyadic = IntervalSet(((Fraction(1, 4), Fraction(3, 4)),))
    for row in cauchy_approx(dyadic, [4, 8, 16, 32]).rows:
        yield None if row.distance_to_target == 0 else "dyadic target not exact on its grid"
    offgrid = IntervalSet(((Fraction(1, 3), Fraction(2, 3)),))
    for row in cauchy_approx(offgrid, [3, 6, 12, 24]).rows:
        yield None if row.distance_to_target == 0 else "grid-aligned target not exact"


# --- discontinuity demos ---------------------------------------------------------

def suite_infinity_demos(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    plane = hypothesis_product_plane()
    meet, join = plane.conditions[:2]
    if not (
        all(v == 0 for _, v in meet.rows + join.rows)
        and meet.target_value == 1
        and join.target_value == -1
    ):
        yield "plane scan values differ from the fixture"
    yield CheckResult(True, len(meet.rows) + len(join.rows))
    lattice = product_plane_lattice()
    below = lattice.rank(lattice.meet(PlanePoint.point(0, Fraction(-5)), PlanePoint.point(1, 0)))
    yield None if below == -5 else "negative scan row should equal its parameter"
    line = hypothesis_line_sets()
    chain, _, chief, _ = line.conditions
    if not (
        all(v == 0 for _, v in chain.rows)
        and chain.target_value == 2
        and chief.scan_value == chief.target_value == 2
    ):
        yield "line-set scan values differ from the fixture"
    yield CheckResult(True, len(chain.rows) + len(chief.rows))
    bounded = hypothesis_bounded_interval(UPPER)
    if bounded.failing or not all(c.vacuous for c in bounded.conditions):
        yield "bounded stage should satisfy all conditions vacuously"
    if line.failing != ("chain-meet-sup",):
        yield f"line stage flags {line.failing}"
    if plane.failing != ("chain-meet-sup", "chain-join-inf"):
        yield f"plane stage flags {plane.failing}"
    yield CheckResult(True, sum(len(rep.conditions) for rep in (bounded, line, plane)))
    with_top = adjoin_bounds(interval_lattice(Ambient(None)), top_rank=POS_INF)
    yield None if with_top.rank(with_top.top) == POS_INF else "adjoined top rank should be +inf"
    probe = IntervalSet(((Fraction(-1), Fraction(1)),))
    ok = rank_modular_defect(with_top, with_top.top, probe) == 0
    yield None if ok else "adjoined top must be rank modular"
    try:
        adjoin_bounds(interval_lattice(Ambient(UPPER)), top_rank=POS_INF)
    except PreconditionViolation:
        yield None
    else:
        yield "adjoining over an existing top must be refused"


def suite_counterexample(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    report = counterexample_report()
    if not report.matches_expected:
        yield f"values drifted: {report!r}"
    # matches_expected compares each prefix row and four single values.
    yield CheckResult(True, len(report.prefix_rows) + 4)
    yield None if report == counterexample_report() else "rerun produced different values"
    uniform = IntervalRegrader(UPPER, LevelCutset(Fraction(1)))
    lower = IntervalSet(((Fraction(0), Fraction(1)),))
    upper_half = IntervalSet(((Fraction(1), Fraction(2)),))
    ok = uniform.regraded_defect(lower, upper_half) == 0
    yield None if ok else "uniform density should keep the chief chain modular"


# --- serialization ----------------------------------------------------------------

def suite_json_roundtrip(cfg: SuiteConfig, rng: random.Random) -> Iterator[Outcome]:
    for _ in range(cfg.samples or 100):
        u = random_interval_set(rng, UPPER)
        yield None if interval_set_from_json(interval_set_to_json(u)) == u else f"interval set drifts: {u!r}"
        density = random_density(rng, UPPER)
        yield None if density_from_json(density_to_json(density)) == density else f"density drifts: {density!r}"
    cutset = counterexample_stage().cutset
    if cutset_from_json(cutset_to_json(cutset)) != cutset:
        yield "level cutset drifts"
    for fam, label in (
        (partition_family(4), "partition"),
        (boolean_family(4), "subset"),
        (subspace_family(2, 3), "subspace"),
    ):
        for e in fam.elements():
            yield None if element_from_json(fam, element_to_json(e)) == e else f"{label} drifts: {e!r}"


# Suite name -> (checks, the detail a passing run reports).
SUITES: dict[str, tuple[Checks, str]] = {
    "lattice-axioms": (
        suite_lattice_axioms, "idempotence, commutativity, absorption, associativity, rank monotonicity"
    ),
    "balance": (
        functools.partial(_quadruple_suite, holds=_balance_holds, witness=_balance_witness),
        "both balance residuals exactly zero (random interval + exhaustive partition)",
    ),
    "diamond": (
        functools.partial(_quadruple_suite, holds=_diamond_holds, witness=_diamond_witness),
        "four diamond bounds with exact row-sum slack identity",
    ),
    "lipschitz": (suite_lipschitz, "meet/join chain scans stay within slope 1"),
    "left-modular": (suite_left_modular, "rank-modular elements are left modular (exhaustive)"),
    "chief-exchange": (suite_chief_exchange, "both chief-chain exchange identities (exhaustive)"),
    "interval-projection": (suite_interval_projection, "w v (m ^ z) is rank modular inside [w, z]"),
    "profiles": (suite_profiles, "piecewise-linear profiles match direct evaluation exactly"),
    "modular-grading": (suite_modular_grading, "measure and density gradings are modular and strictly increasing"),
    "level-set": (suite_level_set, "regraded rank vanishes exactly on the cutset, signs agree off it"),
    "monotone-surjective": (
        suite_monotone_surjective,
        "regraded rank strictly increasing, endpoint values attained, each gap at most the density ratio times grid/2",
    ),
    "finite-counts": (suite_finite_counts, "oracle counts match"),
    "finite-regrade": (
        suite_finite_regrade,
        "cover certificate of upper semimodularity, then every rank level regrades to a level set",
    ),
    "metric": (suite_metric, "up-down metric axioms, join continuity, modular meet contraction"),
    "tower": (suite_tower, "coherence, rank preservation, isometry, naturality, Cauchy shrinkage"),
    "infinity-demos": (suite_infinity_demos, "plane and line discontinuities, hypothesis flags, bound adjunction"),
    "counterexample": (
        suite_counterexample,
        "two-speed density reproduces the expected regraded values and breaks chief modularity",
    ),
    "json-roundtrip": (suite_json_roundtrip, "bit-exact serialization round trips"),
}


def run_suite(name: str, cfg: SuiteConfig) -> SuiteResult:
    """Run one suite: count its passing checks, stop at the first failure.

    A suite that raises a ``LatticeError`` or a ``RuntimeError`` fails with
    the exception as its witness, after the checks counted so far; any other
    exception is a program error, reported as an ``internal error:`` witness.
    """
    checks, detail = SUITES[name]
    checked = 0
    try:
        for outcome in checks(cfg, random.Random(f"{cfg.seed}:{name}")):
            if outcome is None:
                checked += 1
            elif isinstance(outcome, CheckResult) and outcome.ok:
                checked += outcome.checked
            else:
                witness = outcome.witness if isinstance(outcome, CheckResult) else outcome
                return SuiteResult(name, False, checked, "failed", witness)
    except (LatticeError, RuntimeError) as exc:
        return SuiteResult(name, False, checked, "failed", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        return SuiteResult(name, False, checked, "failed", f"internal error: {type(exc).__name__}: {exc}")
    return SuiteResult(name, True, checked, detail)


def _timed_suite(name: str, cfg: SuiteConfig) -> tuple[SuiteResult, float]:
    start = time.perf_counter()
    result = run_suite(name, cfg)
    return result, time.perf_counter() - start


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_context(workers: int):
    """The ``fork`` start method when ``workers`` processes may be forked, else None.

    Only a single-threaded process forks: a forked child would inherit the
    locks that other threads hold, but not the threads that release them.
    """
    if workers < 2 or threading.active_count() > 1:
        return None
    import multiprocessing  # imported only by a run that forks

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def run_suites(names, cfg: SuiteConfig) -> tuple[list[SuiteResult], dict[str, float]]:
    """Run the suites; return their results in ``names`` order and each one's elapsed seconds, by name.

    The suites run on forked workers, one per usable CPU and at most one per
    suite.  The finite stages are built first, so every worker reads the
    parent's copy.  With one worker, or where this process may not fork, the
    suites run here and no process starts.  Each suite is timed where it
    runs, so the timings of a pooled run overlap.  A suite that raises fails
    alone, as in :func:`run_suite`.  A worker that dies breaks the pool, and
    every suite not finished by then fails with a ``BrokenProcessPool``
    witness, 0 checks and 0 seconds; rerun alone, a suite runs in process.
    """
    names = list(names)
    workers = min(_usable_cpus(), len(names))
    context = _fork_context(workers)
    if context is None:
        timed = [_timed_suite(name, cfg) for name in names]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        _stages()
        timed = []
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [pool.submit(_timed_suite, name, cfg) for name in names]
            for name, future in zip(names, futures):
                try:
                    timed.append(future.result())
                except BrokenProcessPool as exc:
                    witness = f"internal error: {type(exc).__name__}: {exc}"
                    timed.append((SuiteResult(name, False, 0, "failed", witness), 0.0))
    return [result for result, _ in timed], {name: seconds for name, (_, seconds) in zip(names, timed)}
