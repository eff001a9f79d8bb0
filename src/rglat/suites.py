"""Named verification suites behind the `verify` command.

Each suite checks one family of exact identities or one demo and returns a
:class:`SuiteResult`.  Random suites draw from a Random seeded per suite
name, so a run is reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    ChainSample,
    adjoin_bounds,
    balance_residuals,
    check_lattice_axioms,
    diamond_bounds,
    lipschitz_scan,
    rank_modular_defect,
    updown_distance,
)
from .errors import PreconditionViolation
from .finite import (
    PlanePoint,
    antichain_cutsets_exhaustive,
    boolean_family,
    chief_chain,
    element_from_json,
    element_to_json,
    enumerate_maximal_chains,
    partition_family,
    product_plane_lattice,
    product_plane_limit_demo,
    rank_modular_elements,
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
    bounded_chain_demo,
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
    EmbeddingFamily,
    boolean_to_interval,
    cauchy_approx,
    embed_boolean,
    embedding_check,
    tower_checks,
    updown_metric,
)
from .rank import POS_INF, Rank
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
)

ZERO = Rank(0)
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


def _rng(cfg: SuiteConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def _fail(name: str, checked: int, witness: str) -> SuiteResult:
    return SuiteResult(name, False, checked, "failed", witness)


# --- lattice axioms -----------------------------------------------------------

def suite_lattice_axioms(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "lattice-axioms")
    checked = 0
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
        if not res.ok:
            return _fail("lattice-axioms", checked, f"{lattice.name}: {res.witness}")
        checked += res.checked
    return SuiteResult("lattice-axioms", True, checked, "idempotence, commutativity, absorption, associativity, rank monotonicity")


# --- balance residuals and diamond bounds -------------------------------------

def _quadruple_suite(cfg: SuiteConfig, name: str, check: Callable, detail: str) -> SuiteResult:
    """One per-quadruple check over random intervals and all partitions of 4.

    ``check(lattice, m, ms, w, z)`` returns None or why it failed.  It runs
    on random nested interval quadruples, then on every pair ms <= m of
    rank-modular partitions against every pair w <= z.
    """
    rng = _rng(cfg, name)
    lattice = interval_lattice(Ambient(UPPER))
    checked = 0
    for _ in range(cfg.samples or 1000):
        m, ms, w, z = random_nested_quadruple(rng, UPPER)
        why = check(lattice, m, ms, w, z)
        if why:
            return _fail(name, checked, f"{why} at m={m!r} ms={ms!r} w={w!r} z={z!r}")
        checked += 1
    fam = partition_family(4)
    plattice = fam.lattice
    elems = fam.elements()
    mods = rank_modular_elements(fam)
    mod_pairs = [(ms, m) for ms in mods for m in mods if plattice.leq(ms, m)]
    comp_pairs = [(w, z) for w in elems for z in elems if plattice.leq(w, z)]
    for ms, m in mod_pairs:
        for w, z in comp_pairs:
            why = check(plattice, m, ms, w, z)
            if why:
                return _fail(name, checked, f"partition {why} at m={m!r} ms={ms!r} w={w!r} z={z!r}")
            checked += 1
    return SuiteResult(name, True, checked, detail)


def _balance_failure(lattice, m, ms, w, z) -> str | None:
    r1, r2 = balance_residuals(lattice, m, ms, w, z)
    if r1 != ZERO or r2 != ZERO:
        return f"residuals ({r1}, {r2})"
    return None


def _diamond_failure(lattice, m, ms, w, z) -> str | None:
    report = diamond_bounds(lattice, m, ms, w, z)
    if not report.all_hold:
        return "negative slack"
    if report.row_slack_sums() != report.row_rhs():
        return "row slacks do not sum to the row height"
    return None


def suite_balance(cfg: SuiteConfig) -> SuiteResult:
    return _quadruple_suite(
        cfg, "balance", _balance_failure,
        "both balance residuals exactly zero (random interval + exhaustive partition)",
    )


def suite_diamond(cfg: SuiteConfig) -> SuiteResult:
    return _quadruple_suite(
        cfg, "diamond", _diamond_failure, "four diamond bounds with exact row-sum slack identity"
    )


# --- Lipschitz chain scans ----------------------------------------------------

def suite_lipschitz(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "lipschitz")
    lattice = interval_lattice(Ambient(UPPER))
    ambient = Ambient(UPPER)
    one = Rank(1)
    checked = 0
    chain = ChainSample.from_elements(
        lattice, [chief_element(ambient, Fraction(k, 8)) for k in range(0, 17)]
    )
    for _ in range(cfg.samples or 30):
        m = random_interval_set(rng, UPPER)
        for mode in ("meet", "join"):
            ratio = lipschitz_scan(lattice, chain, m, mode)
            if ratio > one:
                return _fail("lipschitz", checked, f"ratio {ratio} for m={m!r} mode={mode}")
            checked += 1
    fam = partition_family(4)
    mods = rank_modular_elements(fam)
    for chain_elems in enumerate_maximal_chains(fam):
        sample = ChainSample.from_elements(fam.lattice, chain_elems)
        for m in mods:
            for mode in ("meet", "join"):
                ratio = lipschitz_scan(fam.lattice, sample, m, mode)
                if ratio > one:
                    return _fail("lipschitz", checked, f"partition ratio {ratio} for m={m!r}")
                checked += 1
    return SuiteResult("lipschitz", True, checked, "meet/join chain scans stay within slope 1")


# --- exchange identities ------------------------------------------------------

def suite_left_modular(cfg: SuiteConfig) -> SuiteResult:
    checked = 0
    for fam in (boolean_family(4), partition_family(4)):
        lattice = fam.lattice
        elems = fam.elements()
        mods = rank_modular_elements(fam)
        pairs = [(w, z) for w in elems for z in elems if lattice.lt(w, z)]
        for m in mods:
            for w, z in pairs:
                left = lattice.meet(lattice.join(w, m), z)
                right = lattice.join(w, lattice.meet(m, z))
                if left != right:
                    return _fail(
                        "left-modular", checked,
                        f"(w v m) ^ z != w v (m ^ z) at m={m!r} w={w!r} z={z!r}",
                    )
                checked += 1
    return SuiteResult("left-modular", True, checked, "rank-modular elements are left modular (exhaustive)")


def suite_chief_exchange(cfg: SuiteConfig) -> SuiteResult:
    checked = 0
    for fam in (boolean_family(4), partition_family(4)):
        lattice = fam.lattice
        elems = fam.elements()
        chief = list(chief_chain(fam).elements())
        strict_pairs = [(z, w) for z in elems for w in elems if lattice.lt(z, w)]
        for m in chief:
            for z, w in strict_pairs:
                if lattice.meet(lattice.join(z, m), w) != lattice.join(z, lattice.meet(m, w)):
                    return _fail("chief-exchange", checked, f"first identity fails at m={m!r} z={z!r} w={w!r}")
                checked += 1
        for i, lo in enumerate(chief):
            for hi in chief[i + 1 :]:
                for z in elems:
                    left = lattice.meet(lattice.join(lo, z), hi)
                    right = lattice.join(lo, lattice.meet(z, hi))
                    if left != right:
                        return _fail("chief-exchange", checked, f"second identity fails at lo={lo!r} hi={hi!r} z={z!r}")
                    checked += 1
    return SuiteResult("chief-exchange", True, checked, "both chief-chain exchange identities (exhaustive)")


def suite_interval_projection(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "interval-projection")
    lattice = interval_lattice(Ambient(UPPER))
    n = cfg.samples or 500
    checked = 0
    for _ in range(n):
        m = random_interval_set(rng, UPPER)
        w, z = random_comparable_pair(rng, UPPER)
        e = union(w, intersect(m, z))
        if not (lattice.leq(w, e) and lattice.leq(e, z)):
            return _fail("interval-projection", checked, f"projected element escapes [w, z] at m={m!r}")
        for _ in range(3):
            x = random_between(rng, UPPER, w, z)
            if rank_modular_defect(lattice, e, x) != ZERO:
                return _fail("interval-projection", checked, f"relative defect nonzero at m={m!r} x={x!r}")
            checked += 1
    for fam in (boolean_family(4), partition_family(4)):
        flattice = fam.lattice
        elems = fam.elements()
        mods = rank_modular_elements(fam)
        pairs = [(w, z) for w in elems for z in elems if flattice.lt(w, z)]
        for m in mods:
            for w, z in pairs:
                e = flattice.join(w, flattice.meet(m, z))
                for x in elems:
                    if flattice.leq(w, x) and flattice.leq(x, z):
                        if rank_modular_defect(flattice, e, x) != ZERO:
                            return _fail(
                                "interval-projection", checked,
                                f"finite relative defect nonzero at m={m!r} w={w!r} z={z!r} x={x!r}",
                            )
                        checked += 1
    return SuiteResult("interval-projection", True, checked, "w v (m ^ z) is rank modular inside [w, z]")


# --- profiles and gradings ----------------------------------------------------

def suite_profiles(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "profiles")
    ambient = Ambient(UPPER)
    top = IntervalSet(((Fraction(0), UPPER),))
    checked = 0
    for i in range(cfg.samples or 100):
        z = random_interval_set(rng, UPPER)
        density = None if i % 2 == 0 else random_density(rng, UPPER)
        bundle = profile_bundle(ambient, z, density)
        meet_prof, join_prof = bundle.grade_meet, bundle.grade_join
        expected_points = {Fraction(0), UPPER} | set(z.endpoints())
        if density is not None:
            expected_points |= set(density.breakpoints)
        if set(meet_prof.breakpoints) != expected_points:
            return _fail("profiles", checked, f"unexpected breakpoints for z={z!r}")
        gz = grade_value(z, density)
        gtop = grade_value(top, density)
        ok = (
            meet_prof.is_weakly_increasing
            and join_prof.is_weakly_increasing
            and meet_prof.total_rise == gz
            and join_prof.total_rise == gtop - gz
        )
        if not ok:
            return _fail("profiles", checked, f"profile shape wrong for z={z!r}")
        allowed = {Fraction(0), Fraction(1)} if density is None else {Fraction(0)} | set(density.values)
        if not set(meet_prof.slopes()) <= allowed or not set(join_prof.slopes()) <= allowed:
            return _fail("profiles", checked, f"illegal slope for z={z!r}")
        for _ in range(3):
            level = UPPER * rng.randint(0, 64) / 64
            probe = chief_element(ambient, level)
            if meet_prof.value_at(level) != grade_value(intersect(z, probe), density):
                return _fail("profiles", checked, f"meet profile disagrees at level {level}")
            if join_prof.value_at(level) != grade_value(union(z, probe), density):
                return _fail("profiles", checked, f"join profile disagrees at level {level}")
            checked += 1
    return SuiteResult("profiles", True, checked, "piecewise-linear profiles match direct evaluation exactly")


def suite_modular_grading(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "modular-grading")
    checked = 0
    for _ in range(cfg.samples or 300):
        density = None if rng.random() < 0.5 else random_density(rng, UPPER)
        u = random_interval_set(rng, UPPER)
        v = random_interval_set(rng, UPPER)
        lhs = grade_value(union(u, v), density) + grade_value(intersect(u, v), density)
        rhs = grade_value(u, density) + grade_value(v, density)
        if lhs != rhs:
            return _fail("modular-grading", checked, f"grading not modular at u={u!r} v={v!r}")
        w, z = random_comparable_pair(rng, UPPER)
        if not grade_value(w, density) < grade_value(z, density):
            return _fail("modular-grading", checked, f"grading not strictly increasing at w={w!r} z={z!r}")
        checked += 1
    return SuiteResult("modular-grading", True, checked, "measure and density gradings are modular and strictly increasing")


# --- regrading ------------------------------------------------------------------

def suite_level_set(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "level-set")
    stage = counterexample_stage()
    density = stage.density
    n = cfg.samples or 200
    checked = 0
    for _ in range(n):
        z = random_set_with_mass(rng, density, Fraction(1))
        if stage.regraded(z) != 0:
            return _fail("level-set", checked, f"regraded rank nonzero on the cutset at {z!r}")
        checked += 1
    produced = 0
    while produced < n:
        z = random_interval_set(rng, UPPER, max_pieces=4)
        gz = stage.grade(z)
        if gz == 1:
            continue
        value = stage.regraded(z)
        if (value > 0) != (gz > 1) or value == 0:
            return _fail("level-set", checked, f"sign mismatch at {z!r}: grade {gz}, regraded {value}")
        produced += 1
        checked += 1
    return SuiteResult("level-set", True, checked, "regraded rank vanishes exactly on the cutset, signs agree off it")


def _max_gap(rows) -> Fraction:
    values = [r.regraded for r in rows]
    return max(b - a for a, b in zip(values, values[1:]))


def _check_sweep(rows, lo, hi) -> str | None:
    values = [r.regraded for r in rows]
    if any(a >= b for a, b in zip(values, values[1:])):
        return "regraded column not strictly increasing"
    if values[0] != lo or values[-1] != hi:
        return f"endpoints {values[0]}..{values[-1]} instead of {lo}..{hi}"
    return None


def _examine_sweeps(rows_coarse, rows_fine, lo, hi) -> str | None:
    """Both sweeps increase from lo to hi, and halving the grid shrinks the max gap."""
    why = _check_sweep(rows_coarse, lo, hi)
    if why:
        return why
    why = _check_sweep(rows_fine, lo, hi)
    if why:
        return f"fine grid: {why}"
    if not _max_gap(rows_fine) < _max_gap(rows_coarse):
        return "max regraded gap did not shrink with the grid"
    return None


def suite_monotone_surjective(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "monotone-surjective")
    stage = counterexample_stage()
    lo = stage.regraded(EMPTY)
    hi = stage.regraded(stage.top)
    grid = cfg.grid
    fine = grid / 2
    checked = 0
    why = _examine_sweeps(stage.sweep_chief(grid), stage.sweep_chief(fine), lo, hi)
    if why:
        return _fail("monotone-surjective", checked, f"chief chain: {why}")
    checked += 1
    for _ in range(cfg.samples or 50):
        z = random_interval_set(rng, UPPER, max_pieces=3)
        why = _examine_sweeps(stage.sweep_through(z, grid), stage.sweep_through(z, fine), lo, hi)
        if why:
            return _fail("monotone-surjective", checked, f"chain through {z!r}: {why}")
        checked += 1
    pairs = [random_comparable_pair(rng, UPPER) for _ in range(200)]
    res = stage.monotone_check(pairs)
    if not res.ok:
        return _fail("monotone-surjective", checked, res.witness)
    checked += res.checked
    return SuiteResult(
        "monotone-surjective", True, checked,
        "regraded rank strictly increasing, endpoint values attained, gaps shrink with the grid",
    )


def suite_finite_counts(cfg: SuiteConfig) -> SuiteResult:
    expected = [
        (len(rank_modular_elements(partition_family(4))), 12, "modular elements of partitions of 4"),
        (len(antichain_cutsets_exhaustive(boolean_family(2))), 3, "antichain cutsets of subsets of 2"),
        (len(enumerate_maximal_chains(boolean_family(4))), 24, "maximal chains of subsets of 4"),
        (len(enumerate_maximal_chains(boolean_family(3))), 6, "maximal chains of subsets of 3"),
        (len(enumerate_maximal_chains(partition_family(3))), 3, "maximal chains of partitions of 3"),
    ]
    for got, want, label in expected:
        if got != want:
            return _fail("finite-counts", 0, f"{label}: got {got}, expected {want}")
    return SuiteResult("finite-counts", True, len(expected), "oracle counts match")


def suite_finite_regrade(cfg: SuiteConfig) -> SuiteResult:
    checked = 0
    for fam in (boolean_family(4), partition_family(4)):
        lattice = fam.lattice
        cutsets = antichain_cutsets_exhaustive(fam)
        top_rank = lattice.rank(lattice.top).fraction
        for r in range(int(top_rank) + 1):
            level = [e for e in fam.elements() if lattice.rank(e).fraction == r]
            if tuple(sorted(map(repr, level))) not in {
                tuple(sorted(map(repr, c))) for c in cutsets
            }:
                return _fail("finite-regrade", checked, f"level {r} of {lattice.name} missing from cutsets")
        for cutset in cutsets:
            regrader = FiniteRegrader(fam, ExplicitCutset(tuple(cutset)))
            res = regrader.crosscheck()
            if not res.ok:
                return _fail("finite-regrade", checked, f"{lattice.name} cutset {cutset!r}: {res.witness}")
            checked += res.checked
    return SuiteResult("finite-regrade", True, checked, "every exhaustive cutset regrades to a level set, all chains agree")


# --- metric -------------------------------------------------------------------

def suite_metric(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "metric")
    checked = 0
    elems = boolean_family(4).elements()
    for x in elems:
        for y in elems:
            d = updown_metric(x, y)
            if d < ZERO or (d == ZERO) != (x == y) or d != updown_metric(y, x):
                return _fail("metric", checked, f"metric axiom fails at ({x!r}, {y!r})")
            checked += 1
    for x in elems:
        for y in elems:
            for z in elems:
                if updown_metric(x, z) > updown_metric(x, y) + updown_metric(y, z):
                    return _fail("metric", checked, f"triangle fails at ({x!r}, {y!r}, {z!r})")
                checked += 1
    lattice = interval_lattice(Ambient(UPPER))
    for _ in range(cfg.samples or 100):
        x = random_interval_set(rng, UPPER)
        y = random_interval_set(rng, UPPER)
        z = random_interval_set(rng, UPPER)
        dxy = updown_distance(lattice, x, y)
        if dxy < ZERO or (dxy == ZERO) != (x == y):
            return _fail("metric", checked, f"interval metric axiom fails at ({x!r}, {y!r})")
        if updown_distance(lattice, x, z) > dxy + updown_distance(lattice, y, z):
            return _fail("metric", checked, f"interval triangle fails at ({x!r}, {y!r}, {z!r})")
        if updown_distance(lattice, union(x, z), union(y, z)) > dxy:
            return _fail("metric", checked, f"join continuity fails at ({x!r}, {y!r}, {z!r})")
        checked += 1
    fam = partition_family(4)
    plattice = fam.lattice
    pelems = fam.elements()
    for m in rank_modular_elements(fam):
        for x in pelems:
            for y in pelems:
                lhs = updown_distance(plattice, plattice.meet(m, x), plattice.meet(m, y))
                if lhs > updown_distance(plattice, x, y):
                    return _fail("metric", checked, f"meet contraction fails at m={m!r}")
                checked += 1
    return SuiteResult("metric", True, checked, "up-down metric axioms, join continuity, modular meet contraction")


# --- tower limits ---------------------------------------------------------------

def suite_tower(cfg: SuiteConfig) -> SuiteResult:
    checked = 0
    checks = tower_checks()
    checks["isometry_subspace"] = embedding_check(EmbeddingFamily("subspace", p=2), 2, 4)
    for label, res in checks.items():
        if not res.ok:
            return _fail("tower", checked + res.checked, f"{label}: {res.witness}")
        checked += res.checked
    booleans = EmbeddingFamily("boolean")
    for k, n in ((2, 4), (4, 8)):
        for x in booleans.at(k).elements():
            if boolean_to_interval(embed_boolean(x, n)) != boolean_to_interval(x):
                return _fail("tower", checked, f"interval identification not natural at {x!r}")
            checked += 1
    third = IntervalSet(((Fraction(0), Fraction(1, 3)),))
    report = cauchy_approx(third, [2 ** i for i in range(1, 9)])
    dists = [r.distance_to_target for r in report.rows]
    if not report.bound_ok or any(b > a for a, b in zip(dists, dists[1:])):
        return _fail("tower", checked, "approximant distances not shrinking within bound")
    if dists[-1] > Fraction(2, 256):
        return _fail("tower", checked, f"level-256 distance {dists[-1]} above 2/256")
    checked += len(dists)
    dyadic = IntervalSet(((Fraction(1, 4), Fraction(3, 4)),))
    for row in cauchy_approx(dyadic, [4, 8, 16, 32]).rows:
        if row.distance_to_target != 0:
            return _fail("tower", checked, "dyadic target not exact on its grid")
        checked += 1
    offgrid = IntervalSet(((Fraction(1, 3), Fraction(2, 3)),))
    for row in cauchy_approx(offgrid, [3, 6, 12, 24]).rows:
        if row.distance_to_target != 0:
            return _fail("tower", checked, "grid-aligned target not exact")
        checked += 1
    return SuiteResult("tower", True, checked, "coherence, rank preservation, isometry, naturality, Cauchy shrinkage")


# --- discontinuity demos ---------------------------------------------------------

def suite_infinity_demos(cfg: SuiteConfig) -> SuiteResult:
    checked = 0
    plane = product_plane_limit_demo()
    if not (
        plane.meet_scan_sup == ZERO
        and plane.meet_limit_value == Rank(1)
        and plane.meet_discontinuous
        and plane.join_scan_inf == ZERO
        and plane.join_limit_value == Rank(-1)
        and plane.join_discontinuous
    ):
        return _fail("infinity-demos", checked, "plane scan values differ from the fixture")
    checked += len(plane.meet_rows) + len(plane.join_rows)
    lattice = product_plane_lattice()
    below = lattice.rank(lattice.meet(PlanePoint.point(0, Fraction(-5)), PlanePoint.point(1, 0)))
    if below != Rank(-5):
        return _fail("infinity-demos", checked, "negative scan row should equal its parameter")
    checked += 1
    line = bounded_chain_demo()
    if not (
        all(v == 0 for _, v in line.chain_rows)
        and line.target_measure == 2
        and line.chain_discontinuous
        and line.chief_attains
    ):
        return _fail("infinity-demos", checked, "line-set scan values differ from the fixture")
    checked += len(line.chain_rows) + len(line.chief_rows)
    bounded = hypothesis_bounded_interval(UPPER)
    if bounded.failing or not all(c.vacuous for c in bounded.conditions):
        return _fail("infinity-demos", checked, "bounded stage should satisfy all conditions vacuously")
    line_rep = hypothesis_line_sets(line)
    if line_rep.failing != ("chain-meet-sup",):
        return _fail("infinity-demos", checked, f"line stage flags {line_rep.failing}")
    plane_rep = hypothesis_product_plane(plane)
    if plane_rep.failing != ("chain-meet-sup",):
        return _fail("infinity-demos", checked, f"plane stage flags {plane_rep.failing}")
    checked += 12
    unbounded = interval_lattice(Ambient(None))
    with_top = adjoin_bounds(unbounded, top_rank=POS_INF)
    if with_top.rank(with_top.top) != POS_INF:
        return _fail("infinity-demos", checked, "adjoined top rank should be +inf")
    probe = IntervalSet(((Fraction(-1), Fraction(1)),))
    if rank_modular_defect(with_top, with_top.top, probe) != ZERO:
        return _fail("infinity-demos", checked, "adjoined top must be rank modular")
    try:
        adjoin_bounds(interval_lattice(Ambient(UPPER)), top_rank=POS_INF)
        return _fail("infinity-demos", checked, "adjoining over an existing top must be refused")
    except PreconditionViolation:
        pass
    checked += 3
    return SuiteResult("infinity-demos", True, checked, "plane and line discontinuities, hypothesis flags, bound adjunction")


def suite_counterexample(cfg: SuiteConfig) -> SuiteResult:
    report = counterexample_report()
    if not report.matches_expected:
        return _fail("counterexample", 0, f"values drifted: {report!r}")
    # matches_expected compares each prefix row and four single values.
    checked = len(report.prefix_rows) + 4
    if report != counterexample_report():
        return _fail("counterexample", checked, "rerun produced different values")
    checked += 1
    uniform = IntervalRegrader(UPPER, LevelCutset(Fraction(1)))
    lower = IntervalSet(((Fraction(0), Fraction(1)),))
    upper_half = IntervalSet(((Fraction(1), Fraction(2)),))
    if uniform.regraded_defect(lower, upper_half) != 0:
        return _fail("counterexample", checked, "uniform density should keep the chief chain modular")
    checked += 1
    return SuiteResult(
        "counterexample", True, checked,
        "two-speed density reproduces the expected regraded values and breaks chief modularity",
    )


# --- serialization ----------------------------------------------------------------

def suite_json_roundtrip(cfg: SuiteConfig) -> SuiteResult:
    rng = _rng(cfg, "json-roundtrip")
    checked = 0
    for _ in range(cfg.samples or 100):
        u = random_interval_set(rng, UPPER)
        if interval_set_from_json(interval_set_to_json(u)) != u:
            return _fail("json-roundtrip", checked, f"interval set drifts: {u!r}")
        density = random_density(rng, UPPER)
        if density_from_json(density_to_json(density)) != density:
            return _fail("json-roundtrip", checked, f"density drifts: {density!r}")
        checked += 2
    stage = counterexample_stage()
    cutset = stage.cutset
    if cutset_from_json(cutset_to_json(cutset)) != cutset:
        return _fail("json-roundtrip", checked, "level cutset drifts")
    fam = partition_family(4)
    for e in fam.elements():
        if element_from_json(fam, element_to_json(e)) != e:
            return _fail("json-roundtrip", checked, f"partition drifts: {e!r}")
        checked += 1
    bfam = boolean_family(4)
    for e in bfam.elements():
        if element_from_json(bfam, element_to_json(e)) != e:
            return _fail("json-roundtrip", checked, f"subset drifts: {e!r}")
        checked += 1
    sfam = subspace_family(2, 3)
    for e in sfam.elements():
        if element_from_json(sfam, element_to_json(e)) != e:
            return _fail("json-roundtrip", checked, f"subspace drifts: {e!r}")
        checked += 1
    return SuiteResult("json-roundtrip", True, checked, "bit-exact serialization round trips")


SUITES: dict[str, Callable[[SuiteConfig], SuiteResult]] = {
    "lattice-axioms": suite_lattice_axioms,
    "balance": suite_balance,
    "diamond": suite_diamond,
    "lipschitz": suite_lipschitz,
    "left-modular": suite_left_modular,
    "chief-exchange": suite_chief_exchange,
    "interval-projection": suite_interval_projection,
    "profiles": suite_profiles,
    "modular-grading": suite_modular_grading,
    "level-set": suite_level_set,
    "monotone-surjective": suite_monotone_surjective,
    "finite-counts": suite_finite_counts,
    "finite-regrade": suite_finite_regrade,
    "metric": suite_metric,
    "tower": suite_tower,
    "infinity-demos": suite_infinity_demos,
    "counterexample": suite_counterexample,
    "json-roundtrip": suite_json_roundtrip,
}


def run_suite(name: str, cfg: SuiteConfig) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](cfg)


def run_suites(names, cfg: SuiteConfig) -> list[SuiteResult]:
    return [run_suite(name, cfg) for name in names]
