"""Cutset projection and the regraded rank function.

Given a lattice with a chief chain and an antichain cutset A, every element
z determines a maximal chain (its meets and joins with the chief chain),
which crosses A at a unique element: the projection of z.  The regraded
rank of z is its rank minus the rank of its projection; it vanishes exactly
on A, is strictly increasing, and is surjective onto its range on every
maximal chain, so A becomes a level set.

Two engines share this logic: :class:`IntervalRegrader` solves the crossing
exactly on piecewise-linear profiles of the bounded interval lattice;
:class:`FiniteRegrader` reads it off the saturated chain of a finite family
at the cutset's rank level.  The regraded rank in general destroys rank
modularity of the original chief chain; :func:`counterexample_report` pins
the two-speed density instance where that failure is visible.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .core import CheckResult, GradedLattice
from .errors import (
    AmbientMismatch,
    CutsetError,
    InputFormatError,
    PreconditionViolation,
    SizeCapExceeded,
)
from .intervals import (
    EMPTY,
    Ambient,
    IntervalSet,
    ProfileBundle,
    StepDensity,
    _scaled,
    chief_element,
    density_from_json,
    density_to_json,
    grade_value,
    intersect,
    profile_bundle,
    union,
)
from .rank import exact_fraction, format_fraction, json_array, parse_fraction

if TYPE_CHECKING:
    from .finite import FiniteFamily


@dataclass(frozen=True)
class LevelCutset:
    """The level set {x : grading(x) = value} of a second exact grading.

    ``density`` selects the grading on the interval lattice (``None`` means
    the lattice's own rank: measure there, natural rank on finite
    families).  The value must be strictly between the grading of bottom
    and top for the level set to be a nonempty antichain cutset.
    """

    value: Fraction
    density: StepDensity | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", exact_fraction(self.value))


@dataclass(frozen=True)
class ExplicitCutset:
    """A finite antichain given element by element (finite lattices only)."""

    elements: tuple


@dataclass(frozen=True)
class ProjectionResult:
    """The cutset crossing of the projection chain through z.

    ``chief_level`` is the least chief parameter producing the crossing;
    the element itself does not depend on that choice.
    """

    element: object
    chief_level: Fraction
    side: str


@dataclass(frozen=True)
class SweepRow:
    side: str  # "chief" | "meet" | "join"
    level: Fraction
    rank: Fraction
    regraded: Fraction


def finite_good_chain(lattice: GradedLattice, chief_elements, z) -> tuple[ProjectionResult, ...]:
    """The saturated chain of meets and joins of z with the chief chain.

    Each element comes as a crossing: with the least chief level giving it,
    on the meet side if it lies below z (z too, as z ^ top), else the join
    side.  Raises RuntimeError if the elements fail to form a saturated
    chain; with a rank-modular chief chain they always do.
    """
    by_rank: dict[Fraction, ProjectionResult] = {}
    for m in chief_elements:
        level = lattice.rank(m)
        for side, e in (("meet", lattice.meet(z, m)), ("join", lattice.join(z, m))):
            r = lattice.rank(e)
            found = by_rank.setdefault(r, ProjectionResult(e, level, side))
            if found.element != e:
                raise RuntimeError(f"rank {r} reached by two distinct chain elements")
            if found.side != side == "meet":
                # Only z is both a meet and a join; it lies below itself.
                by_rank[r] = ProjectionResult(e, level, side)
    expected = [Fraction(i) for i in range(int(lattice.rank(lattice.top)) + 1)]
    if sorted(by_rank) != expected:
        raise RuntimeError(f"projection chain through {z!r} is not saturated")
    chain = tuple(by_rank[r] for r in expected)
    for a, b in zip(chain, chain[1:]):
        if not lattice.leq(a.element, b.element):
            raise RuntimeError(f"projection chain through {z!r} is not a chain")
    return chain


# Levels per side of a sweep; a finer grid raises SizeCapExceeded.
MAX_GRID_LEVELS = 10_000


def _grid(upper: Fraction, step: Fraction) -> tuple[list[int], int]:
    """The sweep levels, the multiples of step below upper and then upper.

    They come as integer numerators over one denominator, returned with them.
    """
    step = exact_fraction(step)
    if step <= 0:
        raise PreconditionViolation("grid step must be positive")
    count = math.ceil(upper / step)
    if count + 1 > MAX_GRID_LEVELS:
        raise SizeCapExceeded(
            f"grid step {step} on (0, {upper}] needs {count + 1} levels, over the cap {MAX_GRID_LEVELS}"
        )
    den = math.lcm(step.denominator, upper.denominator)
    unit = step.numerator * (den // step.denominator)
    return [k * unit for k in range(count)] + [upper.numerator * (den // upper.denominator)], den


class IntervalRegrader:
    """Regrading on the bounded interval lattice with the prefix chief chain."""

    def __init__(self, ambient: Ambient | Fraction, cutset: LevelCutset):
        if not isinstance(ambient, Ambient):
            ambient = Ambient(ambient)
        if not ambient.bounded:
            raise AmbientMismatch("regrading runs on a bounded ambient")
        if cutset.density is not None and cutset.density.upper != ambient.upper:
            raise AmbientMismatch(
                f"cutset density ends at {cutset.density.upper}, ambient at {ambient.upper}"
            )
        self.ambient = ambient
        self.cutset = cutset
        self.top = IntervalSet(((Fraction(0), ambient.upper),))
        total = grade_value(self.top, cutset.density)
        if not 0 < cutset.value < total:
            raise CutsetError(
                f"level {cutset.value} is not strictly inside (0, {total}); "
                "the level set is not an antichain cutset"
            )
        # t*, the chief chain's own crossing: the least level whose prefix (0, level] grades
        # the cutset value (the value itself under measure).  It depends on the cutset alone.
        self.chief_alpha = cutset.value if cutset.density is None else cutset.density.prefix_inverse(cutset.value)

    @property
    def density(self) -> StepDensity | None:
        return self.cutset.density

    def grade(self, u: IntervalSet) -> Fraction:
        return grade_value(u, self.cutset.density)

    def chief(self, level: Fraction) -> IntervalSet:
        return chief_element(self.ambient, level)

    def _solve(self, bundle: ProfileBundle) -> tuple[Fraction, str, Fraction]:
        """The least chief level giving the crossing, its side, and its measure.

        The measure is read off the parallel measure profile at that level,
        so no element is materialized.
        """
        if bundle.grade_of_element >= self.cutset.value:
            level = bundle.grade_meet.min_level_at_value(self.cutset.value)
            return level, "meet", bundle.measure_meet.value_at(level)
        level = bundle.grade_join.min_level_at_value(self.cutset.value)
        return level, "join", bundle.measure_join.value_at(level)

    def project(self, z: IntervalSet) -> ProjectionResult:
        """Exact crossing of the projection chain through z with the cutset.

        Above or on the cutset the crossing lies on the meet side, below it
        on the join side; either way it is the root of a piecewise-linear
        profile, solved exactly, at the least solving level.
        """
        bundle = profile_bundle(self.ambient, z, self.cutset.density)
        level, side, _ = self._solve(bundle)
        alpha = intersect(z, self.chief(level)) if side == "meet" else union(z, self.chief(level))
        if self.grade(alpha) != self.cutset.value:
            raise RuntimeError("projection missed the cutset level")
        return ProjectionResult(alpha, level, side)

    def regraded(self, z: IntervalSet) -> Fraction:
        """measure(z) minus measure of its projection; zero exactly on the cutset."""
        bundle = profile_bundle(self.ambient, z, self.cutset.density)
        return bundle.measure_of_element - self._solve(bundle)[2]

    def regraded_defect(self, m: IntervalSet, x: IntervalSet) -> Fraction:
        """Modular defect of the regraded rank; nonzero values are expected."""
        return (
            self.regraded(union(m, x))
            + self.regraded(intersect(m, x))
            - self.regraded(m)
            - self.regraded(x)
        )

    def monotone_check(self, pairs: Iterable[tuple[IntervalSet, IntervalSet]]) -> CheckResult:
        checked = 0
        for w, z in pairs:
            if not (intersect(w, z) == w and w != z):
                raise PreconditionViolation("monotone check needs strict w < z pairs")
            if not self.regraded(w) < self.regraded(z):
                return CheckResult(False, checked, f"regraded rank not increasing at ({w!r}, {z!r})")
            checked += 1
        return CheckResult(True, checked)

    def sweep_chief(self, step: Fraction) -> list[SweepRow]:
        # The projection chain through a chief element m_t is the chief chain itself,
        # as m_t ^ m_mu and m_t v m_mu are prefixes.  So every m_t crosses the cutset
        # at m_{t*}, of measure t*, and has rank t and regraded rank t - t*.
        grid, den = _grid(self.ambient.upper, step)
        return [SweepRow("chief", t, t, t - self.chief_alpha) for t in (Fraction(k, den) for k in grid)]


class _SweepEvaluator:
    """Closed-form regraded ranks along the projection chain through z, in integers.

    Every element of the chain is a meet or join of z with a prefix, so the
    exchange identities reduce each crossing to values of z's own four
    profiles.  The prefix grading cancels out of every branch through
    modularity, leaving only the chief chain's own crossing measure t*.  A
    sweep then costs one profile bundle instead of one projection per grid
    point, and each side is read on the increasing level list in one walk.

    The walk runs on integer numerators over one denominator D per chain: the
    lcm of the denominators of the breakpoints, the grid, the cutset value c,
    z's crossing measure and t*, times Q, the lcm of the density values'
    denominators.  Each bundle value is a sum of lengths, each times 1 or a
    density value, so D covers the four value columns too.  On a piece a
    grade column has slope 0, 1 or a density value p/q, and a level minus
    the piece's left end is a multiple of Q once scaled, so q divides it and
    the walk is exact.  It builds no Fraction; the sweep gate of
    ``monotone-surjective`` reads the integer rows, meet side then join side,
    which is the chain in rank order.
    """

    def __init__(self, regrader: "IntervalRegrader", z: IntervalSet, step: Fraction):
        grid, grid_den = _grid(regrader.ambient.upper, step)
        density = regrader.cutset.density
        bundle = profile_bundle(regrader.ambient, z, density)
        c, alpha, t_star = regrader.cutset.value, regrader._solve(bundle)[2], regrader.chief_alpha
        breakpoints = bundle.grade_meet.breakpoints
        slope_den = 1 if density is None else math.lcm(*(v.denominator for v in density.values))
        d = slope_den * math.lcm(
            grid_den, c.denominator, alpha.denominator, t_star.denominator, *(x.denominator for x in breakpoints)
        )
        self.scale = d
        self.grid = [k * (d // grid_den) for k in grid]
        self.breakpoints = _scaled(breakpoints, d)
        self.measure_meet = _scaled(bundle.measure_meet.values, d)
        self.measure_join = _scaled(bundle.measure_join.values, d)
        if density is None:  # the grade columns are the measure columns
            self.grade_meet, self.grade_join = self.measure_meet, self.measure_join
        else:
            self.grade_meet = _scaled(bundle.grade_meet.values, d)
            self.grade_join = _scaled(bundle.grade_join.values, d)
        # alpha, the measure of z's own crossing, is shared by every row on z's side
        # of the cutset.  At level t* the branches on either side of the test give
        # the same row.
        self.level, self.alpha, self.chief_alpha = _scaled((c, alpha, t_star), d)
        self.grade_of_element = self.grade_meet[-1]
        self.measure_of_element = self.measure_meet[-1]

    def _walk(self, grade: list[int], measure: list[int]) -> list[tuple[int, int]]:
        """(grade, measure) of one side at each grid level, in one pass over the pieces."""
        xs = self.breakpoints
        last = len(xs) - 1
        pieces = []
        for i in range(last):
            run, rise = xs[i + 1] - xs[i], grade[i + 1] - grade[i]
            k = math.gcd(run, rise)
            # The grade slope as p / q, and whether measure has slope 1 (else 0).
            pieces.append((rise // k, run // k, measure[i + 1] != measure[i]))
        out = []
        i = 0
        for x in self.grid:
            while i < last and xs[i + 1] <= x:
                i += 1
            if i == last:
                out.append((grade[i], measure[i]))
            else:
                p, q, rising = pieces[i]
                t = x - xs[i]
                out.append((grade[i] + p * (t // q), (measure[i] + t) if rising else measure[i]))
        return out

    def _exchange(self, grade: list[int], measure: list[int], target: int) -> tuple[int, int]:
        """measure(z) minus the measure column where the grade column first reaches target.

        As (numerator, denominator).  The columns share their pieces, and the
        target lies strictly above the grade column's start, so the piece is
        the one bisect finds and its grade rise is positive.
        """
        i = bisect.bisect_left(grade, target)
        rise = grade[i] - grade[i - 1]
        num = (self.measure_of_element - measure[i - 1]) * rise - (measure[i] - measure[i - 1]) * (
            target - grade[i - 1]
        )
        return num, self.scale * rise

    def side_rows(self, side: str) -> list[tuple[int, int, int]]:
        """(rank, regraded numerator, regraded denominator) of z ^ m_level or z v m_level.

        One row per level, on the "meet" or the "join" side; the rank is over
        ``scale``.  The sides mirror each other, so only the branch tests differ.
        """
        d, c, meet = self.scale, self.level, side == "meet"
        columns = [(self.grade_meet, self.measure_meet), (self.grade_join, self.measure_join)]
        own, other = columns if meet else columns[::-1]
        rows = []
        for x, (grade, rank) in zip(self.grid, self._walk(*own)):
            if (grade >= c) == meet:
                # The element lies on z's side of the cutset, so it shares z's crossing.
                rows.append((rank, rank - self.alpha, d))
            elif (x < self.chief_alpha) == meet:
                # m_level lies on the far side of t*: below it on the meet side, the crossing
                # happens on the bare prefix chain above m_level; above it on the join side,
                # the chief crossing lies below m_level.  Either way it is the crossing.
                rows.append((rank, rank - self.chief_alpha, d))
            else:
                # Meet side: (z ^ m_level) v m_mu = (z v m_mu) ^ m_level for mu <= level.
                # Join side: (z v m_level) ^ m_mu = m_level v (z ^ m_mu) for mu >= level.
                target = c + self.grade_of_element - grade
                rows.append((rank, *self._exchange(*other, target)))
        return rows


class FiniteRegrader:
    """Regrading on a finite family along its canonical chief chain.

    Either kind of cutset is held as one rank level, ``self.level``.
    """

    def __init__(self, family: FiniteFamily, cutset: LevelCutset | ExplicitCutset):
        self.family = family
        self.lattice: GradedLattice = family.lattice
        # Loaded here, so that interval specs and ``counterexample`` never compile rglat.finite.
        from .finite import chief_chain, rank_layers

        self.chief = tuple(chief_chain(family).elements())
        if isinstance(cutset, LevelCutset):
            if cutset.density is not None:
                raise PreconditionViolation("finite families use their own rank for level sets")
            if not 0 < cutset.value < self.lattice.rank(self.lattice.top) or cutset.value.denominator != 1:
                raise CutsetError(f"level {cutset.value} is not an interior rank of {self.lattice.name}")
            self.level = int(cutset.value)
            return
        # A whole rank level meets every maximal chain exactly once, so it is an
        # antichain cutset of any graded lattice.  On an upper semimodular family
        # every antichain cutset is a whole level (finite.semimodularity_gap), and
        # all three FiniteFamily kinds are upper semimodular, so this rejects
        # exactly the antichains that are not cutsets.
        layers = rank_layers(family)
        rank_of = {e: r for r, layer in layers.items() for e in layer}
        members: dict = {}
        for x in cutset.elements:
            if x not in rank_of:
                raise CutsetError(f"{x!r} is not an element of {self.lattice.name}")
            if x in members:
                raise CutsetError(f"{x!r} is listed twice")
            members[x] = rank_of[x]
        if not members:
            raise CutsetError("an explicit cutset cannot be empty")
        first, self.level = next(iter(members.items()))
        for x, r in members.items():
            if r != self.level:
                raise CutsetError(f"not one rank level: {first!r} has rank {self.level}, {x!r} rank {r}")
        for y in layers[self.level]:
            if y not in members:
                raise CutsetError(
                    f"antichain misses the maximal chains through {y!r}, which has rank {self.level} but is not listed"
                )

    def in_cutset(self, x) -> bool:
        return self.lattice.rank(x) == self.level

    def project(self, z) -> ProjectionResult:
        # The good chain is saturated, so its element of rank k sits at index k.
        return finite_good_chain(self.lattice, self.chief, z)[self.level]

    def regraded(self, z) -> Fraction:
        return self.lattice.rank(z) - self.lattice.rank(self.project(z).element)

    def crosscheck(self) -> CheckResult:
        """The regraded rank is a grading with the cutset as zero level set.

        One check per element: zero exactly on the cutset, one value per
        rank, strictly increasing with the rank.  Every element lies on a
        maximal chain at the position of its rank, so this is the same as
        strictly increasing with one value tuple on every maximal chain.
        """
        elems = sorted(self.family.elements(), key=self.lattice.rank)
        last_rank = last_value = None
        for checked, e in enumerate(elems):
            rank, value = self.lattice.rank(e), self.regraded(e)
            if (value == 0) != self.in_cutset(e):
                return CheckResult(False, checked, f"zero level set differs from the cutset at {e!r}")
            if rank == last_rank and value != last_value:
                return CheckResult(False, checked, f"rank {rank} takes two values, at {e!r}")
            if rank != last_rank and last_value is not None and value <= last_value:
                return CheckResult(False, checked, f"not increasing with the rank at {e!r}")
            last_rank, last_value = rank, value
        return CheckResult(True, len(elems))


# --- The two-speed density instance ------------------------------------------

def counterexample_stage() -> IntervalRegrader:
    """Ambient (0, 2], density 1 then 2, cutset at density value 1.

    The regraded rank here takes the chief member (0, 1] out of the
    rank-modular set, showing the construction need not preserve chief
    modularity.
    """
    density = StepDensity(
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(2)),
    )
    return IntervalRegrader(Fraction(2), LevelCutset(Fraction(1), density))


@dataclass(frozen=True)
class CounterexampleReport:
    prefix_rows: tuple[tuple[Fraction, Fraction], ...]
    upper_half: Fraction
    full_interval: Fraction
    empty_set: Fraction
    modular_defect: Fraction

    @property
    def matches_expected(self) -> bool:
        return (
            all(v == t - 1 for t, v in self.prefix_rows)
            and self.upper_half == Fraction(1, 2)
            and self.full_interval == Fraction(1)
            and self.empty_set == Fraction(-1)
            and self.modular_defect == Fraction(-1, 2)
        )


def counterexample_report() -> CounterexampleReport:
    stage = counterexample_stage()
    lower = IntervalSet(((Fraction(0), Fraction(1)),))
    upper = IntervalSet(((Fraction(1), Fraction(2)),))
    prefix_rows = tuple(
        (t, stage.regraded(IntervalSet(((Fraction(0), t),))))
        for t in (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
    )
    return CounterexampleReport(
        prefix_rows=prefix_rows,
        upper_half=stage.regraded(upper),
        full_interval=stage.regraded(stage.top),
        empty_set=stage.regraded(EMPTY),
        modular_defect=stage.regraded_defect(lower, upper),
    )


# --- JSON forms --------------------------------------------------------------

def cutset_to_json(cutset: LevelCutset | ExplicitCutset) -> dict:
    if isinstance(cutset, LevelCutset):
        grading = "rank" if cutset.density is None else {"density": density_to_json(cutset.density)}
        return {"type": "level", "grading": grading, "value": format_fraction(cutset.value)}
    from .finite import element_to_json

    return {"type": "explicit", "elements": [element_to_json(e) for e in cutset.elements]}


def cutset_from_json(data: dict, family: FiniteFamily | None = None) -> LevelCutset | ExplicitCutset:
    if not isinstance(data, dict):
        raise InputFormatError(f"cutset must be a JSON object, got {data!r}")
    try:
        kind = data["type"]
        if kind == "level":
            grading = data["grading"]
            if grading in ("rank", "lebesgue"):
                density = None
            elif isinstance(grading, dict) and "density" in grading:
                density = density_from_json(grading["density"])
            else:
                raise InputFormatError(f"unknown grading descriptor {grading!r}")
            return LevelCutset(parse_fraction(data["value"]), density)
        if kind == "explicit":
            if family is None:
                raise InputFormatError("explicit cutsets need a finite family context")
            from .finite import element_from_json

            return ExplicitCutset(
                tuple(element_from_json(family, e) for e in json_array(data["elements"]))
            )
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad cutset payload: {data!r}") from exc
    raise InputFormatError(f"unknown cutset type {data.get('type')!r}")
