"""Tower embeddings over the divisibility order and Cauchy approximation.

Levels are positive integers ordered by divisibility.  Boolean levels embed
by block inflation (member i of [k] becomes the n/k consecutive members of
[n] starting at (i-1)(n/k)+1); subspace levels embed by block-diagonal
repetition.  Both preserve the renormalized rank (rank over level) and the
up-down metric, and compose coherently, which is what makes the limit well
defined.  The completion itself is never materialized: it is witnessed by
inward grid approximants whose distances shrink like 1/level.

The monotone-limit hypothesis reports for unbounded gradings scan the four
sup/inf conditions along monotone chains of the line and the product plane,
where a bounded-interval argument no longer applies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .core import CheckResult, GradedLattice, adjoin_bounds, updown_distance
from .errors import PreconditionViolation
from .finite import (
    BitSubset,
    FiniteFamily,
    PlanePoint,
    Subspace,
    boolean_family,
    boolean_lattice,
    product_plane_lattice,
    subspace_family,
    subspace_lattice,
)
from .intervals import Ambient, IntervalSet, chief_element, interval_lattice, normalize
from .rank import POS_INF, RankValue


def _require_divides(k: int, n: int) -> None:
    if k <= 0 or n <= 0 or n % k != 0:
        raise PreconditionViolation(f"{k} does not divide {n}")


def embed_boolean(s: BitSubset, n: int) -> BitSubset:
    """Inflate a subset of [k] to the subset of [n] covering the same blocks."""
    _require_divides(s.n, n)
    width = n // s.n
    mask = 0
    block = (1 << width) - 1
    for i in range(s.n):
        if s.mask >> i & 1:
            mask |= block << (i * width)
    return BitSubset(n, mask)


def embed_subspace(w: Subspace, n: int) -> Subspace:
    """Repeat a subspace of F_p^k block-diagonally inside F_p^n."""
    _require_divides(w.n, n)
    copies = n // w.n
    rows = []
    for row in w.rows:
        for t in range(copies):
            wide = [0] * n
            wide[t * w.n : (t + 1) * w.n] = list(row)
            rows.append(wide)
    return Subspace.from_rows(w.p, n, rows)


@dataclass(frozen=True)
class EmbeddingFamily:
    """A tower of finite lattices: the family at each level and the embedding.

    ``embed(x, n)`` maps an element of a level k dividing n to level n.
    """

    at: Callable[[int], FiniteFamily]
    embed: Callable[[Any, int], Any]


BOOLEAN_TOWER = EmbeddingFamily(boolean_family, embed_boolean)
F2_SUBSPACE_TOWER = EmbeddingFamily(functools.partial(subspace_family, 2), embed_subspace)


def coherence_check(family: EmbeddingFamily, k: int, m: int, n: int) -> CheckResult:
    """Embedding k->n must agree with k->m->n on every level-k element."""
    _require_divides(k, m)
    _require_divides(m, n)
    checked = 0
    for x in family.at(k).elements():
        direct = family.embed(x, n)
        composed = family.embed(family.embed(x, m), n)
        if direct != composed:
            return CheckResult(False, checked, f"coherence fails at {x!r}")
        checked += 1
    return CheckResult(True, checked)


def updown_metric(x: BitSubset | Subspace, y: BitSubset | Subspace) -> Fraction:
    """2 r(x v y) - r(x) - r(y) with renormalized ranks; a metric on each level."""
    if not isinstance(x, (BitSubset, Subspace)):
        raise PreconditionViolation(f"metric needs Boolean or subspace elements, got {x!r}")
    if type(x) is not type(y) or x.n != y.n or getattr(x, "p", None) != getattr(y, "p", None):
        raise PreconditionViolation(f"metric needs one level, got {x!r} and {y!r}")
    if isinstance(x, BitSubset):
        lattice = boolean_lattice(x.n)
    else:
        lattice = subspace_lattice(x.p, x.n)
    return updown_distance(lattice, x, y) / x.n


def embedding_check(family: EmbeddingFamily, k: int, n: int) -> CheckResult:
    """The k -> n embedding preserves renormalized rank, the metric, meet and join.

    One check per level-k element for its rank and one per pair for the rest.
    """
    _require_divides(k, n)
    family_k = family.at(k)
    lattice_k = family_k.lattice
    lattice_n = family.at(n).lattice
    level_k = family_k.elements()
    checked = 0
    for x in level_k:
        if lattice_n.rank(family.embed(x, n)) / n != lattice_k.rank(x) / k:
            return CheckResult(False, checked, f"rank not preserved at {x!r}")
        checked += 1
        for y in level_k:
            fx, fy = family.embed(x, n), family.embed(y, n)
            if updown_distance(lattice_n, fx, fy) / n != updown_distance(lattice_k, x, y) / k:
                return CheckResult(False, checked, f"not an isometry at ({x!r}, {y!r})")
            if lattice_n.meet(fx, fy) != family.embed(lattice_k.meet(x, y), n):
                return CheckResult(False, checked, f"meet not preserved at ({x!r}, {y!r})")
            if lattice_n.join(fx, fy) != family.embed(lattice_k.join(x, y), n):
                return CheckResult(False, checked, f"join not preserved at ({x!r}, {y!r})")
            checked += 1
    return CheckResult(True, checked)


def tower_checks() -> dict[str, CheckResult]:
    """Coherence of the Boolean and F_2 subspace towers and the Boolean 2 -> 4 embedding."""
    return {
        "coherence_boolean": coherence_check(BOOLEAN_TOWER, 2, 4, 8),
        "coherence_subspace": coherence_check(F2_SUBSPACE_TOWER, 1, 2, 4),
        "isometry_boolean": embedding_check(BOOLEAN_TOWER, 2, 4),
    }


def boolean_to_interval(s: BitSubset) -> IntervalSet:
    """Identify member i of [n] with ((i-1)/n, i/n]; adjacent members merge."""
    n = s.n
    pairs = [(Fraction(i - 1, n), Fraction(i, n)) for i in s.members()]
    return normalize(pairs)


def _approximant(target: IntervalSet, level: int) -> IntervalSet:
    # Shrink inward: round left endpoints up and right endpoints down to the
    # 1/level grid, dropping slivers, so the approximant stays below target.
    pairs = []
    for a, b in target.intervals:
        lo = Fraction(math.ceil(a * level), level)
        hi = Fraction(math.floor(b * level), level)
        if lo < hi:
            pairs.append((lo, hi))
    return IntervalSet(tuple(pairs))


@dataclass(frozen=True)
class CauchyRow:
    level: int
    approximant: IntervalSet
    distance_to_target: Fraction
    distance_to_previous: Fraction | None


@dataclass(frozen=True)
class CauchyReport:
    """Distance table for grid approximants of a target set in (0, 1]."""

    target: IntervalSet
    rows: tuple[CauchyRow, ...]

    @property
    def bound_ok(self) -> bool:
        budget = 2 * len(self.target.intervals)
        return all(r.distance_to_target <= Fraction(budget, r.level) for r in self.rows)


def cauchy_approx(target: IntervalSet, levels: Sequence[int]) -> CauchyReport:
    """Best inward approximants of the target at each level, with distances.

    Levels must strictly increase and each must divide the next.  Since the
    approximants sit below the target, the up-down distance reduces to the
    measure deficit, which is at most two grid cells per target interval.
    """
    for a, b in target.intervals:
        if not (0 <= a and b <= 1):
            raise PreconditionViolation("target must lie in (0, 1]")
    levels = list(levels)
    if not levels:
        raise PreconditionViolation("need at least one level")
    for lv in levels:
        if lv <= 0:
            raise PreconditionViolation("levels must be positive")
    for k, n in zip(levels, levels[1:]):
        if not k < n or n % k != 0:
            raise PreconditionViolation(
                f"levels must strictly increase along divisibility, got {k} then {n}"
            )
    lattice = interval_lattice(Ambient(Fraction(1)))
    rows = []
    prev: IntervalSet | None = None
    for lv in levels:
        approx = _approximant(target, lv)
        rows.append(
            CauchyRow(
                level=lv,
                approximant=approx,
                distance_to_target=updown_distance(lattice, approx, target),
                distance_to_previous=None if prev is None else updown_distance(lattice, approx, prev),
            )
        )
        prev = approx
    return CauchyReport(target=target, rows=tuple(rows))


# --- Monotone-limit hypotheses for unbounded gradings ------------------------

CONDITION_NAMES = (
    "chain-meet-sup",
    "chain-join-inf",
    "chief-meet-sup",
    "chief-join-inf",
)


@dataclass(frozen=True)
class LimitCondition:
    """One sup/inf condition, scanned along a monotone chain against a probe.

    ``rows`` pairs each chain parameter with rank(member ^ probe) for a
    ``-sup`` condition, or rank(member v probe) for an ``-inf`` one, and
    ``target_value`` is that rank at the chain's limit.  No rows means the
    condition is vacuous: the grading is bounded on the relevant side, so
    nothing needs scanning.
    """

    name: str
    rows: tuple[tuple[Fraction, RankValue], ...] = ()
    target_value: RankValue | None = None

    @property
    def vacuous(self) -> bool:
        return not self.rows

    @property
    def scan_value(self) -> RankValue | None:
        """The scan's sup (largest row) or inf (smallest row)."""
        if self.vacuous:
            return None
        return (max if self.name.endswith("-sup") else min)(v for _, v in self.rows)

    @property
    def holds(self) -> bool:
        return self.vacuous or self.scan_value == self.target_value


@dataclass(frozen=True)
class HypothesisReport:
    conditions: tuple[LimitCondition, ...]

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.holds)


def _scan(name: str, lattice: GradedLattice, probe, chain: dict, limit) -> LimitCondition:
    """Scan ``chain`` (parameter -> member) with meets for ``-sup``, joins for ``-inf``."""
    op = lattice.meet if name.endswith("-sup") else lattice.join
    rows = tuple((t, lattice.rank(op(member, probe))) for t, member in chain.items())
    return LimitCondition(name, rows, lattice.rank(op(limit, probe)))


def hypothesis_bounded_interval(upper: Fraction) -> HypothesisReport:
    """Bounded gradings satisfy all four conditions with nothing to scan."""
    Ambient(upper)  # validates
    return HypothesisReport(tuple(LimitCondition(name) for name in CONDITION_NAMES))


def hypothesis_line_sets() -> HypothesisReport:
    """Bounded measurable sets on the line: the far-away chain breaks one condition.

    Both chains rise to the top adjoined at +inf, whose meet with the target
    (-1, 1] is the target itself, of measure 2.  The chain (1, 1+k] never
    reaches the target, so its meet scan is stuck at zero; the chief chain
    (-k/2, k/2] absorbs every bounded set, so its scan attains 2.  Measure
    is bounded below, making both inf conditions vacuous.
    """
    ambient = Ambient(None)
    lattice = adjoin_bounds(interval_lattice(ambient), POS_INF)
    target = IntervalSet(((Fraction(-1), Fraction(1)),))
    far = {k: IntervalSet(((Fraction(1), 1 + k),)) for k in (Fraction(1), Fraction(10), Fraction(1000))}
    chief = {k: chief_element(ambient, k) for k in map(Fraction, range(1, 5))}
    return HypothesisReport((
        _scan("chain-meet-sup", lattice, target, far, lattice.top),
        LimitCondition("chain-join-inf"),
        _scan("chief-meet-sup", lattice, target, chief, lattice.top),
        LimitCondition("chief-join-inf"),
    ))


def hypothesis_product_plane() -> HypothesisReport:
    """The product plane: both chain conditions fail, both chief ones hold.

    The chain is the vertical axis and the chief chain the horizontal one.
    Meets of the probe (1, 0) with (0, b) plateau at the origin, rank 0,
    while its meet with the top is the probe itself, rank 1.  The plane is
    self-dual under (a, b) -> (-a, -b), so dually joins of (-1, 0) with
    (0, -b) plateau at rank 0 while its join with the bottom has rank -1.
    Along the chief chain both scans reach the probe's rank.
    """
    lattice = product_plane_lattice()
    point = PlanePoint.point
    up, down = point(1, 0), point(-1, 0)
    bs = (Fraction(1), Fraction(10), Fraction(100))
    return HypothesisReport((
        _scan("chain-meet-sup", lattice, up, {b: point(0, b) for b in bs}, lattice.top),
        _scan("chain-join-inf", lattice, down, {b: point(0, -b) for b in bs}, lattice.bottom),
        _scan("chief-meet-sup", lattice, up, {b: point(b, 0) for b in bs}, lattice.top),
        _scan("chief-join-inf", lattice, down, {b: point(-b, 0) for b in bs}, lattice.bottom),
    ))
