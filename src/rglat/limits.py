"""Tower embeddings over the divisibility order and Cauchy approximation.

Levels are positive integers ordered by divisibility.  Boolean levels embed
by block inflation (member i of [k] becomes the n/k consecutive members of
[n] starting at (i-1)(n/k)+1); subspace levels embed by block-diagonal
repetition.  Both preserve the renormalized rank (rank over level) and the
up-down metric, and compose coherently, which is what makes the limit well
defined.  The completion itself is never materialized: it is witnessed by
inward grid approximants whose distances shrink like 1/level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .core import CheckResult, updown_distance
from .errors import PreconditionViolation
from .finite import (
    BitSubset,
    FiniteFamily,
    Subspace,
    boolean_family,
    boolean_lattice,
    subspace_family,
    subspace_lattice,
)
from .intervals import Ambient, IntervalSet, interval_lattice, normalize


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
