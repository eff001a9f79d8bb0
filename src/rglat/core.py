"""Graded-lattice contract and family-independent identity checks.

A lattice is presented through its meet/join/rank callables; the order is
derived from meet (``x <= y`` iff ``meet(x, y) == x``).  The checks here are
the parts of rank-modularity theory that do not depend on any particular
family: the modular defect, the balance and diamond rows, the Lipschitz chain
scan, and top adjunction for unbounded lattices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .errors import PreconditionViolation
from .rank import Rank, RankValue

Element = Any


@dataclass(frozen=True)
class GradedLattice:
    """Bundle of meet/join/rank over one element domain.

    Equality of elements is plain ``==`` on canonical values.  ``bottom``
    and ``top`` are optional: unbounded families leave them ``None``.

    ``rank`` returns a bare :class:`~fractions.Fraction` for every finite
    rank.  Only the product plane and a lattice wrapped by
    :func:`adjoin_bounds` can also return one of the constants
    :data:`~rglat.rank.NEG_INF` and :data:`~rglat.rank.POS_INF`, which
    compare and combine with ``Fraction`` ranks exactly.
    """

    name: str
    meet: Callable[[Element, Element], Element]
    join: Callable[[Element, Element], Element]
    rank: Callable[[Element], RankValue]
    bottom: Element | None = None
    top: Element | None = None

    def leq(self, x: Element, y: Element) -> bool:
        return self.meet(x, y) == x

    def lt(self, x: Element, y: Element) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: Element, y: Element) -> bool:
        m = self.meet(x, y)
        return m == x or m == y


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a bulk check: pass/fail, how much was checked, a witness."""

    ok: bool
    checked: int
    witness: str | None = None


@dataclass(frozen=True)
class ChainSample:
    """A finite sample of a chain: (rank, element) pairs, strictly increasing."""

    points: tuple[tuple[RankValue, Element], ...]

    def __post_init__(self):
        ranks = [r for r, _ in self.points]
        for a, b in zip(ranks, ranks[1:]):
            if not a < b:
                raise PreconditionViolation(
                    f"chain ranks must strictly increase, got {a} then {b}"
                )

    @classmethod
    def from_elements(cls, lattice: GradedLattice, elements: Iterable[Element]) -> "ChainSample":
        """Build a sample from lattice elements, validating the order as well."""
        points: list[tuple[RankValue, Element]] = []
        prev: Element | None = None
        for e in elements:
            if prev is not None and not lattice.lt(prev, e):
                raise PreconditionViolation(
                    f"chain elements must strictly increase: {prev!r} then {e!r}"
                )
            points.append((lattice.rank(e), e))
            prev = e
        return cls(tuple(points))

    def elements(self) -> tuple[Element, ...]:
        return tuple(e for _, e in self.points)

    def ranks(self) -> tuple[RankValue, ...]:
        return tuple(r for r, _ in self.points)


def rank_modular_defect(lattice: GradedLattice, m: Element, x: Element) -> RankValue:
    """rank(x v m) + rank(x ^ m) - rank(x) - rank(m); zero iff the pair is balanced.

    Comparable pairs are settled before any arithmetic: there the identity
    holds by rearrangement, and this is the only place where opposite
    infinities could otherwise meet.
    """
    if lattice.comparable(m, x):
        return Fraction(0)
    join_rank = lattice.rank(lattice.join(x, m))
    meet_rank = lattice.rank(lattice.meet(x, m))
    return join_rank + meet_rank - lattice.rank(x) - lattice.rank(m)


def _require_leq(lattice: GradedLattice, lo: Element, hi: Element, label: str) -> None:
    if not lattice.leq(lo, hi):
        raise PreconditionViolation(f"{label}: {lo!r} is not below {hi!r}")


def balance_residual(lattice: GradedLattice, x: Element, lo: Element, hi: Element) -> RankValue:
    """[rk(x^hi)+rk(xvhi)] - [rk(x^lo)+rk(xvlo)] - (rk(hi)-rk(lo)) for lo <= hi.

    Exactly zero when x is rank modular.  A balance quadruple, rank-modular
    m_small <= m and w <= z, is the two rows (m; w <= z) and (z; m_small <= m):
    meet and join commute, so each row reads three of the four elements.
    """
    _require_leq(lattice, lo, hi, "balance residual needs lo <= hi")
    rk = lattice.rank
    big = rk(lattice.meet(x, hi)) + rk(lattice.join(x, hi))
    return big - rk(lattice.meet(x, lo)) - rk(lattice.join(x, lo)) - (rk(hi) - rk(lo))


def diamond_row(
    lattice: GradedLattice, x: Element, lo: Element, hi: Element
) -> tuple[RankValue, RankValue, RankValue]:
    """(rk(x^hi) - rk(x^lo), rk(xvhi) - rk(xvlo), rk(hi) - rk(lo)) for lo <= hi.

    For rank-modular x each rise is at most the height and the two slacks
    below it sum exactly to the height.  A diamond quadruple is two rows, as
    in :func:`balance_residual`.
    """
    _require_leq(lattice, lo, hi, "diamond row needs lo <= hi")
    rk = lattice.rank
    return (
        rk(lattice.meet(x, hi)) - rk(lattice.meet(x, lo)),
        rk(lattice.join(x, hi)) - rk(lattice.join(x, lo)),
        rk(hi) - rk(lo),
    )


def lipschitz_scan(
    lattice: GradedLattice,
    chain: ChainSample,
    m: Element,
    mode: str,
) -> Fraction:
    """Max |rk(m op c2) - rk(m op c1)| / (k2 - k1) over consecutive chain samples.

    ``mode`` selects meet or join.  For a rank-modular m the result never
    exceeds 1.  Every rank it reads must be a ``Fraction``: a chain or an
    operand that reaches an infinite rank is refused.
    """
    if mode not in ("meet", "join"):
        raise PreconditionViolation(f"mode must be 'meet' or 'join', got {mode!r}")
    op = lattice.meet if mode == "meet" else lattice.join
    best = Fraction(0)
    for (k1, c1), (k2, c2) in zip(chain.points, chain.points[1:]):
        lo, hi = lattice.rank(op(m, c1)), lattice.rank(op(m, c2))
        if not all(isinstance(r, Fraction) for r in (k1, k2, lo, hi)):
            raise PreconditionViolation("lipschitz scan needs finite Fraction ranks")
        # ChainSample ranks strictly increase, so the step is positive.
        ratio = abs(hi - lo) / (k2 - k1)
        if ratio > best:
            best = ratio
    return best


class _AdjoinedTop:
    """Identity-equal marker adjoined above an unbounded lattice."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<adjoined top>"


ADJOINED_TOP = _AdjoinedTop()


def adjoin_bounds(lattice: GradedLattice, top_rank) -> GradedLattice:
    """Wrap a lattice without a top with a synthetic top at the given rank.

    ``top_rank`` is anything :func:`~rglat.rank.Rank` accepts, ``POS_INF``
    included.  The synthetic top is rank modular by construction (it is
    comparable with everything).  Adjoining over an existing top is refused.
    """
    if lattice.top is not None:
        raise PreconditionViolation(f"{lattice.name} already has a top element")
    top_r = Rank(top_rank)

    def meet(x: Element, y: Element) -> Element:
        if x is ADJOINED_TOP:
            return y
        if y is ADJOINED_TOP:
            return x
        return lattice.meet(x, y)

    def join(x: Element, y: Element) -> Element:
        if x is ADJOINED_TOP or y is ADJOINED_TOP:
            return ADJOINED_TOP
        return lattice.join(x, y)

    def rank(x: Element) -> RankValue:
        return top_r if x is ADJOINED_TOP else lattice.rank(x)

    return GradedLattice(
        name=f"{lattice.name}+bounds",
        meet=meet,
        join=join,
        rank=rank,
        bottom=lattice.bottom,
        top=ADJOINED_TOP,
    )


def updown_distance(lattice: GradedLattice, x: Element, y: Element) -> RankValue:
    """2*rank(x v y) - rank(x) - rank(y): the up-down path length."""
    j = lattice.rank(lattice.join(x, y))
    return j + j - lattice.rank(x) - lattice.rank(y)


def check_lattice_axioms(
    lattice: GradedLattice,
    samples: Sequence[Element],
    rng: random.Random,
) -> CheckResult:
    """Idempotence, commutativity, absorption, associativity, rank monotonicity.

    Pairs and triples are exhausted up to 4000 of each, sampled beyond that.
    """
    cap = 4000
    elems = list(samples)
    checked = 0
    for x in elems:
        if lattice.meet(x, x) != x or lattice.join(x, x) != x:
            return CheckResult(False, checked, f"idempotence fails at {x!r}")
        checked += 1

    pairs = list(itertools.combinations(range(len(elems)), 2))
    if len(pairs) > cap:
        pairs = [tuple(rng.sample(range(len(elems)), 2)) for _ in range(cap)]
    for i, j in pairs:
        x, y = elems[i], elems[j]
        m1, m2 = lattice.meet(x, y), lattice.meet(y, x)
        j1, j2 = lattice.join(x, y), lattice.join(y, x)
        if m1 != m2 or j1 != j2:
            return CheckResult(False, checked, f"commutativity fails at ({x!r}, {y!r})")
        if lattice.meet(x, lattice.join(x, y)) != x or lattice.join(x, lattice.meet(x, y)) != x:
            return CheckResult(False, checked, f"absorption fails at ({x!r}, {y!r})")
        if lattice.lt(x, y) and not lattice.rank(x) < lattice.rank(y):
            return CheckResult(False, checked, f"rank not strictly increasing at ({x!r}, {y!r})")
        if lattice.lt(y, x) and not lattice.rank(y) < lattice.rank(x):
            return CheckResult(False, checked, f"rank not strictly increasing at ({y!r}, {x!r})")
        checked += 1

    n = len(elems)
    if n >= 3:
        triples = list(itertools.combinations(range(n), 3))
        if len(triples) > cap:
            triples = [tuple(rng.sample(range(n), 3)) for _ in range(cap)]
        for i, j, k in triples:
            x, y, z = elems[i], elems[j], elems[k]
            if lattice.meet(lattice.meet(x, y), z) != lattice.meet(x, lattice.meet(y, z)):
                return CheckResult(False, checked, f"meet associativity fails at ({x!r}, {y!r}, {z!r})")
            if lattice.join(lattice.join(x, y), z) != lattice.join(x, lattice.join(y, z)):
                return CheckResult(False, checked, f"join associativity fails at ({x!r}, {y!r}, {z!r})")
            checked += 1
    return CheckResult(True, checked)
