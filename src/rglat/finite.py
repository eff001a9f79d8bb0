"""Small exact lattices used as exhaustive oracles.

Four families: Boolean (bitmask subsets), set partitions under refinement,
subspaces of F_p^n in reduced row-echelon form, and the rational product
plane with infinite extrema.  All canonical forms are structural, so ``==``
decides lattice equality.  Enumeration sizes are guarded by the module
constants ``MAX_ELEMENTS`` and ``MAX_CHAINS``, read at call time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import ChainSample, GradedLattice, rank_modular_defect
from .errors import (
    AmbientMismatch,
    InputFormatError,
    PreconditionViolation,
    SizeCapExceeded,
)
from .rank import NEG_INF, POS_INF, RankValue, exact_fraction, json_array

MAX_BOOLEAN_GROUND = 24
MAX_PARTITION_GROUND = 7
MAX_SUBSPACE_DIM = 6

# Limits for the exhaustive operations; exceeding one raises SizeCapExceeded.
MAX_ELEMENTS = 6000
MAX_CHAINS = 250_000


def _check_ground(n: int, limit: int) -> None:
    # Families call this before they build anything of size n.
    if not 1 <= n <= limit:
        raise PreconditionViolation(f"ground size {n} outside 1..{limit}")


# --- Boolean lattice -------------------------------------------------------

@dataclass(frozen=True)
class BitSubset:
    """Subset of {1..n} as a bitmask; rank is cardinality."""

    n: int
    mask: int

    def __post_init__(self):
        _check_ground(self.n, MAX_BOOLEAN_GROUND)
        if not 0 <= self.mask < (1 << self.n):
            raise PreconditionViolation(f"mask {self.mask} outside the ground set of size {self.n}")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "BitSubset":
        mask = 0
        for i in members:
            if type(i) is not int or not 1 <= i <= n:
                raise PreconditionViolation(f"member {i!r} is not an integer in 1..{n}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"BitSubset({self.n}, {{{','.join(map(str, self.members()))}}})"


def _check_boolean_pair(x: BitSubset, y: BitSubset) -> None:
    if not isinstance(x, BitSubset) or not isinstance(y, BitSubset):
        raise AmbientMismatch("expected BitSubset operands")
    if x.n != y.n:
        raise AmbientMismatch(f"ground sets differ: {x.n} vs {y.n}")


@functools.cache
def boolean_lattice(n: int) -> GradedLattice:
    def meet(x: BitSubset, y: BitSubset) -> BitSubset:
        _check_boolean_pair(x, y)
        return BitSubset(x.n, x.mask & y.mask)

    def join(x: BitSubset, y: BitSubset) -> BitSubset:
        _check_boolean_pair(x, y)
        return BitSubset(x.n, x.mask | y.mask)

    return GradedLattice(
        name=f"boolean-{n}",
        meet=meet,
        join=join,
        rank=lambda x: Fraction(x.cardinality()),
        bottom=BitSubset(n, 0),
        top=BitSubset(n, (1 << n) - 1),
    )


# --- Partition lattice -----------------------------------------------------

@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} in canonical form; rank is n minus the block count.

    Blocks are sorted tuples, ordered by least member; the canonical form is
    the unique representative, so structural equality is partition equality.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_ground(self.n, MAX_PARTITION_GROUND)
        members = [i for block in self.blocks for i in block]
        if set(map(type, members)) - {int}:
            raise PreconditionViolation(f"partition members must be integers: {self.blocks!r}")
        if sorted(members) != list(range(1, self.n + 1)):
            raise PreconditionViolation(f"blocks do not partition 1..{self.n}, each member once")
        prev_min = 0
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                raise PreconditionViolation(f"non-canonical block {block!r}")
            if block[0] <= prev_min:
                raise PreconditionViolation("blocks must be sorted by least member")
            prev_min = block[0]

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))
        return cls(n, canon)

    @classmethod
    def discrete(cls, n: int) -> "SetPartition":
        return cls.from_blocks(n, [[i] for i in range(1, n + 1)])

    @classmethod
    def full(cls, n: int) -> "SetPartition":
        return cls.from_blocks(n, [range(1, n + 1)])

    def rank_int(self) -> int:
        return self.n - len(self.blocks)

    def __repr__(self) -> str:
        body = "|".join("".join(map(str, b)) for b in self.blocks)
        return f"SetPartition({self.n}, {body})"


def _check_partition_pair(x: SetPartition, y: SetPartition) -> None:
    if not isinstance(x, SetPartition) or not isinstance(y, SetPartition):
        raise AmbientMismatch("expected SetPartition operands")
    if x.n != y.n:
        raise AmbientMismatch(f"ground sets differ: {x.n} vs {y.n}")


def _partition_meet(x: SetPartition, y: SetPartition) -> SetPartition:
    _check_partition_pair(x, y)
    y_sets = [set(b) for b in y.blocks]
    blocks = []
    for bx in x.blocks:
        for by in y_sets:
            common = [i for i in bx if i in by]
            if common:
                blocks.append(common)
    return SetPartition.from_blocks(x.n, blocks)


def _partition_join(x: SetPartition, y: SetPartition) -> SetPartition:
    _check_partition_pair(x, y)
    parent = list(range(x.n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def unite(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for p in (x, y):
        for block in p.blocks:
            for i in block[1:]:
                unite(block[0], i)
    groups: dict[int, list[int]] = {}
    for i in range(1, x.n + 1):
        groups.setdefault(find(i), []).append(i)
    return SetPartition.from_blocks(x.n, groups.values())


def partition_lattice(n: int) -> GradedLattice:
    _check_ground(n, MAX_PARTITION_GROUND)
    return GradedLattice(
        name=f"partition-{n}",
        meet=_partition_meet,
        join=_partition_join,
        rank=lambda x: Fraction(x.rank_int()),
        bottom=SetPartition.discrete(n),
        top=SetPartition.full(n),
    )


def _all_partitions(n: int) -> list[SetPartition]:
    out: list[SetPartition] = []

    def rec(i: int, blocks: list[list[int]]) -> None:
        if i > n:
            out.append(SetPartition.from_blocks(n, [list(b) for b in blocks]))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


# --- Subspace lattice over a prime field -----------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


def _rref(rows: Sequence[Sequence[int]], width: int, p: int) -> tuple[tuple[int, ...], ...]:
    work = [list(r) for r in rows]
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c] % p, p - 2, p)
        work[r] = [(v * inv) % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(v % p for v in row) for row in work[:r])


def _check_rows(rows: Sequence[Sequence[int]], n: int) -> None:
    # Row reduction indexes n entries per row and reads them as integers mod p.
    for row in rows:
        if len(row) != n or set(map(type, row)) - {int}:
            raise PreconditionViolation(f"row {row!r} is not {n} integers")


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^n with basis in reduced row-echelon form."""

    p: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # F_p^2 alone has p + 3 subspaces; the bound also keeps trial division short.
        if self.p > MAX_ELEMENTS:
            raise PreconditionViolation(f"field size {self.p} exceeds the element cap {MAX_ELEMENTS}")
        if not _is_prime(self.p):
            raise PreconditionViolation(f"{self.p} is not prime")
        if not 1 <= self.n <= MAX_SUBSPACE_DIM:
            raise PreconditionViolation(f"dimension {self.n} outside 1..{MAX_SUBSPACE_DIM}")
        _check_rows(self.rows, self.n)
        if self.rows != _rref(self.rows, self.n, self.p):
            raise PreconditionViolation("basis must be in reduced row-echelon form")

    @classmethod
    def from_rows(cls, p: int, n: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        rows = list(rows)
        _check_rows(rows, n)
        return cls(p, n, _rref(rows, n, p))

    @classmethod
    def zero(cls, p: int, n: int) -> "Subspace":
        return cls(p, n, ())

    @classmethod
    def full(cls, p: int, n: int) -> "Subspace":
        return cls.from_rows(p, n, [[1 if j == i else 0 for j in range(n)] for i in range(n)])

    def dimension(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(F{self.p}^{self.n}, {[list(r) for r in self.rows]})"


def _check_subspace_pair(x: Subspace, y: Subspace) -> None:
    if not isinstance(x, Subspace) or not isinstance(y, Subspace):
        raise AmbientMismatch("expected Subspace operands")
    if x.p != y.p or x.n != y.n:
        raise AmbientMismatch(f"ambient spaces differ: F{x.p}^{x.n} vs F{y.p}^{y.n}")


def _subspace_join(x: Subspace, y: Subspace) -> Subspace:
    _check_subspace_pair(x, y)
    return Subspace.from_rows(x.p, x.n, list(x.rows) + list(y.rows))


def _subspace_meet(x: Subspace, y: Subspace) -> Subspace:
    # Zassenhaus: reduce [[A|A],[B|0]]; rows with zero left half carry the
    # intersection in their right half.
    _check_subspace_pair(x, y)
    n, p = x.n, x.p
    stacked = [list(r) + list(r) for r in x.rows] + [list(r) + [0] * n for r in y.rows]
    reduced = _rref(stacked, 2 * n, p)
    inter = [row[n:] for row in reduced if not any(row[:n])]
    return Subspace.from_rows(p, n, inter)


@functools.cache
def subspace_lattice(p: int, n: int) -> GradedLattice:
    return GradedLattice(
        name=f"subspace-F{p}^{n}",
        meet=_subspace_meet,
        join=_subspace_join,
        rank=lambda x: Fraction(x.dimension()),
        bottom=Subspace.zero(p, n),
        top=Subspace.full(p, n),
    )


def _all_subspaces(p: int, n: int) -> list[Subspace]:
    """Every subspace of F_p^n, built from its reduced row-echelon basis.

    A basis is a set of pivot columns plus any values in the free entries:
    right of a row's pivot and outside the other pivot columns.
    """
    out: list[Subspace] = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(c == pc) for c in range(n)] for pc in pivots]
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                out.append(Subspace(p, n, tuple(map(tuple, rows))))
                if len(out) > MAX_ELEMENTS:
                    raise SizeCapExceeded(f"more than {MAX_ELEMENTS} subspaces of F{p}^{n}")
    return sorted(out, key=lambda s: (s.dimension(), s.rows))


# --- Product plane with infinite extrema -------------------------------------

@dataclass(frozen=True)
class PlanePoint:
    """Point of the rational product plane, or one of its extrema.

    Meet and join are entrywise min and max, and the rank is the coordinate
    sum.  The bottom is (-inf, -inf) and the top (+inf, +inf), so their
    ranks are -inf and +inf; the rational points and these two are closed
    under min and max, so no other infinite coordinate arises.
    """

    a: RankValue
    b: RankValue

    def __post_init__(self):
        rational = isinstance(self.a, Fraction) and isinstance(self.b, Fraction)
        if not rational and not (self.a is self.b and self.a in (NEG_INF, POS_INF)):
            raise PreconditionViolation(
                f"({self.a!r}, {self.b!r}) is neither two Fractions nor (-inf, -inf) or (+inf, +inf)"
            )

    @classmethod
    def point(cls, a, b) -> "PlanePoint":
        return cls(exact_fraction(a), exact_fraction(b))

    @classmethod
    def bottom(cls) -> "PlanePoint":
        return cls(NEG_INF, NEG_INF)

    @classmethod
    def top(cls) -> "PlanePoint":
        return cls(POS_INF, POS_INF)

    def __repr__(self) -> str:
        return f"PlanePoint({self.a}, {self.b})"


def _plane_meet(x: PlanePoint, y: PlanePoint) -> PlanePoint:
    return PlanePoint(min(x.a, y.a), min(x.b, y.b))


def _plane_join(x: PlanePoint, y: PlanePoint) -> PlanePoint:
    return PlanePoint(max(x.a, y.a), max(x.b, y.b))


def product_plane_lattice() -> GradedLattice:
    return GradedLattice(
        name="product-plane",
        meet=_plane_meet,
        join=_plane_join,
        rank=lambda x: x.a + x.b,
        bottom=PlanePoint.bottom(),
        top=PlanePoint.top(),
    )


# --- Family bundles and exhaustive operations --------------------------------

@dataclass(frozen=True)
class FiniteFamily:
    """One finite lattice instance together with its enumerations."""

    kind: str
    lattice: GradedLattice
    n: int
    p: int | None
    elements: Callable[[], list] = field(repr=False)
    chief_elements: Callable[[], list] = field(repr=False)

    @functools.cached_property
    def chief(self) -> ChainSample:
        """The canonical maximal chain of rank-modular elements.

        Membership in the exhaustively computed modular set is verified
        whenever the instance is small enough to enumerate; a failure is an
        internal error, not a user error.  The proof runs once per instance
        and is kept on it, so no cache outlives the family.
        """
        try:
            elems = self.elements()
        except SizeCapExceeded:
            elems = []
        chain = self.chief_elements()
        sample = ChainSample.from_elements(self.lattice, chain)
        if list(sample.ranks()) != list(range(len(chain))):
            raise RuntimeError(f"chief chain of {self.lattice.name} is not saturated")
        for m, x in itertools.product(chain, elems):
            if rank_modular_defect(self.lattice, m, x) != 0:
                raise RuntimeError(f"chief chain member {m!r} is not rank modular against {x!r}")
        return sample


def boolean_family(n: int) -> FiniteFamily:
    _check_ground(n, MAX_BOOLEAN_GROUND)
    if (1 << n) > MAX_ELEMENTS:
        raise SizeCapExceeded(f"2^{n} elements exceed the cap {MAX_ELEMENTS}")
    return FiniteFamily(
        kind="boolean",
        lattice=boolean_lattice(n),
        n=n,
        p=None,
        elements=lambda: [BitSubset(n, m) for m in range(1 << n)],
        chief_elements=lambda: [BitSubset(n, (1 << i) - 1) for i in range(n + 1)],
    )


def partition_family(n: int) -> FiniteFamily:
    def chief() -> list[SetPartition]:
        out = []
        for i in range(n):
            blocks = [list(range(1, i + 2))] + [[j] for j in range(i + 2, n + 1)]
            out.append(SetPartition.from_blocks(n, blocks))
        return out

    return FiniteFamily(
        kind="partition",
        lattice=partition_lattice(n),
        n=n,
        p=None,
        elements=lambda: _all_partitions(n),
        chief_elements=chief,
    )


def subspace_family(p: int, n: int) -> FiniteFamily:
    def chief() -> list[Subspace]:
        return [
            Subspace.from_rows(p, n, [[1 if j == i else 0 for j in range(n)] for i in range(k)])
            for k in range(n + 1)
        ]

    return FiniteFamily(
        kind="subspace",
        lattice=subspace_lattice(p, n),
        n=n,
        p=p,
        elements=lambda: _all_subspaces(p, n),
        chief_elements=chief,
    )


def _int_rank(lattice: GradedLattice, x) -> int:
    r = lattice.rank(x)
    if r.denominator != 1:
        raise PreconditionViolation(f"expected an integer rank, got {r}")
    return r.numerator


def rank_layers(family: FiniteFamily) -> dict[int, list]:
    """The family's elements grouped by their integer rank."""
    by_rank: dict[int, list] = {}
    for e in family.elements():
        by_rank.setdefault(_int_rank(family.lattice, e), []).append(e)
    return by_rank


def enumerate_maximal_chains(family: FiniteFamily) -> list[tuple]:
    """All saturated bottom-to-top chains, as element tuples."""
    lattice = family.lattice
    by_rank = rank_layers(family)
    top_rank = max(by_rank)
    chains: list[tuple] = []
    bottoms = by_rank.get(0, ())
    if len(bottoms) != 1 or bottoms[0] != lattice.bottom:
        raise PreconditionViolation(f"{lattice.name} has no unique bottom")

    def extend(prefix: list) -> None:
        last = prefix[-1]
        r = _int_rank(lattice, last)
        if r == top_rank:
            chains.append(tuple(prefix))
            if len(chains) > MAX_CHAINS:
                raise SizeCapExceeded(f"more than {MAX_CHAINS} maximal chains")
            return
        for e in by_rank.get(r + 1, ()):
            if lattice.leq(last, e):
                prefix.append(e)
                extend(prefix)
                prefix.pop()

    extend([lattice.bottom])
    return chains


def semimodularity_gap(family: FiniteFamily) -> tuple | None:
    """(x, a, b) with a and b covering x but rank(a v b) != rank(x) + 2, or None.

    None certifies upper semimodularity (a v b covers a and b whenever both
    cover x), and then every antichain cutset is one whole rank level:

    - Any two maximal chains are joined by diamond moves, each replacing a
      in x < a < y (covers) by some b != a with x < b < y.  By induction on
      the height: chains through one cover of the bottom are joined inside
      the interval above it; chains through covers a != b are joined that
      way to bottom < a < a v b < D and bottom < b < a v b < D, for one
      chain D above a v b, and these two differ by one diamond move.
    - An antichain cutset A meets each maximal chain exactly once, and a
      diamond move keeps the rank where it does: if a is in A, so is b, as
      every other element of the new chain is comparable to a.
    - So one rank k serves every chain; every element of rank k lies on
      some maximal chain, so A is the whole level k.

    Boolean, partition and subspace lattices are upper semimodular; see G.
    Graetzer, *Lattice Theory: Foundation* (Birkhaeuser, 2011).
    """
    lattice = family.lattice
    layers = rank_layers(family)
    for r in sorted(layers):
        for x in layers[r]:
            ups = [y for y in layers.get(r + 1, ()) if lattice.leq(x, y)]
            for a, b in itertools.combinations(ups, 2):
                if _int_rank(lattice, lattice.join(a, b)) != r + 2:
                    return x, a, b
    return None


def rank_modular_elements(family: FiniteFamily) -> list:
    """All elements with zero rank-modular defect against every element."""
    lattice = family.lattice
    elems = family.elements()
    return [
        m for m in elems
        if all(rank_modular_defect(lattice, m, x) == 0 for x in elems)
    ]


def chief_chain(family: FiniteFamily) -> ChainSample:
    """The family's proven chief chain (see :attr:`FiniteFamily.chief`)."""
    return family.chief


# --- JSON forms --------------------------------------------------------------

def element_to_json(x):
    if isinstance(x, BitSubset):
        return list(x.members())
    if isinstance(x, SetPartition):
        return [list(b) for b in x.blocks]
    if isinstance(x, Subspace):
        return [list(r) for r in x.rows]
    raise InputFormatError(f"unknown element type {type(x).__name__}")


def element_from_json(family: FiniteFamily, data):
    try:
        json_array(data)  # a string or an object would iterate as members too
        if family.kind == "boolean":
            return BitSubset.from_members(family.n, data)
        if family.kind == "partition":
            return SetPartition.from_blocks(family.n, data)
        if family.kind == "subspace":
            return Subspace.from_rows(family.p, family.n, data)
    except (TypeError, ValueError, PreconditionViolation) as exc:
        raise InputFormatError(f"bad {family.kind} element payload: {data!r}") from exc
    raise InputFormatError(f"unknown family kind {family.kind!r}")

