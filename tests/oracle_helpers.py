"""Independent brute-force oracles used to pin expected values.

Everything here avoids the package's own meet/join/measure code paths:
partitions are compared through the raw refinement predicate, measures are
counted on a common denominator grid, and chains are built from the bare
order relation.  Two exceptions read the package's own objects:
``cutset_gap``, the general cover test on the family's own order, which
pins the rank-level check of explicit cutsets; and ``fraction_sweep``, the
closed-form sweep in plain ``Fraction`` arithmetic, which pins the
package's integer sweep value for value.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from rglat.finite import rank_layers
from rglat.intervals import EMPTY, profile_bundle
from rglat.regrading import SweepRow

Blocks = frozenset  # frozenset of frozensets of ints


# --- partitions through the refinement order --------------------------------

def rgs_partitions(n: int) -> list[Blocks]:
    """All partitions of {1..n} via restricted growth strings."""
    out: list[Blocks] = []

    def rec(prefix: list[int], mx: int) -> None:
        if len(prefix) == n:
            groups: dict[int, set[int]] = {}
            for i, v in enumerate(prefix, start=1):
                groups.setdefault(v, set()).add(i)
            out.append(frozenset(frozenset(g) for g in groups.values()))
            return
        for v in range(mx + 2):
            rec(prefix + [v], max(mx, v))

    rec([0], 0)
    return out


def refines(p: Blocks, q: Blocks) -> bool:
    return all(any(block <= other for other in q) for block in p)


def partition_rank(n: int, p: Blocks) -> int:
    return n - len(p)


def oracle_partition_meet(parts: list[Blocks], p: Blocks, q: Blocks) -> Blocks:
    lower = [r for r in parts if refines(r, p) and refines(r, q)]
    candidates = [r for r in lower if all(refines(s, r) for s in lower)]
    assert len(candidates) == 1, "refinement order is not a lattice?"
    return candidates[0]


def oracle_partition_join(parts: list[Blocks], p: Blocks, q: Blocks) -> Blocks:
    upper = [r for r in parts if refines(p, r) and refines(q, r)]
    candidates = [r for r in upper if all(refines(r, s) for s in upper)]
    assert len(candidates) == 1, "refinement order is not a lattice?"
    return candidates[0]


def blocks_of(partition) -> Blocks:
    """Package partition to oracle form."""
    return frozenset(frozenset(b) for b in partition.blocks)


# --- measures on a common grid ------------------------------------------------

def _common_denominator(points) -> int:
    den = 1
    for p in points:
        den = den * p.denominator // math.gcd(den, p.denominator)
    return den


def grid_measure(pairs, lo: Fraction = Fraction(0), hi: Fraction = Fraction(2)) -> Fraction:
    """Measure of a union of (a, b] pairs by midpoint counting on a shared grid."""
    pts = [lo, hi]
    for a, b in pairs:
        pts += [Fraction(a), Fraction(b)]
    den = _common_denominator(pts)
    count = 0
    for i in range(int(lo * den), int(hi * den)):
        mid = Fraction(2 * i + 1, 2 * den)
        if any(a < mid <= b for a, b in pairs):
            count += 1
    return Fraction(count, den)


def grid_union(*pair_lists) -> tuple:
    """Canonical pairs of the union of the given (a, b] pairs, cell by cell.

    Every endpoint lies on one common grid.  A grid cell belongs to the
    union when its midpoint lies in some pair, and each run of consecutive
    member cells becomes one pair, so touching pieces come out merged.
    """
    pairs = [(Fraction(a), Fraction(b)) for pairs in pair_lists for a, b in pairs]
    if not pairs:
        return ()
    points = [x for pair in pairs for x in pair]
    den = _common_denominator(points)
    out: list[tuple[Fraction, Fraction]] = []
    for i in range(int(min(points) * den), int(max(points) * den)):
        lo, hi = Fraction(i, den), Fraction(i + 1, den)
        mid = (lo + hi) / 2
        if any(a < mid <= b for a, b in pairs):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return tuple(out)


def grid_density_mass(pairs, breakpoints, values, lo=Fraction(0)) -> Fraction:
    """Density integral over a union of (a, b] pairs, cell by cell."""
    hi = Fraction(breakpoints[-1])
    pts = [Fraction(p) for p in breakpoints] + [lo]
    for a, b in pairs:
        pts += [Fraction(a), Fraction(b)]
    den = _common_denominator(pts)
    total = Fraction(0)
    for i in range(int(lo * den), int(hi * den)):
        mid = Fraction(2 * i + 1, 2 * den)
        if any(a < mid <= b for a, b in pairs):
            for v, plo, phi in zip(values, breakpoints, breakpoints[1:]):
                if plo < mid <= phi:
                    total += Fraction(v) / den
                    break
    return total


def oracle_profiles(upper: Fraction, pairs, density=None) -> dict[str, tuple[tuple, tuple]]:
    """The four prefix-chain profiles of the union z of (a, b] pairs in (0, upper].

    ``density`` is None (Lebesgue measure) or a (breakpoints, values) pair.
    The breakpoints are 0, upper, every endpoint of z and every density
    breakpoint, collected in a set and sorted.  At each breakpoint x the
    grading and the plain measure of z ^ (0, x] and z v (0, x] are counted
    cell by cell, each cell classified by its midpoint.  Returns
    ``{name: (breakpoints, values)}`` keyed like the package's ProfileBundle.
    """
    upper = Fraction(upper)
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs]
    points = {Fraction(0), upper}
    for a, b in pairs:
        points.update((a, b))
    if density is not None:
        points.update(Fraction(t) for t in density[0])
    xs = tuple(sorted(points))

    def grade(ps) -> Fraction:
        if density is None:
            return grid_measure(ps, Fraction(0), upper)
        return grid_density_mass(ps, *density)

    columns: dict[str, list[Fraction]] = {
        "grade_meet": [], "grade_join": [], "measure_meet": [], "measure_join": []
    }
    for x in xs:
        meet = [(a, min(b, x)) for a, b in pairs if a < min(b, x)]
        join = pairs + [(Fraction(0), x)]  # cells are counted once however pairs overlap
        columns["grade_meet"].append(grade(meet))
        columns["grade_join"].append(grade(join))
        columns["measure_meet"].append(grid_measure(meet, Fraction(0), upper))
        columns["measure_join"].append(grid_measure(join, Fraction(0), upper))
    return {name: (xs, tuple(values)) for name, values in columns.items()}


# --- sweeps in Fraction arithmetic --------------------------------------------

class _FractionSweepEvaluator:
    """The closed-form sweep rows on Fraction profiles, one branch per case.

    The same three branches as the package's integer sweep, read off z's
    profile bundle with ``values_on``, ``min_level_at_value`` and
    ``value_at``, without any common denominator.
    """

    def __init__(self, regrader, z):
        self.bundle = profile_bundle(regrader.ambient, z, regrader.cutset.density)
        self.level = regrader.cutset.value
        self.alpha = regrader._solve(self.bundle)[2]
        self.chief_alpha = regrader.chief_alpha

    def meet_rows(self, levels):
        b = self.bundle
        rows = []
        for level, grade, rank in zip(levels, b.grade_meet.values_on(levels), b.measure_meet.values_on(levels)):
            if grade >= self.level:
                rows.append((rank, rank - self.alpha))
            elif level < self.chief_alpha:
                rows.append((rank, rank - self.chief_alpha))
            else:
                mu = b.grade_join.min_level_at_value(self.level + b.grade_of_element - grade)
                rows.append((rank, b.measure_of_element - b.measure_join.value_at(mu)))
        return rows

    def join_rows(self, levels):
        b = self.bundle
        rows = []
        for level, grade, rank in zip(levels, b.grade_join.values_on(levels), b.measure_join.values_on(levels)):
            if grade < self.level:
                rows.append((rank, rank - self.alpha))
            elif level >= self.chief_alpha:
                rows.append((rank, rank - self.chief_alpha))
            else:
                mu = b.grade_meet.min_level_at_value(self.level + b.grade_of_element - grade)
                rows.append((rank, b.measure_of_element - b.measure_meet.value_at(mu)))
        return rows


def fraction_sweep(regrader, z, step: Fraction) -> list:
    """``sweep_through(z, step)`` rows, or ``sweep_chief(step)`` rows when z is None."""
    upper = regrader.ambient.upper
    levels = [k * step for k in range(math.ceil(upper / step))] + [upper]
    if z is None:
        sides = [("chief", _FractionSweepEvaluator(regrader, EMPTY).join_rows(levels))]
    else:
        evaluator = _FractionSweepEvaluator(regrader, z)
        sides = [("meet", evaluator.meet_rows(levels)), ("join", evaluator.join_rows(levels))]
    return [SweepRow(side, level, *row) for side, rows in sides for level, row in zip(levels, rows)]


def fraction_check_sweep(rows, lo, hi, max_gap: Fraction) -> str | None:
    """``suites._check_sweep`` in Fraction arithmetic, one pass per witness kind."""
    values = [next(run).regraded for _, run in itertools.groupby(rows, key=lambda r: r.rank)]
    if any(a >= b for a, b in zip(values, values[1:])):
        return "regraded column not strictly increasing"
    if values[0] != lo or values[-1] != hi:
        return f"endpoints {values[0]}..{values[-1]} instead of {lo}..{hi}"
    for a, b in zip(values, values[1:]):
        if b - a > max_gap:
            return f"regraded gap {a}..{b} wider than {max_gap}"
    return None


# --- subsets through the containment order ------------------------------------

def boolean_cutsets_bruteforce(n: int) -> set[frozenset]:
    """All antichain cutsets of the subsets of {1..n}, from first principles."""
    elements = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    chains = []
    for perm in itertools.permutations(range(1, n + 1)):
        chain = [frozenset()]
        for i in perm:
            chain.append(chain[-1] | {i})
        chains.append(set(chain))
    cutsets: set[frozenset] = set()
    for k in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, k):
            if any(a < b for a in combo for b in combo):
                continue
            if all(any(e in chain for e in combo) for chain in chains):
                cutsets.add(frozenset(combo))
    return cutsets


def maximal_chains(elements, leq) -> list[tuple]:
    """Chains built from the bare order: extend along covering steps."""
    bottom = min(elements, key=lambda x: sum(1 for y in elements if leq(y, x)))
    top = max(elements, key=lambda x: sum(1 for y in elements if leq(y, x)))

    def covers(x, y):
        if x == y or not leq(x, y):
            return False
        return not any(z != x and z != y and leq(x, z) and leq(z, y) for z in elements)

    def walk(x) -> list[tuple]:
        if x == top:
            return [(x,)]
        return [(x,) + rest for y in elements if covers(x, y) for rest in walk(y)]

    return walk(bottom)


def count_maximal_chains(elements, leq) -> int:
    return len(maximal_chains(elements, leq))


def antichains(elements, leq) -> list[tuple]:
    """Every nonempty antichain, grown one pairwise-incomparable element at a time."""
    out: list[tuple] = []

    def grow(start: int, chosen: tuple) -> None:
        for i in range(start, len(elements)):
            e = elements[i]
            if not any(leq(e, c) or leq(c, e) for c in chosen):
                out.append(chosen + (e,))
                grow(i + 1, chosen + (e,))

    grow(0, ())
    return out


def meets_every_chain(chains, antichain) -> bool:
    members = set(antichain)
    return all(members.intersection(chain) for chain in chains)


def bare_order(kind: str):
    """x <= y read off the raw form of a family's elements, not its meet."""
    if kind == "boolean":
        return lambda x, y: x.mask & ~y.mask == 0
    if kind == "partition":
        return lambda x, y: refines(blocks_of(x), blocks_of(y))
    return lambda x, y: span(x) <= span(y)


def antichain_cutsets(elements, leq) -> list[tuple]:
    """Every antichain that meets every maximal chain of the bare order."""
    chains = maximal_chains(elements, leq)
    return [a for a in antichains(elements, leq) if meets_every_chain(chains, a)]


def cutset_gap(family, antichain) -> tuple | None:
    """The cover under which a nonempty antichain misses a maximal chain, or None.

    The witness is a cover x < y (rank(y) = rank(x) + 1) with x strictly
    below a member and y below none.  A maximal chain through it misses the
    antichain: nothing below x is a member, since members are incomparable,
    and nothing above y is.  Conversely, on a chain that misses the antichain,
    bottom is strictly below a member and top below none, so some step of it
    is such a cover.
    """
    lattice = family.lattice
    members = set(antichain)
    layers = rank_layers(family)
    below = {e for layer in layers.values() for e in layer if any(lattice.leq(e, a) for a in members)}
    for r in sorted(layers):
        for x in layers[r]:
            if x in below and x not in members:
                ups = [y for y in layers.get(r + 1, ()) if y not in below and lattice.leq(x, y)]
                if ups:
                    return x, ups[0]
    return None


def chain_crosscheck(chains, values, cutset) -> bool:
    """The regrading check walked chain by chain.

    ``values`` must vanish exactly on ``cutset``, strictly increase along
    every maximal chain and take one common value tuple on all of them.
    """
    elements = {e for chain in chains for e in chain}
    if {e for e in elements if values[e] == 0} != set(cutset):
        return False
    tuples = {tuple(values[e] for e in chain) for chain in chains}
    return len(tuples) == 1 and all(a < b for t in tuples for a, b in zip(t, t[1:]))


# --- subspaces through the Gaussian binomials ---------------------------------

@functools.cache
def span(w) -> frozenset:
    """Every vector spanned by a subspace's basis rows, by enumerating coefficients."""
    vectors = set()
    for coeffs in itertools.product(range(w.p), repeat=len(w.rows)):
        vectors.add(tuple(sum(c * r[j] for c, r in zip(coeffs, w.rows)) % w.p for j in range(w.n)))
    return frozenset(vectors)


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of F_p^n: the sum over k of the Gaussian binomials [n k]_p."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total
