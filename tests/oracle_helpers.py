"""Independent brute-force oracles used to pin expected values.

Everything here avoids the package's own meet/join/measure code paths:
partitions are compared through the raw refinement predicate, measures are
summed cell by cell between the sets' own endpoints, and chains are built
from the bare order relation.  ``fraction_intersect`` and ``fraction_union``
are the interval kernels' walks in plain ``Fraction`` comparisons, which
pin the package's integer walks down to the endpoint objects they return.
Some read the package's own objects: ``cutset_gap``, the general cover
test on the family's own order, which pins the rank-level check of explicit
cutsets; ``fraction_sweep``, the closed-form sweep in plain ``Fraction``
arithmetic, which pins the package's integer sweep value for value; and
``quadruple_balance`` and ``quadruple_diamond``, the balance and diamond
checks on whole quadruples, which pin the suites' three-element rows; and
``recomputing_lattice_axioms``, the axiom checker that calls the kernels
afresh for every identity, which pins the checker's reuse of pair results.
``up_down_path_lengths`` walks the covers of the bare order, so it pins
the up-down distance without its rank-and-join formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from rglat.core import CheckResult
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


# --- measures cell by cell -----------------------------------------------------

def _cells(pairs, points=()) -> list[tuple[Fraction, Fraction]]:
    """The cells between consecutive distinct endpoints of the pairs and the extra points.

    Every pair is a union of cells, so a cell lies in a pair exactly when its
    midpoint does.  The cells stay few however large the endpoints'
    common denominator grows.
    """
    xs = sorted({x for pair in pairs for x in pair} | set(points))
    return list(zip(xs, xs[1:]))


def _covers(pairs, lo: Fraction, hi: Fraction) -> bool:
    mid = (lo + hi) / 2
    return any(a < mid <= b for a, b in pairs)


def _runs(cells) -> tuple:
    """Canonical pairs of a union of cells in order: each run of touching cells becomes one pair."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in cells:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def _fractions(pairs) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(a), Fraction(b)) for a, b in pairs]


def grid_measure(pairs, lo: Fraction = Fraction(0), hi: Fraction = Fraction(2)) -> Fraction:
    """Measure of the union of (a, b] pairs within (lo, hi], summed cell by cell."""
    pairs = _fractions(pairs)
    cells = _cells(pairs, (Fraction(lo), Fraction(hi)))
    return sum((b - a for a, b in cells if lo <= a and b <= hi and _covers(pairs, a, b)), Fraction(0))


def grid_union(*pair_lists) -> tuple:
    """Canonical pairs of the union of the given (a, b] pairs, cell by cell.

    A cell belongs to the union when its midpoint lies in some pair, and
    touching member cells come out merged, however the pairs are ordered,
    overlap or touch.
    """
    pairs = [pair for pairs in pair_lists for pair in _fractions(pairs)]
    return _runs(cell for cell in _cells(pairs) if _covers(pairs, *cell))


def grid_intersect(u_pairs, v_pairs) -> tuple:
    """Canonical pairs of the intersection of two unions of (a, b] pairs, cell by cell."""
    u, v = _fractions(u_pairs), _fractions(v_pairs)
    return _runs(cell for cell in _cells(u + v) if _covers(u, *cell) and _covers(v, *cell))


def grid_density_mass(pairs, breakpoints, values, lo=Fraction(0)) -> Fraction:
    """Density integral over a union of (a, b] pairs within (lo, breakpoints[-1]], cell by cell."""
    pairs = _fractions(pairs)
    pieces = list(zip(values, breakpoints, breakpoints[1:]))
    hi = Fraction(breakpoints[-1])
    total = Fraction(0)
    for a, b in _cells(pairs, [Fraction(lo)] + [Fraction(x) for x in breakpoints]):
        if lo <= a and b <= hi and _covers(pairs, a, b):
            mid = (a + b) / 2
            total += next(Fraction(v) for v, plo, phi in pieces if plo < mid <= phi) * (b - a)
    return total


# --- the interval kernels in Fraction arithmetic -------------------------------

def fraction_intersect(u_pairs, v_pairs) -> tuple:
    """The two-pointer intersection on Fraction comparisons, keeping u's endpoint on ties."""
    out = []
    i = j = 0
    while i < len(u_pairs) and j < len(v_pairs):
        lo = max(u_pairs[i][0], v_pairs[j][0])
        hi = min(u_pairs[i][1], v_pairs[j][1])
        if lo < hi:
            out.append((lo, hi))
        if u_pairs[i][1] <= v_pairs[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def fraction_union(u_pairs, v_pairs) -> tuple:
    """The merge walk of two canonical unions on Fraction comparisons, u's piece first on ties."""
    out = []
    i = j = 0
    while i < len(u_pairs) or j < len(v_pairs):
        if j == len(v_pairs) or (i < len(u_pairs) and u_pairs[i][0] <= v_pairs[j][0]):
            a, b = u_pairs[i]
            i += 1
        else:
            a, b = v_pairs[j]
            j += 1
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


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

def _columns(levels, grade, measure):
    """(level, grade, measure) at each level, each profile read with ``value_at``."""
    return [(level, grade.value_at(level), measure.value_at(level)) for level in levels]


class _FractionSweepEvaluator:
    """The closed-form sweep rows on Fraction profiles, one branch per case.

    The same three branches as the package's integer sweep, read off z's
    profile bundle with ``value_at`` per level and ``min_level_at_value``,
    without any common denominator.
    """

    def __init__(self, regrader, z):
        self.bundle = profile_bundle(regrader.ambient, z, regrader.cutset.density)
        self.level = regrader.cutset.value
        self.alpha = regrader._solve(self.bundle)[2]
        self.chief_alpha = regrader.chief_alpha

    def meet_rows(self, levels):
        b = self.bundle
        rows = []
        for level, grade, rank in _columns(levels, b.grade_meet, b.measure_meet):
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
        for level, grade, rank in _columns(levels, b.grade_join, b.measure_join):
            if grade < self.level:
                rows.append((rank, rank - self.alpha))
            elif level >= self.chief_alpha:
                rows.append((rank, rank - self.chief_alpha))
            else:
                mu = b.grade_meet.min_level_at_value(self.level + b.grade_of_element - grade)
                rows.append((rank, b.measure_of_element - b.measure_meet.value_at(mu)))
        return rows


def fraction_sweep(regrader, z, step: Fraction) -> list:
    """The rows of the chain through z, meet side then join side, or ``sweep_chief(step)`` rows when z is None."""
    upper = regrader.ambient.upper
    levels = [k * step for k in range(math.ceil(upper / step))] + [upper]
    if z is None:
        sides = [("chief", _FractionSweepEvaluator(regrader, EMPTY).join_rows(levels))]
    else:
        evaluator = _FractionSweepEvaluator(regrader, z)
        sides = [("meet", evaluator.meet_rows(levels)), ("join", evaluator.join_rows(levels))]
    return [SweepRow(side, level, *row) for side, rows in sides for level, row in zip(levels, rows)]


def fraction_check_sweep(rows, lo, hi, max_gap: Fraction) -> str | None:
    """``suites._check_sweep`` on (rank, regraded) Fraction rows, one pass per witness kind."""
    values = [next(run)[1] for _, run in itertools.groupby(rows, key=lambda r: r[0])]
    if any(a >= b for a, b in zip(values, values[1:])):
        return "regraded column not strictly increasing"
    if values[0] != lo or values[-1] != hi:
        return f"endpoints {values[0]}..{values[-1]} instead of {lo}..{hi}"
    for a, b in zip(values, values[1:]):
        if b - a > max_gap:
            return f"regraded gap {a}..{b} wider than {max_gap}"
    return None


# --- balance and diamond on whole quadruples ----------------------------------

def quadruple_balance(lattice, m, m_small, w, z):
    """The two balance residuals of rank-modular m_small <= m and w <= z, and the suite's witness.

    The residuals share rk(m^z) + rk(mvz), read once with m first.  The
    witness is None when both residuals vanish.
    """
    rk = lattice.rank
    big = rk(lattice.meet(m, z)) + rk(lattice.join(m, z))
    first = big - rk(lattice.meet(m, w)) - rk(lattice.join(m, w)) - (rk(z) - rk(w))
    second = big - rk(lattice.meet(m_small, z)) - rk(lattice.join(m_small, z)) - (rk(m) - rk(m_small))
    why = f"residuals ({first}, {second})" if first != 0 or second != 0 else None
    return (first, second), why


def quadruple_diamond(lattice, m, m_small, w, z):
    """The four diamond bounds (label, lhs, rhs) of one quadruple, and the suite's witness.

    The witness names the first broken bound; with all four holding, it
    reports a row whose two slacks do not sum to the row's height.
    """
    rk = lattice.rank
    height, drop = rk(z) - rk(w), rk(m) - rk(m_small)
    meet_mz, join_mz = rk(lattice.meet(m, z)), rk(lattice.join(m, z))
    bounds = [
        ("meet along w<z", meet_mz - rk(lattice.meet(m, w)), height),
        ("join along w<z", join_mz - rk(lattice.join(m, w)), height),
        ("meet along m_small<m", meet_mz - rk(lattice.meet(m_small, z)), drop),
        ("join along m_small<m", join_mz - rk(lattice.join(m_small, z)), drop),
    ]
    broken = next((b for b in bounds if not b[1] <= b[2]), None)
    slack = [rhs - lhs for _, lhs, rhs in bounds]
    if broken:
        why = f"bound {broken[0]!r} broken: lhs {broken[1]} > rhs {broken[2]}"
    elif (slack[0] + slack[1], slack[2] + slack[3]) != (height, drop):
        why = "row slacks do not sum to the row height"
    else:
        why = None
    return bounds, why


# --- lattice axioms, every identity from fresh kernel calls --------------------

def recomputing_lattice_axioms(lattice, samples, rng: random.Random) -> CheckResult:
    """The axiom checker as it was before it reused pair results.

    Same order of checks, same sampling of pairs and triples from ``rng``,
    same witnesses; each identity calls meet, join and ``lt`` again.
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


def up_down_path_lengths(elements, leq) -> dict:
    """(x, y) -> the fewest cover steps from x up to some u, then down to y.

    A breadth-first walk up the covers of the bare order gives the climb from
    each element to everything above it.  A path down from u to y is a climb
    from y to u read backwards, so the length is the least climb(x, u) +
    climb(y, u) over the common upper bounds u.  No rank or join is read.
    """
    above = {
        x: [y for y in elements if x != y and leq(x, y) and not any(
            z != x and z != y and leq(x, z) and leq(z, y) for z in elements
        )]
        for x in elements
    }
    climbs = {}
    for x in elements:
        steps, frontier = {x: 0}, [x]
        while frontier:
            reached = []
            for e in frontier:
                for y in above[e]:
                    if y not in steps:
                        steps[y] = steps[e] + 1
                        reached.append(y)
            frontier = reached
        climbs[x] = steps
    return {
        (x, y): min(climbs[x][u] + climbs[y][u] for u in climbs[x] if u in climbs[y])
        for x in elements
        for y in elements
    }


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
