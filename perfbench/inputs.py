"""Seeded inputs for the benchmark workloads.

Everything here is generated by the benchmark's own code from the run's
seed; ``rglat.gen`` is never used, so a change to the program's generators
cannot change the load.  Rationals are emitted as ``p/q`` strings and
elements as JSON payloads: the program receives only those payloads.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Endpoint denominators of the interval-regrade targets.  They are mixed and
# mostly not powers of two, so the common denominator of one target is large
# (lcm 3360); the verify suites use powers of two only.
WIDE_DENOMINATORS = (48, 80, 96, 112, 160)
NARROW_DENOMINATORS = (8, 16, 32, 64)
WIDE_UPPER = Fraction(4)
NARROW_UPPER = Fraction(2)


def text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _distinct_points(rng: random.Random, count: int, upper: Fraction, denominators) -> list[Fraction]:
    points: set[Fraction] = set()
    while len(points) < count:
        den = rng.choice(denominators)
        points.add(Fraction(rng.randint(0, int(upper * den)), den))
    return sorted(points)


def interval_payload(points: list[Fraction]) -> dict:
    """Pair sorted distinct points into disjoint, non-adjacent pieces."""
    return {"intervals": [[text(a), text(b)] for a, b in zip(points[::2], points[1::2])]}


def wide_targets(rng: random.Random, count: int, pieces: tuple[int, int]) -> list[dict]:
    """``count`` distinct canonical targets in (0, 4].

    Piece counts cycle through the range, so every seed has the same mix
    of sizes and only the endpoints vary.
    """
    seen: set[tuple] = set()
    out: list[dict] = []
    low, high = pieces
    while len(out) < count:
        k = low + len(out) % (high - low + 1)
        payload = interval_payload(_distinct_points(rng, 2 * k, WIDE_UPPER, WIDE_DENOMINATORS))
        key = tuple(map(tuple, payload["intervals"]))
        if key not in seen:
            seen.add(key)
            out.append(payload)
    return out


def narrow_targets(rng: random.Random, count: int) -> list[dict]:
    """Targets shaped like the verify suites' samples: 1..3 pieces in (0, 2]."""
    out = []
    for _ in range(count):
        den = rng.choice(NARROW_DENOMINATORS)
        k = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(den + 1), 2 * k))
        out.append(interval_payload([NARROW_UPPER * c / den for c in cuts]))
    return out


def density_payload(rng: random.Random, upper: Fraction, pieces: int, denominators) -> dict:
    interior = _distinct_points(rng, pieces - 1, upper, denominators)
    while interior and (interior[0] == 0 or interior[-1] == upper):
        interior = _distinct_points(rng, pieces - 1, upper, denominators)
    breakpoints = [Fraction(0)] + interior + [upper]
    values = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(pieces)]
    return {"breakpoints": [text(t) for t in breakpoints], "values": [text(v) for v in values]}


def density_total(density: dict) -> Fraction:
    bps = [parse(t) for t in density["breakpoints"]]
    vals = [parse(v) for v in density["values"]]
    return sum((v * (b - a) for v, a, b in zip(vals, bps, bps[1:])), Fraction(0))


def regrade_cutsets(rng: random.Random) -> list[dict]:
    """The two interval-regrade cutsets: a 12-piece density level, a Lebesgue level."""
    density = density_payload(rng, WIDE_UPPER, 12, WIDE_DENOMINATORS)
    density_level = density_total(density) * Fraction(rng.randint(30, 70), 100)
    den = rng.choice(WIDE_DENOMINATORS)
    lebesgue_level = Fraction(rng.randint(int(WIDE_UPPER * den) * 3 // 10, int(WIDE_UPPER * den) * 7 // 10), den)
    return [
        {"type": "level", "grading": {"density": density}, "value": text(density_level)},
        {"type": "level", "grading": "lebesgue", "value": text(lebesgue_level)},
    ]


def narrow_density(rng: random.Random) -> dict:
    return density_payload(rng, NARROW_UPPER, rng.randint(1, 3), NARROW_DENOMINATORS)


# --- finite families, enumerated here independently of rglat.finite -------------

def boolean_payloads(n: int) -> list:
    return [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(1 << n)]


def partition_payloads(n: int) -> list:
    out = []

    def rec(i: int, blocks: list[list[int]]) -> None:
        if i > n:
            out.append([list(b) for b in blocks])
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


def subspace_payloads(p: int, n: int) -> list:
    """Every subspace of F_p^n as its reduced row-echelon basis."""
    out = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r, c in enumerate(pivots):
                    rows[r][c] = 1
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                out.append(rows)
    return out


def element_payloads(kind: str, args: tuple) -> list:
    if kind == "boolean":
        return boolean_payloads(*args)
    if kind == "partition":
        return partition_payloads(*args)
    return subspace_payloads(*args)


def payload_rank(kind: str, args: tuple, payload) -> int:
    """The natural rank read off a payload: size, n minus blocks, or dimension."""
    if kind == "boolean":
        return len(payload)
    if kind == "partition":
        return args[0] - len(payload)
    return len(payload)


def top_rank(kind: str, args: tuple) -> int:
    return args[-1] - 1 if kind == "partition" else args[-1]
