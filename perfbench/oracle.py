"""Expected values computed without the code under test.

Closed-form element and maximal-chain counts of the finite families, and
exact measure and density mass read straight off ``p/q`` payloads.  The
correctness gate compares the program's outputs against these.
"""

from __future__ import annotations

import math
from fractions import Fraction

from inputs import parse


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def element_count(kind: str, args: tuple) -> int:
    """2^n subsets, Bell(n) partitions, sum of Gaussian binomials for subspaces."""
    if kind == "boolean":
        return 2 ** args[0]
    if kind == "partition":
        return _bell(args[0])
    p, n = args
    return sum(_gaussian_binomial(n, k, p) for k in range(n + 1))


def chain_count(kind: str, args: tuple) -> int:
    """n! for subsets, n!(n-1)!/2^(n-1) for partitions, [n]_p! for subspaces."""
    if kind == "boolean":
        return math.factorial(args[0])
    if kind == "partition":
        n = args[0]
        return math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)
    p, n = args
    return math.prod((p ** i - 1) // (p - 1) for i in range(1, n + 1))


def _pairs(payload: dict) -> list[tuple[Fraction, Fraction]]:
    return [(parse(a), parse(b)) for a, b in payload["intervals"]]


def measure(payload: dict) -> Fraction:
    return sum((b - a for a, b in _pairs(payload)), Fraction(0))


class Grading:
    """Lebesgue measure, or the mass of a step density given as a payload."""

    def __init__(self, density: dict | None):
        if density is None:
            self.pieces = None
        else:
            bps = [parse(t) for t in density["breakpoints"]]
            vals = [parse(v) for v in density["values"]]
            self.pieces = list(zip(bps, bps[1:], vals))

    def of(self, payload: dict) -> Fraction:
        if self.pieces is None:
            return measure(payload)
        total = Fraction(0)
        for a, b in _pairs(payload):
            for lo, hi, v in self.pieces:
                cut = min(b, hi) - max(a, lo)
                if cut > 0:
                    total += v * cut
        return total

    def prefix_point(self, value: Fraction) -> Fraction:
        """The t with grading((0, t]) == value."""
        if self.pieces is None:
            return value
        acc = Fraction(0)
        for lo, hi, v in self.pieces:
            if value <= acc + v * (hi - lo):
                return lo + (value - acc) / v
            acc += v * (hi - lo)
        raise ValueError(f"{value} exceeds the total mass")
