"""The measurable Boolean lattice at desk scale.

Elements are canonical finite unions of half-open intervals ``(a, b]`` with
exact rational endpoints; equality of canonical forms realizes equality up
to measure zero within this class.  The ambient space is either ``(0, T]``
(bounded mode, with bottom and top) or the whole line restricted to bounded
sets (no top until one is adjoined).

Gradings: Lebesgue measure, and step-density integrals ``u -> integral of f
over u`` for strictly positive piecewise-constant ``f``.  Along the prefix
chief chain ``(0, level]`` both gradings have exact piecewise-linear
profiles, which is what makes cutset projection solvable in closed form.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import GradedLattice
from .errors import AmbientMismatch, InputFormatError, PreconditionViolation
from .rank import exact_fraction, format_fraction, json_array, parse_fraction

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Ambient:
    """Ambient space: ``(0, upper]`` when bounded, the whole line otherwise."""

    upper: Fraction | None = None

    def __post_init__(self):
        if self.upper is not None:
            object.__setattr__(self, "upper", exact_fraction(self.upper))
            if self.upper <= 0:
                raise PreconditionViolation("bounded ambient needs upper > 0")

    @property
    def bounded(self) -> bool:
        return self.upper is not None

    def require_contains(self, a: Fraction, b: Fraction) -> None:
        if self.bounded and not (0 <= a and b <= self.upper):
            raise AmbientMismatch(f"({a}, {b}] lies outside (0, {self.upper}]")


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent half-open intervals."""

    intervals: tuple[Pair, ...] = ()

    def __post_init__(self):
        prev_hi: Fraction | None = None
        for a, b in self.intervals:
            if not isinstance(a, Fraction) or not isinstance(b, Fraction):
                raise ValueError("endpoints must be Fractions; use normalize()")
            if not a < b:
                raise ValueError(f"empty or reversed interval ({a}, {b}]")
            if prev_hi is not None and not prev_hi < a:
                raise ValueError("intervals must be disjoint and non-adjacent")
            prev_hi = b

    @classmethod
    def _trusted(cls, intervals: tuple[Pair, ...]) -> "IntervalSet":
        """Wrap intervals the kernels built canonical, skipping the checks above."""
        u = object.__new__(cls)
        object.__setattr__(u, "intervals", intervals)
        return u

    @classmethod
    def of(cls, *pairs) -> "IntervalSet":
        return normalize(pairs)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(itertools.chain.from_iterable(self.intervals))

    def __repr__(self) -> str:
        if not self.intervals:
            return "IntervalSet()"
        body = " u ".join(f"({a},{b}]" for a, b in self.intervals)
        return f"IntervalSet[{body}]"


EMPTY = IntervalSet()


def _scaled(values: Iterable[Fraction], scale: int) -> list[int]:
    """Numerators of values over scale, which each denominator divides."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of values over the lcm of their denominators, and that lcm."""
    d = math.lcm(*[v.denominator for v in values])
    return _scaled(values, d), d


def _merged(ends: Sequence[Fraction]) -> IntervalSet:
    """The canonical union of the nonempty pieces (ends[k], ends[k + 1]], k even.

    Sorted on left-end numerators over one denominator and merged on <=, so
    the pieces come out disjoint and non-adjacent.  The sort is stable and
    the result is built from the input's own endpoints.
    """
    nums, _ = _numerators(ends)
    out: list[Pair] = []
    hi = 0
    for k in sorted(range(0, len(nums), 2), key=nums.__getitem__):
        b = nums[k + 1]
        if out and nums[k] <= hi:  # overlapping or adjacent: extend the last piece
            if b > hi:
                out[-1] = (out[-1][0], ends[k + 1])
                hi = b
        else:
            out.append((ends[k], ends[k + 1]))
            hi = b
    return IntervalSet._trusted(tuple(out))


def normalize(raw: Iterable[Sequence], ambient: Ambient | None = None) -> IntervalSet:
    """Validate raw (a, b] pairs in input order, then sort and merge overlaps and adjacencies."""
    ends: list[Fraction] = []
    for pair in raw:
        a, b = pair[0], pair[1]
        if not isinstance(a, Fraction):
            a = exact_fraction(a)
        if not isinstance(b, Fraction):
            b = exact_fraction(b)
        if not a < b:
            raise PreconditionViolation(f"raw interval ({a}, {b}] is empty or reversed")
        if ambient is not None:
            ambient.require_contains(a, b)
        ends.append(a)
        ends.append(b)
    return _merged(ends)


def intersect(u: IntervalSet, v: IntervalSet) -> IntervalSet:
    """Two-pointer walk on numerators over one denominator, emitting u's and v's own endpoints."""
    if u.is_empty or v.is_empty:
        return EMPTY
    ends = u.endpoints() + v.endpoints()
    nums, _ = _numerators(ends)
    out: list[Pair] = []
    v_start = 2 * len(u.intervals)  # ends holds u's pieces, then v's
    i, j = 0, v_start
    while i < v_start and j < len(nums):
        # On ties u's endpoint is kept.
        lo, lo_end = (nums[i], ends[i]) if nums[i] >= nums[j] else (nums[j], ends[j])
        if nums[i + 1] <= nums[j + 1]:
            hi, hi_end = nums[i + 1], ends[i + 1]
            i += 2
        else:
            hi, hi_end = nums[j + 1], ends[j + 1]
            j += 2
        if lo < hi:
            out.append((lo_end, hi_end))
    # Two pieces can only touch where u or v has a gap, and canonical gaps are
    # nonempty, so the result is canonical too.
    return IntervalSet._trusted(tuple(out))


def union(u: IntervalSet, v: IntervalSet) -> IntervalSet:
    if u.is_empty:
        return v
    if v.is_empty:
        return u
    # u's pieces come first, so on equal left ends the stable sort keeps u's.
    return _merged(u.endpoints() + v.endpoints())


def measure(u: IntervalSet) -> Fraction:
    nums, d = _numerators(u.endpoints())
    return Fraction(sum(nums[1::2]) - sum(nums[::2]), d)


@dataclass(frozen=True)
class StepDensity:
    """Strictly positive piecewise-constant density on (0, upper].

    ``breakpoints`` run from 0 to the ambient upper bound; ``values[j]`` is
    the density on ``(breakpoints[j], breakpoints[j+1]]``.  The induced
    grading ``mass`` is strictly increasing and modular, so it is a second
    exact rank function on the interval lattice.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    _prefix: "PiecewiseLinearProfile" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(exact_fraction(t) for t in self.breakpoints))
        object.__setattr__(self, "values", tuple(exact_fraction(v) for v in self.values))
        if len(self.breakpoints) != len(self.values) + 1 or not self.values:
            raise PreconditionViolation("need k+1 breakpoints for k density values")
        if self.breakpoints[0] != 0:
            raise PreconditionViolation("density must start at 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise PreconditionViolation("density breakpoints must strictly increase")
        if any(v <= 0 for v in self.values):
            raise PreconditionViolation("density values must be strictly positive")
        # The prefix mass t -> mass((0, t]) as a profile, built once.
        prefix = [Fraction(0)]
        for v, a, b in zip(self.values, self.breakpoints, self.breakpoints[1:]):
            prefix.append(prefix[-1] + v * (b - a))
        object.__setattr__(self, "_prefix", PiecewiseLinearProfile(self.breakpoints, tuple(prefix)))

    @property
    def upper(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def total(self) -> Fraction:
        return self._prefix.values[-1]

    def mass(self, u: IntervalSet) -> Fraction:
        """Integral of the density over u; exact.

        One walk of u's pieces against the density pieces, on numerators over
        D, the lcm of the endpoint and breakpoint denominators, with values
        over Q, the lcm of the value denominators: the sum of value times
        overlap is an integer over D * Q.
        """
        ends = u.endpoints()
        nums, d = _numerators(ends + self.breakpoints)
        cuts = nums[len(ends):]
        weights, q = _numerators(self.values)
        for k in range(0, len(ends), 2):
            if not (0 <= nums[k] and nums[k + 1] <= cuts[-1]):
                raise AmbientMismatch(f"({ends[k]}, {ends[k + 1]}] outside the density domain")
        total = 0
        j = 0  # the density piece (cuts[j], cuts[j + 1]] holding the walk's position
        for k in range(0, len(ends), 2):
            a, b = nums[k], nums[k + 1]
            while cuts[j + 1] <= a:
                j += 1
            while cuts[j + 1] < b:
                total += weights[j] * (cuts[j + 1] - a)
                a = cuts[j + 1]
                j += 1
            total += weights[j] * (b - a)
        return Fraction(total, d * q)

    def prefix_inverse(self, target: Fraction) -> Fraction:
        """The least point t with mass((0, t]) == target; exact piecewise-linear solve."""
        return self._prefix.min_level_at_value(target)


def chief_element(ambient: Ambient, level: Fraction) -> IntervalSet:
    """The chief-chain member of the given measure.

    Bounded mode: the prefix ``(0, level]``.  Unbounded mode: the symmetric
    interval ``(-level/2, level/2]``, parameterized so its measure is the
    level.
    """
    level = exact_fraction(level)
    if ambient.bounded:
        if not 0 <= level <= ambient.upper:
            raise PreconditionViolation(f"level {level} outside [0, {ambient.upper}]")
        if level == 0:
            return EMPTY
        return IntervalSet(((Fraction(0), level),))
    if level < 0:
        raise PreconditionViolation(f"level {level} must be nonnegative")
    if level == 0:
        return EMPTY
    return IntervalSet(((-level / 2, level / 2),))


def interval_lattice(ambient: Ambient) -> GradedLattice:
    """The interval lattice graded by measure."""
    top = IntervalSet(((Fraction(0), ambient.upper),)) if ambient.bounded else None
    return GradedLattice(
        name="interval-lattice", meet=intersect, join=union, rank=measure, bottom=EMPTY, top=top
    )


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """A continuous piecewise-linear function given by breakpoint samples.

    Exact between samples provided the underlying function is affine on each
    breakpoint gap, which holds for the meet/join profiles below by choice
    of breakpoints.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(exact_fraction(t) for t in self.breakpoints))
        object.__setattr__(self, "values", tuple(exact_fraction(v) for v in self.values))
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise PreconditionViolation("profile needs matching samples, at least two")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise PreconditionViolation("profile breakpoints must strictly increase")

    @classmethod
    def _trusted(cls, breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> "PiecewiseLinearProfile":
        """Wrap samples the kernels built valid, skipping the checks above."""
        p = object.__new__(cls)
        object.__setattr__(p, "breakpoints", breakpoints)
        object.__setattr__(p, "values", values)
        return p

    @functools.cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (v2 - v1) / (x2 - x1)
            for (x1, v1), (x2, v2) in zip(
                zip(self.breakpoints, self.values),
                zip(self.breakpoints[1:], self.values[1:]),
            )
        )

    @functools.cached_property
    def is_weakly_increasing(self) -> bool:
        return all(v1 <= v2 for v1, v2 in zip(self.values, self.values[1:]))

    @property
    def total_rise(self) -> Fraction:
        return self.values[-1] - self.values[0]

    def value_at(self, x: Fraction) -> Fraction:
        x = exact_fraction(x)
        xs = self.breakpoints
        if not xs[0] <= x <= xs[-1]:
            raise PreconditionViolation(f"{x} outside profile domain [{xs[0]}, {xs[-1]}]")
        i = bisect.bisect_right(xs, x) - 1
        if i == len(xs) - 1:
            return self.values[-1]
        x1, x2 = xs[i], xs[i + 1]
        v1, v2 = self.values[i], self.values[i + 1]
        return v1 + (v2 - v1) * (x - x1) / (x2 - x1)

    def min_level_at_value(self, target: Fraction) -> Fraction:
        """Least argument where the profile attains target (profile must be increasing)."""
        target = exact_fraction(target)
        if not self.is_weakly_increasing:
            raise PreconditionViolation("min_level_at_value needs a weakly increasing profile")
        vs, xs = self.values, self.breakpoints
        if not vs[0] <= target <= vs[-1]:
            raise PreconditionViolation(f"value {target} not attained by profile")
        # The first sample reaching target; the one before it lies strictly below.
        i = bisect.bisect_left(vs, target)
        if i == 0:
            return xs[0]
        return xs[i - 1] + (target - vs[i - 1]) * (xs[i] - xs[i - 1]) / (vs[i] - vs[i - 1])


def grade_value(u: IntervalSet, density: StepDensity | None) -> Fraction:
    """Grading of u: Lebesgue measure, or the density mass when one is given."""
    return density.mass(u) if density is not None else measure(u)


def _prefix_sums(
    ambient: Ambient, z: IntervalSet, density: StepDensity | None
) -> tuple[tuple[Fraction, ...], list[Fraction], list[Fraction], list[Fraction], list[Fraction]]:
    """Breakpoints of z's prefix profiles and running sums at each, in one merge pass.

    The breakpoints merge z's endpoints (canonical, so increasing) with the
    density breakpoints, or with (0, upper) under Lebesgue measure.  At each
    breakpoint x come the measures of z ^ (0, x] and of (0, x] minus z,
    then the same two under the density (empty lists without one).
    Crossing a z endpoint switches between inside and outside z; the
    density value holds up to the next density breakpoint.  z must lie in
    (0, upper].
    """
    if density is None:
        cuts, values = (Fraction(0), ambient.upper), (None,)
    else:
        cuts, values = density.breakpoints, density.values
    ends = z.endpoints()
    x = zero = Fraction(0)
    xs = [x]
    in_meas, out_meas = [zero], [zero]
    in_mass, out_mass = ([zero], [zero]) if density is not None else ([], [])
    acc_in = acc_out = mass_in = mass_out = zero
    i = 0  # z endpoints crossed so far
    inside = False  # whether the segment right of x lies in z
    for value, cut in zip(values, cuts[1:]):
        at_cut = False
        while not at_cut:
            if i < len(ends) and ends[i] == x:
                inside = not inside
                i += 1
            # The density piece ends at cut, unless a z endpoint comes first.
            at_cut = i == len(ends) or cut <= ends[i]
            nx = cut if at_cut else ends[i]
            length = nx - x
            if inside:
                acc_in += length
                if value is not None:
                    mass_in += value * length
            else:
                acc_out += length
                if value is not None:
                    mass_out += value * length
            xs.append(nx)
            in_meas.append(acc_in)
            out_meas.append(acc_out)
            if value is not None:
                in_mass.append(mass_in)
                out_mass.append(mass_out)
            x = nx
    return tuple(xs), in_meas, out_meas, in_mass, out_mass


@dataclass(frozen=True)
class ProfileBundle:
    """All four prefix-chain profiles of one element in one sweep.

    ``grade_*`` use the requested grading, ``measure_*`` plain measure; when
    no density is given the two coincide.
    """

    grade_meet: PiecewiseLinearProfile
    grade_join: PiecewiseLinearProfile
    measure_meet: PiecewiseLinearProfile
    measure_join: PiecewiseLinearProfile

    @property
    def grade_of_element(self) -> Fraction:
        return self.grade_meet.values[-1]

    @property
    def measure_of_element(self) -> Fraction:
        return self.measure_meet.values[-1]


def profile_bundle(ambient: Ambient, z: IntervalSet, density: StepDensity | None) -> ProfileBundle:
    """Meet and join profiles of z for both the grading and plain measure.

    Join values come from the part of the prefix outside z:
    grade(z v prefix) = grade(z) + grade(prefix minus z).
    """
    if not ambient.bounded:
        raise AmbientMismatch("profiles need a bounded ambient")
    if not z.is_empty:
        ambient.require_contains(z.intervals[0][0], z.intervals[-1][1])
    if density is not None and density.upper != ambient.upper:
        raise AmbientMismatch(f"density ends at {density.upper}, ambient at {ambient.upper}")
    xs, in_meas, out_meas, in_mass, out_mass = _prefix_sums(ambient, z, density)

    def meet_and_join(inside: list[Fraction], outside: list[Fraction]):
        whole = inside[-1]
        join = tuple(whole + v for v in outside)
        # xs strictly increases by construction (see _prefix_sums), so no check.
        return PiecewiseLinearProfile._trusted(xs, tuple(inside)), PiecewiseLinearProfile._trusted(xs, join)

    measure_meet, measure_join = meet_and_join(in_meas, out_meas)
    if density is None:
        return ProfileBundle(measure_meet, measure_join, measure_meet, measure_join)
    return ProfileBundle(*meet_and_join(in_mass, out_mass), measure_meet, measure_join)


# --- JSON forms (rationals as "p/q" strings, bit-exact round trip) ---

def interval_set_to_json(u: IntervalSet) -> dict:
    return {"intervals": [[format_fraction(a), format_fraction(b)] for a, b in u.intervals]}


def interval_set_from_json(data: dict, ambient: Ambient | None = None) -> IntervalSet:
    try:
        rows = map(json_array, json_array(data["intervals"]))
        pairs = [(parse_fraction(a), parse_fraction(b)) for a, b in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad interval set payload: {data!r}") from exc
    return normalize(pairs, ambient)


def density_to_json(density: StepDensity) -> dict:
    return {
        "breakpoints": [format_fraction(t) for t in density.breakpoints],
        "values": [format_fraction(v) for v in density.values],
    }


def density_from_json(data: dict) -> StepDensity:
    try:
        return StepDensity(
            tuple(parse_fraction(t) for t in json_array(data["breakpoints"])),
            tuple(parse_fraction(v) for v in json_array(data["values"])),
        )
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad density payload: {data!r}") from exc
