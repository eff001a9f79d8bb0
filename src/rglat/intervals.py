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


def _scaled(values: Iterable[Fraction], scale: int) -> list[int]:
    """Numerators of values over scale, which each denominator divides."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of values over the lcm of their denominators, and that lcm."""
    d = math.lcm(*[v.denominator for v in values])
    return _scaled(values, d), d


def _common(x: tuple[list[int], int], y: tuple[list[int], int]) -> tuple[list[int], list[int], int]:
    """Two integer forms over one denominator, rescaled only when theirs differ."""
    (xs, dx), (ys, dy) = x, y
    if dx == dy:
        return xs, ys, dx
    d = math.lcm(dx, dy)
    if d != dx:
        xs = [n * (d // dx) for n in xs]
    if d != dy:
        ys = [n * (d // dy) for n in ys]
    return xs, ys, d


class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent half-open intervals.

    The value of a set is its integer form ``_ints = (nums, d)``:
    ``Fraction(nums[k], d)`` is the k-th endpoint, and d is a common multiple
    of the endpoint denominators, not always the least.  ``==`` and ``hash``
    read the form, so sets over different d compare by value.  The kernels
    read and build forms only; the ``Fraction`` pairs of ``intervals`` are
    built at most once per set, and only where something reads them.
    """

    def __init__(self, intervals: Iterable[Pair]):
        pairs = tuple((a, b) for a, b in intervals)
        prev_hi: Fraction | None = None
        for a, b in pairs:
            if not isinstance(a, Fraction) or not isinstance(b, Fraction):
                raise ValueError("endpoints must be Fractions; use normalize()")
            if not a < b:
                raise ValueError(f"empty or reversed interval ({a}, {b}]")
            if prev_hi is not None and not prev_hi < a:
                raise ValueError("intervals must be disjoint and non-adjacent")
            prev_hi = b
        self.__dict__.update(intervals=pairs, _ints=_numerators(list(itertools.chain.from_iterable(pairs))))

    @classmethod
    def _of(cls, nums: list[int], d: int) -> "IntervalSet":
        """Wrap an integer form the kernels built canonical, skipping the checks above."""
        u = object.__new__(cls)
        u.__dict__["_ints"] = (nums, d)
        return u

    def __setattr__(self, name, value):
        # A set is a value that may key a dict; the constructors write __dict__ directly.
        raise AttributeError(f"IntervalSet is immutable; cannot set {name!r}")

    @functools.cached_property
    def intervals(self) -> tuple[Pair, ...]:
        nums, d = self._ints
        ends = iter([Fraction(n, d) for n in nums])
        return tuple(zip(ends, ends))

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        (xs, dx), (ys, dy) = self._ints, other._ints
        if dx == dy:
            return xs == ys
        return len(xs) == len(ys) and all(x * dy == y * dx for x, y in zip(xs, ys))

    def __hash__(self):
        # The form over the least d, which is the one with gcd(d, *nums) == 1.
        nums, d = self._ints
        g = math.gcd(d, *nums)
        return hash((d // g, *(n // g for n in nums)))

    @classmethod
    def of(cls, *pairs) -> "IntervalSet":
        return normalize(pairs)

    @property
    def is_empty(self) -> bool:
        return not self._ints[0]

    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(itertools.chain.from_iterable(self.intervals))

    def __repr__(self) -> str:
        if self.is_empty:
            return "IntervalSet()"
        body = " u ".join(f"({a},{b}]" for a, b in self.intervals)
        return f"IntervalSet[{body}]"


EMPTY = IntervalSet(())


def _merged(nums: list[int], d: int) -> IntervalSet:
    """The canonical union of the nonempty pieces (nums[2k], nums[2k + 1]] over d.

    Sorted on left ends and merged on <=, so the pieces come out disjoint
    and non-adjacent.
    """
    out: list[int] = []
    for k in sorted(range(0, len(nums), 2), key=nums.__getitem__):
        a, b = nums[k], nums[k + 1]
        if out and a <= out[-1]:  # overlapping or adjacent: extend the last piece
            if b > out[-1]:
                out[-1] = b
        else:
            out += (a, b)
    return IntervalSet._of(out, d)


def _checked_numerators(pieces: Sequence[Pair], ambient: Ambient | None) -> tuple[list[int], int]:
    """The raw pieces' integer form, after checking each piece on it in input order."""
    nums, d = _numerators(list(itertools.chain.from_iterable(pieces)))
    if ambient is not None and ambient.bounded:
        top, scale = ambient.upper.numerator * d, ambient.upper.denominator
    else:
        top = None
    for k, (a, b) in enumerate(pieces):
        lo, hi = nums[2 * k], nums[2 * k + 1]
        if not lo < hi:
            raise PreconditionViolation(f"raw interval ({a}, {b}] is empty or reversed")
        if top is not None and not (0 <= lo and hi * scale <= top):
            ambient.require_contains(a, b)  # raises, with the ambient's own message
    return nums, d


def normalize(raw: Iterable[Sequence], ambient: Ambient | None = None) -> IntervalSet:
    """Validate raw (a, b] pairs in input order, then sort and merge overlaps and adjacencies.

    Canonical input, such as a JSON payload, keeps its converted pairs as the
    result's ``intervals``, so reading them builds no Fraction.
    """
    pieces: list[Pair] = []
    try:
        for pair in raw:
            a, b = pair[0], pair[1]
            if not isinstance(a, Fraction):
                a = exact_fraction(a)
            if not isinstance(b, Fraction):
                b = exact_fraction(b)
            pieces.append((a, b))
    except Exception:
        _checked_numerators(pieces, ambient)  # a bad pair before the unreadable one comes first
        raise
    nums, d = _checked_numerators(pieces, ambient)
    u = _merged(nums, d)
    if u._ints[0] == nums:  # nothing moved or merged
        u.__dict__["intervals"] = tuple(pieces)
    return u


def intersect(u: IntervalSet, v: IntervalSet) -> IntervalSet:
    """Two-pointer walk on both integer forms."""
    if u.is_empty or v.is_empty:
        return EMPTY
    un, vn, d = _common(u._ints, v._ints)
    out: list[int] = []
    i = j = 0
    while i < len(un) and j < len(vn):
        lo = un[i] if un[i] >= vn[j] else vn[j]
        if un[i + 1] <= vn[j + 1]:
            hi = un[i + 1]
            i += 2
        else:
            hi = vn[j + 1]
            j += 2
        if lo < hi:
            out += (lo, hi)
    # Two pieces can only touch where u or v has a gap, and canonical gaps are
    # nonempty, so the result is canonical too.
    return IntervalSet._of(out, d)


def union(u: IntervalSet, v: IntervalSet) -> IntervalSet:
    if u.is_empty:
        return v
    if v.is_empty:
        return u
    un, vn, d = _common(u._ints, v._ints)
    return _merged(un + vn, d)


def measure(u: IntervalSet) -> Fraction:
    nums, d = u._ints
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
    _cuts: tuple[list[int], int] = field(init=False, repr=False, compare=False)
    _weights: tuple[list[int], int] = field(init=False, repr=False, compare=False)

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
        # The breakpoints' integer form, and the values' numerators over their lcm Q.
        object.__setattr__(self, "_cuts", _numerators(self.breakpoints))
        object.__setattr__(self, "_weights", _numerators(self.values))

    @property
    def upper(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def total(self) -> Fraction:
        return self._prefix.values[-1]

    def mass(self, u: IntervalSet) -> Fraction:
        """Integral of the density over u; exact.

        One walk of u's pieces against the density pieces, on u's integer
        form and the breakpoints' over one denominator D, with values over
        Q: the sum of value times overlap is an integer over D * Q.
        """
        nums, cuts, d = _common(u._ints, self._cuts)
        weights, q = self._weights
        if nums and not (0 <= nums[0] and nums[-1] <= cuts[-1]):
            # The first piece that leaves the domain: the first, or the first past its end.
            k = 0 if nums[0] < 0 else next(k for k in range(0, len(nums), 2) if nums[k + 1] > cuts[-1])
            a, b = u.intervals[k // 2]
            raise AmbientMismatch(f"({a}, {b}] outside the density domain")
        total = 0
        j = 0  # the density piece (cuts[j], cuts[j + 1]] holding the walk's position
        for k in range(0, len(nums), 2):
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
    """Breakpoints of z's prefix profiles and running sums at each, in one merge pass on ints.

    The breakpoints merge z's endpoints (canonical, so increasing) with the
    density breakpoints, or with (0, upper) under Lebesgue measure, as
    integer forms over one denominator D.  At each breakpoint x come the
    measures of z ^ (0, x] and of (0, x] minus z, then the same two under
    the density (empty lists without one), summed as numerators over D and
    over D * Q.  Crossing a z endpoint switches between inside and outside
    z; the density value holds up to the next density breakpoint.  Only the
    sums that moved get a new Fraction.  z must lie in (0, upper].
    """
    zero = Fraction(0)
    if density is None:
        upper = ambient.upper
        cut_ends, cut_form, weights, q = (zero, upper), ([0, upper.numerator], upper.denominator), [None], 1
    else:
        cut_ends, cut_form = density.breakpoints, density._cuts
        weights, q = density._weights
    nums, cuts, d = _common(z._ints, cut_form)
    dq = d * q
    ends = z.endpoints()
    xs = [zero]
    in_meas, out_meas = [zero], [zero]
    in_mass, out_mass = ([zero], [zero]) if density is not None else ([], [])
    x = acc_in = acc_out = mass_in = mass_out = 0
    meas_in = meas_out = grade_in = grade_out = zero
    i = 0  # z endpoints crossed so far
    inside = False  # whether the segment right of x lies in z
    for j, weight in enumerate(weights, 1):
        cut = cuts[j]
        while x != cut:
            if i < len(nums) and nums[i] == x:
                inside = not inside
                i += 1
            # The density piece ends at cut, unless a z endpoint comes first.
            if i < len(nums) and nums[i] < cut:
                nx, end = nums[i], ends[i]
            else:
                nx, end = cut, cut_ends[j]
            length = nx - x
            if inside:
                acc_in += length
                meas_in = Fraction(acc_in, d)
                if weight is not None:
                    mass_in += weight * length
                    grade_in = Fraction(mass_in, dq)
            else:
                acc_out += length
                meas_out = Fraction(acc_out, d)
                if weight is not None:
                    mass_out += weight * length
                    grade_out = Fraction(mass_out, dq)
            xs.append(end)
            in_meas.append(meas_in)
            out_meas.append(meas_out)
            if weight is not None:
                in_mass.append(grade_in)
                out_mass.append(grade_out)
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
    """The ``p/q`` strings of format_fraction, read off the integer form."""
    nums, d = u._ints
    ends = iter([f"{n // (g := math.gcd(n, d))}/{d // g}" for n in nums])
    return {"intervals": [[a, b] for a, b in zip(ends, ends)]}


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
