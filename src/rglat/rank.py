"""Exact rank values: rationals extended with the two symbolic infinities.

Bounded and finite gradings return bare :class:`fractions.Fraction` ranks;
:class:`Rank` serves only the gradings where ``-inf`` or ``+inf`` can occur
(the product plane and lattices with adjoined bounds).  A finite ``Rank``
compares, hashes and does arithmetic like the ``Fraction`` it holds, so
algebraic identities are asserted with ``==`` and no tolerance.  Sums that
would combine ``+inf`` with ``-inf`` raise :class:`IndeterminateFormError`
instead of guessing.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

from .errors import IndeterminateFormError, InputFormatError, PreconditionViolation

_NEG, _FIN, _POS = -1, 0, 1

RankLike = Union["Rank", Fraction, int, str]


def format_fraction(value: Fraction) -> str:
    """Render a rational as an explicit ``p/q`` string (``q`` always present)."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`format_fraction`; also accepts bare integers."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"not a rational: {text!r}") from exc


def exact_fraction(value) -> Fraction:
    """``Fraction(value)``, refusing a float: a binary float is seldom the rational meant.

    ``Fraction(0.1)`` is 3602879701896397/36028797018963968, and its 2**55
    denominator would leak into every value computed from it.
    """
    if isinstance(value, float):
        raise PreconditionViolation(f"{value!r} is a float; pass an int, a Fraction or a 'p/q' string")
    return Fraction(value)


def json_array(value) -> list:
    """A JSON array payload as is; anything else raises TypeError."""
    if not isinstance(value, list):  # a string such as "02" iterates too
        raise TypeError(f"expected a JSON array, got {value!r}")
    return value


@functools.total_ordering
class Rank:
    """An exact rational rank, or one of the endpoints ``-inf`` / ``+inf``.

    The ordering is total with ``-inf < finite < +inf``.  Instances are
    immutable by convention and hashable.
    """

    __slots__ = ("_kind", "_value")

    def __init__(self, value: Fraction | int | str = 0):
        self._kind = _FIN
        # Finite arithmetic hands over a Fraction it just made; wrap only the rest.
        self._value = value if type(value) is Fraction else exact_fraction(value)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._kind == other._kind and self._value == other._value

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._value < other._value

    def __hash__(self) -> int:
        # A finite rank equals its Fraction, so it must hash like one.
        return hash(self._value) if self._kind == _FIN else hash((self._kind, self._value))

    def __add__(self, other: RankLike) -> "Rank":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._kind == _FIN and other._kind == _FIN:
            return Rank(self._value + other._value)
        if self._kind == _FIN:
            return other
        if other._kind == _FIN:
            return self
        if self._kind != other._kind:
            raise IndeterminateFormError("(+inf) + (-inf) is undefined")
        return self

    __radd__ = __add__

    def __neg__(self) -> "Rank":
        if self._kind == _FIN:
            return Rank(-self._value)
        return NEG_INF if self._kind == _POS else POS_INF

    def __sub__(self, other: RankLike) -> "Rank":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._kind == _FIN:
            return Rank(self._value - other._value) if self._kind == _FIN else self
        # The negation of an infinity is the other constant, so nothing is allocated.
        return self + (-other)

    def __rsub__(self, other: RankLike) -> "Rank":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __str__(self) -> str:
        if self._kind == _POS:
            return "inf"
        if self._kind == _NEG:
            return "-inf"
        return str(self._value)

    def __repr__(self) -> str:
        return f"Rank({str(self)!r})"


def _infinite(kind: int) -> Rank:
    r = object.__new__(Rank)
    r._kind = kind
    r._value = Fraction(0)
    return r


POS_INF = _infinite(_POS)
NEG_INF = _infinite(_NEG)


def _coerce(value: object) -> Rank:
    if isinstance(value, Rank):
        return value
    if isinstance(value, (int, Fraction)):
        return Rank(value)
    return NotImplemented


def as_rank(value: RankLike) -> Rank:
    if isinstance(value, str):
        return Rank(value)
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a rank")
    return coerced

