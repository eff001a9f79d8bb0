"""Exact rank values: rationals extended with the two symbolic infinities.

A rank is a bare :class:`fractions.Fraction`, or one of the constants
``POS_INF`` and ``NEG_INF``.  The infinities occur only where a grading is
unbounded (the product plane and lattices with adjoined bounds); they order
against every rational, absorb finite sums, and make a sum of ``+inf`` with
``-inf`` raise :class:`IndeterminateFormError` instead of guessing.  So
algebraic identities are asserted with ``==`` and no tolerance.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from typing import Union

from .errors import IndeterminateFormError, InputFormatError, PreconditionViolation


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
    denominator would leak into every value computed from it.  A Fraction
    comes back as it is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise PreconditionViolation(f"{value!r} is a float; pass an int, a Fraction or a 'p/q' string")
    return Fraction(value)


def json_array(value) -> list:
    """A JSON array payload as is; anything else raises TypeError."""
    if not isinstance(value, list):  # a string such as "02" iterates too
        raise TypeError(f"expected a JSON array, got {value!r}")
    return value


@functools.total_ordering
class _Infinity:
    """``+inf`` or ``-inf``; the two instances are ``POS_INF`` and ``NEG_INF``.

    Both order against each other, ``int`` and ``Fraction``.  Fraction's own
    operators return NotImplemented for this type, so Python falls back on
    the reflected ones here.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        # The hash of the float infinity of the same sign: fixed across runs.
        return self._sign * sys.hash_info.inf

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Infinity):
            return self._sign < other._sign
        if isinstance(other, (int, Fraction)):
            return self._sign < 0
        return NotImplemented

    def __neg__(self) -> "_Infinity":
        return NEG_INF if self is POS_INF else POS_INF

    def __add__(self, other: object) -> "_Infinity":
        if isinstance(other, (int, Fraction)) or other is self:
            return self
        if isinstance(other, _Infinity):
            raise IndeterminateFormError("(+inf) + (-inf) is undefined")
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "_Infinity":
        if isinstance(other, (int, Fraction, _Infinity)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "_Infinity":
        return (-self).__add__(other)

    def __str__(self) -> str:
        return "inf" if self._sign > 0 else "-inf"

    def __repr__(self) -> str:
        return "POS_INF" if self._sign > 0 else "NEG_INF"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

RankValue = Union[Fraction, _Infinity]


def Rank(value) -> RankValue:
    """The rank of an int, a Fraction, a ``p/q`` string or an infinity.

    An infinity comes back as it is; anything else goes through
    :func:`exact_fraction`, so a finite rank is a bare Fraction.
    """
    return value if isinstance(value, _Infinity) else exact_fraction(value)
