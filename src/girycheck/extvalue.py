"""Exact extended nonnegative/real values: rationals plus a single +inf.

Arithmetic follows the absorbing conventions used for expectations of
{0, inf}-valued maps: inf + v = inf, c * inf = inf for c > 0, and 0 * inf = 0.
There is no -inf.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class ExtValue:
    """A Fraction or +inf, totally ordered with inf greatest."""

    __slots__ = ("_num",)

    def __init__(self, value=None):
        # value None means +inf
        if value is None or type(value) is Fraction:
            self._num = value
        elif isinstance(value, ExtValue):
            self._num = value._num
        elif isinstance(value, float):
            # refused rather than converted, as the carriers refuse floats:
            # 0.1 would become 3602879701896397/36028797018963968
            raise ValueError(f"float value {value!r}; values must be int or Fraction")
        else:
            self._num = Fraction(value)

    @property
    def is_inf(self) -> bool:
        return self._num is None

    @property
    def value(self) -> Fraction:
        if self._num is None:
            raise ValueError("infinite value has no finite part")
        return self._num

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_inf or other.is_inf:
            return INF
        return ExtValue(self._num + other._num)

    __radd__ = __add__

    def __mul__(self, scalar):
        # scalar is a plain rational weight; 0 * inf = 0 by convention
        c = scalar if type(scalar) is Fraction else Fraction(scalar)
        if self._num is not None:
            return ExtValue(self._num * c)
        if c < 0:
            raise ValueError("negative multiple of inf is not representable")
        return ZERO if c == 0 else INF

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_inf:
            return False
        if other.is_inf:
            return True
        return self._num < other._num

    def __hash__(self):
        return hash(("ExtValue", self._num))

    def __str__(self):
        return "inf" if self.is_inf else str(self._num)

    def __repr__(self):
        return f"ExtValue({self})"


def _coerce(x):
    if isinstance(x, ExtValue):
        return x
    if isinstance(x, (int, Fraction)):
        return ExtValue(x)
    return NotImplemented


INF = ExtValue()
ZERO = ExtValue(0)


def parse_ext(text: str) -> ExtValue:
    text = text.strip()
    return INF if text == "inf" else ExtValue(Fraction(text))


def ext_sum(values) -> ExtValue:
    total = ZERO
    for v in values:
        total = total + v
    return total


def ext_abs_diff(a: ExtValue, b: ExtValue) -> ExtValue:
    """|a - b| with d(inf, inf) = 0 and d(finite, inf) = inf."""
    if a.is_inf and b.is_inf:
        return ZERO
    if a.is_inf or b.is_inf:
        return INF
    return ExtValue(abs(a.value - b.value))
