"""Exact scalar arithmetic for the engine.

Three exact scalar types are used throughout:

* plain rationals (stdlib ``fractions.Fraction``; ``int`` is accepted
  everywhere and means the same thing),
* :class:`QuadExt`, elements ``a + b*sqrt(10)`` of the real quadratic
  field Q(sqrt(10)), needed because the su(3) comparison cocycle carries
  a sqrt(10)/6 coefficient,
* :class:`GaussRational`, elements ``a + b*i`` of Q(i), used for the
  complex letter polynomials of the invariant pairing.

Every exact type supports +, -, *, / and equality, and all engine
arithmetic is exact.  QuadExt converts to float and GaussRational to
complex for display and for the numpy Monte-Carlo check, whose
polynomial coefficients are complex.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class ScalarError(ValueError):
    """Raised on malformed scalar input (bad JSON, zero denominator)."""


def rat(num, den=1) -> Fraction:
    """Shorthand rational constructor."""
    return Fraction(num, den)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class QuadExt:
    """An element a + b*sqrt(10) with rational a, b.

    The representation is unique since sqrt(10) is irrational, so
    equality and zero tests are exact coefficient comparisons.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rational=0, irrational=0):
        self.rat = _as_fraction(rational)
        self.irr = _as_fraction(irrational)

    @staticmethod
    def _coerce(other):
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.rat + o.rat, self.irr + o.irr)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rat, -self.irr)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.rat - o.rat, self.irr - o.irr)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.rat - self.rat, o.irr - self.irr)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(c + d s) = ac + 10 bd + (ad + bc) s,  s^2 = 10
        return QuadExt(self.rat * o.rat + 10 * self.irr * o.irr,
                       self.rat * o.irr + self.irr * o.rat)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # 1/(a + b s) = (a - b s)/(a^2 - 10 b^2); the norm is nonzero
        # for nonzero elements because 10 is not a rational square.
        norm = self.rat * self.rat - 10 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(10))")
        return QuadExt(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadExt(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat and self.irr == o.irr

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __bool__(self):
        return self.rat != 0 or self.irr != 0

    def __repr__(self):
        if self.irr == 0:
            return f"QuadExt({self.rat!r})"
        return f"QuadExt({self.rat!r}, {self.irr!r})"

    def __float__(self):
        return float(self.rat) + float(self.irr) * math.sqrt(10)


SQRT10 = QuadExt(0, 1)


class GaussRational:
    """An element a + b*i of the Gaussian rationals Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, real=0, imag=0):
        self.re = _as_fraction(real)
        self.im = _as_fraction(imag)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __complex__(self):
        return complex(float(self.re), float(self.im))


I_UNIT = GaussRational(0, 1)


def scalar_to_json(value) -> dict:
    """Serialize an exact scalar (Fraction, int, or QuadExt).

    The wire form keeps numerators and denominators as decimal strings
    so arbitrary-precision values survive JSON round trips:
    {"num": "...", "den": "...", "irr_num": "...", "irr_den": "..."},
    the irr fields present only when the sqrt(10) part is nonzero.
    """
    if isinstance(value, QuadExt):
        out = {"num": str(value.rat.numerator), "den": str(value.rat.denominator)}
        if value.irr != 0:
            out["irr_num"] = str(value.irr.numerator)
            out["irr_den"] = str(value.irr.denominator)
        return out
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return {"num": str(f.numerator), "den": str(f.denominator)}
    raise TypeError(f"not an exact scalar: {type(value).__name__}")


def _fraction_from_strings(num, den, what):
    try:
        n = int(num)
        d = int(den)
    except (TypeError, ValueError):
        raise ScalarError(f"{what}: numerator and denominator must be decimal strings")
    if d == 0:
        raise ScalarError(f"{what}: zero denominator")
    return Fraction(n, d)


def scalar_from_json(data) -> Fraction | QuadExt:
    """Parse the scalar wire form; returns Fraction or QuadExt."""
    if not isinstance(data, dict) or "num" not in data:
        raise ScalarError(f"malformed scalar: {data!r}")
    unknown = set(data) - {"num", "den", "irr_num", "irr_den"}
    if unknown:
        raise ScalarError(f"unknown scalar fields: {sorted(unknown)}")
    body = _fraction_from_strings(data["num"], data.get("den", "1"), "scalar")
    if "irr_num" in data or "irr_den" in data:
        irr = _fraction_from_strings(data.get("irr_num", "0"),
                                     data.get("irr_den", "1"), "scalar irr part")
        if irr != 0:
            return QuadExt(body, irr)
    return body
