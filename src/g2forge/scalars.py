"""Exact scalar arithmetic for the engine.

Three exact scalar types are used throughout:

* plain rationals (stdlib ``fractions.Fraction``; ``int`` is accepted
  everywhere and means the same thing),
* :class:`QuadExt`, elements ``a + b*sqrt(10)`` of the real quadratic
  field Q(sqrt(10)), needed because the su(3) comparison cocycle carries
  a sqrt(10)/6 coefficient,
* :class:`GaussRational`, elements ``a + b*i`` of Q(i), used for the
  complex letter polynomials of the invariant pairing.

Rationals support +, -, *, / and equality; QuadExt and GaussRational
support +, -, * and equality, since nothing divides by an element of
Q(sqrt(10)) and the letter polynomials never divide.  All engine
arithmetic is exact.  GaussRational converts to complex for the numpy
Monte-Carlo check, whose polynomial coefficients are complex.

A part of a QuadExt or a GaussRational given as an ``int`` stays an
``int``, and a ``Fraction`` appears only where an operation makes one.
So the integer numerators the exact kernels work on
(``exterior.numerators``) multiply and add at int speed, an su(3)
element with int coordinates has int letters, and the one rescale
(``over``) goes through ``Fraction`` and never yields a float.
QuadExt's +, - and * read a QuadExt operand's parts directly and treat
an int or Fraction operand c as c + 0 sqrt(10) without building it,
keeping the 0 in the formula, so every part has the type the generic
formula gives it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class ScalarError(ValueError):
    """Raised on malformed scalar input (bad JSON, zero denominator)."""


def _as_rational(value):
    """An int or Fraction part as given: ints stay ints."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class QuadExt:
    """An element a + b*sqrt(10) with rational a, b.

    The representation is unique since sqrt(10) is irrational, so
    equality and zero tests are exact coefficient comparisons.  Each
    part is an int or a Fraction, as given.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rational=0, irrational=0):
        self.rat = _as_rational(rational)
        self.irr = _as_rational(irrational)

    # Each operation reads a QuadExt operand's parts and applies the same
    # formula to an int or Fraction operand c as to c + 0 sqrt(10),
    # without building it: the 0 stays in the expression, so each part
    # keeps the type the QuadExt operand's formula gives it.

    def __add__(self, other):
        if type(other) is QuadExt:
            return _quad(self.rat + other.rat, self.irr + other.irr)
        if isinstance(other, (int, Fraction)):
            return _quad(self.rat + other, self.irr + 0)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.rat, -self.irr)

    def __sub__(self, other):
        if type(other) is QuadExt:
            return _quad(self.rat - other.rat, self.irr - other.irr)
        if isinstance(other, (int, Fraction)):
            return _quad(self.rat - other, self.irr - 0)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quad(other - self.rat, 0 - self.irr)
        return NotImplemented

    def __mul__(self, other):
        # (a + b s)(c + d s) = ac + 10 bd + (ad + bc) s,  s^2 = 10
        if type(other) is QuadExt:
            return _quad(self.rat * other.rat + 10 * self.irr * other.irr,
                         self.rat * other.irr + self.irr * other.rat)
        if isinstance(other, (int, Fraction)):
            return _quad(self.rat * other + 10 * self.irr * 0,
                         self.rat * 0 + self.irr * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is QuadExt:
            return self.rat == other.rat and self.irr == other.irr
        if isinstance(other, (int, Fraction)):
            return self.rat == other and self.irr == 0
        return NotImplemented

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


def _quad(rational, irrational) -> QuadExt:
    """QuadExt from parts already known to be int or Fraction."""
    q = object.__new__(QuadExt)
    q.rat = rational
    q.irr = irrational
    return q


class GaussRational:
    """An element a + b*i of the Gaussian rationals Q(i).  Each part is
    an int or a Fraction, as given."""

    __slots__ = ("re", "im")

    def __init__(self, real=0, imag=0):
        self.re = _as_rational(real)
        self.im = _as_rational(imag)

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



def _denominator(c) -> int:
    if isinstance(c, QuadExt):
        return math.lcm(c.rat.denominator, c.irr.denominator)
    return c.denominator


def _times(c, d: int):
    """c * d for a c whose denominators divide d, with int parts."""
    if isinstance(c, QuadExt):
        return _quad(_times(c.rat, d), _times(c.irr, d))
    return c.numerator * (d // c.denominator)


def clear_denominators(values: list) -> tuple[list, int]:
    """(V, d) with v_k = V_k / d, every V_k an int (a QuadExt with int
    parts for QuadExt entries) and d >= 1 the least such integer.  A
    list of ints comes back as the same list, with d = 1."""
    if all(type(c) is int for c in values):
        return values, 1
    if all(type(c) is Fraction for c in values):
        d = math.lcm(*{c.denominator for c in values})
        return [c.numerator * (d // c.denominator) for c in values], d
    d = math.lcm(*{_denominator(c) for c in values})
    return [_times(c, d) for c in values], d


def over(c, d: int):
    """c / d for an int or QuadExt numerator c, a Fraction or a QuadExt."""
    if type(c) is int:
        return Fraction(c, d)
    return _quad(Fraction(c.rat, d), Fraction(c.irr, d))


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


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _fraction_from_strings(num, den, what):
    bad = ScalarError(f"{what}: numerator and denominator must be decimal strings")
    # int() alone would also read 1.5 as 1, true as 1, "1_000" and
    # non-ASCII digits, so only plain decimal strings reach it
    if not all(isinstance(s, str) and _DECIMAL.fullmatch(s)
               for s in (num, den)):
        raise bad
    try:
        n = int(num)
        d = int(den)
    except ValueError:  # more digits than int() converts
        raise bad
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
