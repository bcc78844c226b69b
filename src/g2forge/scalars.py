"""Exact scalar arithmetic for the engine.

Three exact scalar types are used throughout:

* plain rationals (stdlib ``fractions.Fraction``; ``int`` is accepted
  everywhere and means the same thing),
* :class:`QuadExt`, elements ``a + b*sqrt(10)`` of the real quadratic
  field Q(sqrt(10)).  The su(3) comparison form carries sqrt(10) in the
  coefficient of its C(x) block, but both routes to P keep its rational
  and sqrt(10) parts apart in ints (``aw``), so no suite and no su(3)
  route builds a QuadExt: it is reached by ``eval`` on input with
  sqrt(10) coefficients (``tests/golden/operators_seed1.json`` holds
  such cases) and by the tests' oracles,
* :class:`GaussRational`, elements ``a + b*i`` of Q(i), used for the
  complex letter polynomials of the invariant pairing.

The two fields are one definition, ``a + b*sqrt(D)`` with D = 10 and
D = -1: their +, -, *, equality, hash and truth value are written once
(:class:`_QuadraticField`), and each result is built by ``_element``.
Nothing divides by a field element.  Two fields never mix: an operation
between them raises TypeError.  All engine arithmetic is exact.
GaussRational converts to complex for the numpy Monte-Carlo check, whose
polynomial coefficients are complex.

A part given as an ``int`` stays an ``int``, and a ``Fraction`` appears
only where an operation makes one.  So the integer numerators the exact
kernels work on (``exterior.numerators``) multiply and add at int speed,
an su(3) element with int coordinates has int letters, and the one
rescale (``over``) goes through ``Fraction`` and never yields a float.
The arithmetic reads a same-field operand's parts directly and treats
an int or Fraction operand c as c + 0 sqrt(D) without building it,
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


class _QuadraticField:
    """An element a + b*sqrt(D) of Q(sqrt(D)) with rational a, b: the
    base of the two fields, each a subclass that sets the non-square int
    D.

    The representation is unique since sqrt(D) is irrational, so
    equality and zero tests are exact comparisons of the parts.  Each
    part is an int or a Fraction, as given.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rational=0, irrational=0):
        self.rat = _as_rational(rational)
        self.irr = _as_rational(irrational)

    def __init_subclass__(cls):
        # Each field holds its own binding of every operator, closed
        # over cls and D: a per-class binding is what perfbench wraps as
        # the field's leaf, and a closure reads D at no lookup cost.
        # Each operation reads a same-field operand's parts and applies
        # the same formula to an int or Fraction operand c as to
        # c + 0 sqrt(D), without building it: the 0 stays in the
        # expression, so each part keeps the type the formula gives it.
        D = cls.D

        def add(x, y):
            if type(y) is cls:
                return _element(cls, x.rat + y.rat, x.irr + y.irr)
            if isinstance(y, (int, Fraction)):
                return _element(cls, x.rat + y, x.irr + 0)
            return NotImplemented

        def neg(x):
            return _element(cls, -x.rat, -x.irr)

        def sub(x, y):
            if type(y) is cls:
                return _element(cls, x.rat - y.rat, x.irr - y.irr)
            if isinstance(y, (int, Fraction)):
                return _element(cls, x.rat - y, x.irr - 0)
            return NotImplemented

        def rsub(x, y):
            if isinstance(y, (int, Fraction)):
                return _element(cls, y - x.rat, 0 - x.irr)
            return NotImplemented

        def mul(x, y):
            # (a + b s)(c + d s) = ac + D bd + (ad + bc) s,  s^2 = D
            if type(y) is cls:
                return _element(cls, x.rat * y.rat + D * x.irr * y.irr,
                                x.rat * y.irr + x.irr * y.rat)
            if isinstance(y, (int, Fraction)):
                return _element(cls, x.rat * y + D * x.irr * 0,
                                x.rat * 0 + x.irr * y)
            return NotImplemented

        def eq(x, y):
            if type(y) is cls:
                return x.rat == y.rat and x.irr == y.irr
            if isinstance(y, (int, Fraction)):
                return x.rat == y and x.irr == 0
            return NotImplemented

        cls.__add__ = cls.__radd__ = add
        cls.__sub__, cls.__rsub__, cls.__neg__ = sub, rsub, neg
        cls.__mul__ = cls.__rmul__ = mul
        cls.__eq__ = eq

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __bool__(self):
        return self.rat != 0 or self.irr != 0


def _element(cls, rational, irrational):
    """The element of field cls from parts known to be int or Fraction:
    every arithmetic result is built here, without validation."""
    x = object.__new__(cls)
    x.rat = rational
    x.irr = irrational
    return x


class QuadExt(_QuadraticField):
    """An element a + b*sqrt(10) of Q(sqrt(10))."""

    __slots__ = ()
    D = 10

    def __repr__(self):
        if self.irr == 0:
            return f"QuadExt({self.rat!r})"
        return f"QuadExt({self.rat!r}, {self.irr!r})"


class GaussRational(_QuadraticField):
    """An element a + b*i of the Gaussian rationals Q(i), i = sqrt(-1);
    ``re`` and ``im`` read its two parts."""

    __slots__ = ()
    D = -1
    re = property(lambda self: self.rat)
    im = property(lambda self: self.irr)

    def conjugate(self) -> GaussRational:
        return _element(GaussRational, self.rat, -self.irr)

    def __repr__(self):
        # an int-valued part prints as an int, any other as a Fraction,
        # so equal values print alike however they were built
        rat, irr = (int(q) if q.denominator == 1 else q
                    for q in (self.rat, self.irr))
        return f"GaussRational({rat!r}, {irr!r})"

    def __str__(self):
        # as a raise text prints a coefficient: a real value as its
        # rational, any other as a + b i
        if self.irr == 0:
            return str(self.rat)
        return f"{self.rat} {'-' if self.irr < 0 else '+'} {abs(self.irr)} i"

    def __complex__(self):
        return complex(float(self.rat), float(self.irr))


def _denominator(c) -> int:
    if isinstance(c, QuadExt):
        return math.lcm(c.rat.denominator, c.irr.denominator)
    return c.denominator


def _times(c, d: int):
    """c * d for a c whose denominators divide d, with int parts."""
    if isinstance(c, QuadExt):
        return _element(QuadExt, _times(c.rat, d), _times(c.irr, d))
    return c.numerator * (d // c.denominator)


def clear_denominators(values: list) -> tuple[list, int]:
    """(V, d) with v_k = V_k / d, every V_k an int (a QuadExt with int
    parts for QuadExt entries) and d >= 1 the least such integer.  A
    list of ints comes back as the same list, with d = 1."""
    types = set(map(type, values))
    if types <= {int}:
        return values, 1
    if types == {Fraction}:
        d = math.lcm(*{c.denominator for c in values})
        return [c.numerator * (d // c.denominator) for c in values], d
    d = math.lcm(*{_denominator(c) for c in values})
    return [_times(c, d) for c in values], d


def over(c, d: int):
    """c / d for an int or QuadExt numerator c, a Fraction or a QuadExt."""
    if type(c) is int:
        return Fraction(c, d)
    return _element(QuadExt, Fraction(c.rat, d), Fraction(c.irr, d))


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
