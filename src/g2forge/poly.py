"""Homogeneous polynomials with exact coefficients: the one polynomial
type of the package, and a coefficient ring the exact kernels run on.

A monomial is a sorted tuple of letters of one alphabet, the keys of
_CONJUGATE: the nine letters of pairing, linear forms on su(3),

    v1, v2, v3, z1, z2, z3, zb1, zb2, zb3

(zbj the conjugate letter of zj), and aw's eight block coordinates,

    s, y1, y2, y3, x4, x5, x6, x7,

which conjugation fixes; a monomial with any other letter raises.
pairing imports the names it reads from here.  aw imports this module
only where it builds its symbolic point, so a process that builds the
block frame alone never compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussRational, ScalarError

LETTERS = ("v1", "v2", "v3", "z1", "z2", "z3", "zb1", "zb2", "zb3")
# aw's block coordinates z = (s, y1, y2, y3, x4, ..., x7) by name
BLOCK_LETTERS = ("s", "y1", "y2", "y3", "x4", "x5", "x6", "x7")

# the alphabet and its conjugation: zj <-> zbj, every other letter fixed
_CONJUGATE = {**{name: name for name in LETTERS + BLOCK_LETTERS},
              "z1": "zb1", "z2": "zb2", "z3": "zb3",
              "zb1": "z1", "zb2": "z2", "zb3": "z3"}

# the coefficient types, each of which multiplies a polynomial directly
_SCALARS = (int, Fraction, GaussRational)


class MultiPoly:
    """Homogeneous polynomial: sorted letter tuples -> coefficients.

    A coefficient is an int, a Fraction or a GaussRational, kept as
    given; sums and products pick the type they make.  The exact kernels
    run on it as a coefficient ring: a scalar multiplies on either side,
    0 and the zero polynomial add to any polynomial (so sum() works),
    and other operand types are left to their own operators.

    The constructor is the one place a monomial's degree and letters are
    checked.  Every sum, product, scalar multiple and conjugate is built
    from checked terms by _summed, which only sorts a monomial."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree, self.terms = degree, {}
        for mono in terms or ():
            if len(mono) != degree:
                raise ScalarError("monomial degree does not match the tag")
            for name in sorted(mono):
                if name not in _CONJUGATE:
                    raise ScalarError(f"unknown letter {name!r}")
        if terms:
            self._summed(terms.items())

    def _summed(self, pairs) -> "MultiPoly":
        """self with each (monomial, coefficient) of pairs added in order:
        the monomial sorted, the coefficient added after the one already
        there, and a zero sum dropped."""
        terms = self.terms
        for mono, c in pairs:
            mono = tuple(sorted(mono))
            c = terms[mono] + c if mono in terms else c
            if c == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return self

    @classmethod
    def letter(cls, name: str) -> "MultiPoly":
        return cls(1, {(name,): 1})

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not (self.terms and other.terms):
            return other if other.terms else self
        if self.degree != other.degree:
            raise ScalarError("cannot add polynomials of different degrees")
        return MultiPoly(self.degree)._summed(
            [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return MultiPoly(self.degree + other.degree)._summed(
                (m1 + m2, c1 * c2) for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items())
        if isinstance(other, _SCALARS):
            return MultiPoly(self.degree)._summed(
                (m, c * other) for m, c in self.terms.items())
        return NotImplemented

    # a scalar commutes with every coefficient
    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def conjugate(self) -> "MultiPoly":
        return MultiPoly(self.degree)._summed(
            (map(_CONJUGATE.get, m), c.conjugate())
            for m, c in self.terms.items())

    def at(self, values: dict):
        """The exact value at the letter values given by name."""
        total = 0
        for mono, c in self.terms.items():
            for name in mono:
                c = c * values[name]
            total = total + c
        return total

    def is_real_on_su3(self) -> bool:
        """True when the polynomial is fixed by conjugating both the
        coefficients and the letters (zj <-> zbj), i.e. real-valued."""
        return self.terms == self.conjugate().terms

    def eliminate_v3(self) -> "MultiPoly":
        """Substitute v3 = -v1 - v2, the canonical reduced form."""
        v3 = -MultiPoly.letter("v1") - MultiPoly.letter("v2")
        out = MultiPoly(self.degree)
        for mono, c in self.terms.items():
            for name in mono:
                c = c * (v3 if name == "v3" else MultiPoly.letter(name))
            out = out + c
        return out

    def first_difference(self, other) -> tuple:
        """(m, self_m, other_m) at the least monomial m where this
        polynomial and an unequal other (a polynomial or a scalar)
        differ: the evidence of a failed comparison."""
        other = _as_poly(other)
        m = min(m for m in self.terms.keys() | other.terms.keys()
                if self.terms.get(m) != other.terms.get(m))
        return m, self.terms.get(m, 0), other.terms.get(m, 0)

    def __eq__(self, other):
        # equal nonzero terms have equal degrees: all zeros are one
        other = _as_poly(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = [f"({c})*{'*'.join(m)}" for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


def _as_poly(value) -> MultiPoly | None:
    """value as a MultiPoly, a scalar as one of degree 0, for ==, + and
    first_difference; None otherwise."""
    if isinstance(value, _SCALARS):
        return MultiPoly(0, {(): value})
    return value if isinstance(value, MultiPoly) else None
