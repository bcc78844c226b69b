"""Cubic polynomials on su(3) and the invariant pairing <P, i det>.

Polynomials live in the nine-letter alphabet

    v1, v2, v3, z1, z2, z3, zb1, zb2, zb3

of linear forms on su(3) (zbj is the conjugate letter of zj, and
v1 + v2 + v3 = 0 is the one relation).  The inner product on cubics is
the permanent of the Gram submatrix of the letters, with the Gram data

    <va, va> = 4/3,  <va, vb> = -2/3 (a != b),  <zj, zbk> = 2 delta_jk,

induced by b(xi, xi) = -1/2 tr(xi^2); both the table and its derivation
from b are implemented and compared.

i det(xi) is computed two ways (the displayed six-term cubic, and the
symbolic determinant of the coordinate matrix) and the obstruction
polynomial P enters either as the closed displayed cubic or as the
first-principles interpolation through the exact evaluator.  The final
number is <P, i det>, assembled from the four component pairings

    <s^3, i det> = -4/9,   <s|x|^2, i det> = -8/3,
    <s|y|^2, i det> = 4,   <R, i det> = 24.

A seeded Monte-Carlo check closes the loop: averaging P over conjugates
g xi g^{-1} with Haar-random g in SU(3) projects P onto the unique
invariant cubic, so the empirical mean must approach
(<P, i det>/<i det, i det>) i det(xi).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .g2 import InternalConsistencyError
from .scalars import GaussRational, ScalarError
from .aw import Su3Element, first_principles_fit, first_principles_value

LETTERS = ("v1", "v2", "v3", "z1", "z2", "z3", "zb1", "zb2", "zb3")

_CONJUGATE = {"v1": "v1", "v2": "v2", "v3": "v3",
              "z1": "zb1", "z2": "zb2", "z3": "zb3",
              "zb1": "z1", "zb2": "z2", "zb3": "z3"}

_ZERO = GaussRational(0, 0)
_ONE = GaussRational(1, 0)
_I = GaussRational(0, 1)


def _coeff(c) -> GaussRational:
    if isinstance(c, GaussRational):
        return c
    return GaussRational(Fraction(c), 0)


class MultiPoly:
    """Homogeneous polynomial: sorted letter tuples -> Gaussian rationals."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        self.terms: dict[tuple, GaussRational] = {}
        if terms:
            for mono, c in terms.items():
                self._add_term(mono, _coeff(c))

    def _add_term(self, mono, c: GaussRational):
        mono = tuple(sorted(mono))
        if len(mono) != self.degree:
            raise ScalarError("monomial degree does not match the tag")
        for name in mono:
            if name not in LETTERS:
                raise ScalarError(f"unknown letter {name!r}")
        cur = self.terms.get(mono, _ZERO) + c
        if cur == _ZERO:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = cur

    @classmethod
    def letter(cls, name: str) -> "MultiPoly":
        return cls(1, {(name,): _ONE})

    @classmethod
    def zero(cls, degree: int) -> "MultiPoly":
        return cls(degree)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.degree != other.degree:
            raise ScalarError("cannot add polynomials of different degrees")
        out = MultiPoly(self.degree, dict(self.terms))
        for mono, c in other.terms.items():
            out._add_term(mono, c)
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out = MultiPoly(self.degree + other.degree)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out._add_term(m1 + m2, c1 * c2)
        return out

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        out = MultiPoly(self.degree)
        if c == _ZERO:
            return out
        for mono, cc in self.terms.items():
            out._add_term(mono, cc * c)
        return out

    def conjugate(self) -> "MultiPoly":
        out = MultiPoly(self.degree)
        for mono, c in self.terms.items():
            out._add_term(tuple(_CONJUGATE[n] for n in mono), c.conjugate())
        return out

    def is_real_on_su3(self) -> bool:
        """True when the polynomial is fixed by conjugating both the
        coefficients and the letters (zj <-> zbj), i.e. real-valued."""
        return self.terms == self.conjugate().terms

    def eliminate_v3(self) -> "MultiPoly":
        """Substitute v3 = -v1 - v2, the canonical reduced form."""
        v3sub = MultiPoly(1, {("v1",): -_ONE, ("v2",): -_ONE})
        out = MultiPoly(self.degree)
        for mono, c in self.terms.items():
            piece = MultiPoly(0, {(): c})
            for name in mono:
                factor = v3sub if name == "v3" else MultiPoly.letter(name)
                piece = piece * factor
            out = out + piece
        return out

    def evaluate(self, values: dict) -> GaussRational:
        """Plug in GaussRational letter values."""
        total = GaussRational(0, 0)
        for mono, c in self.terms.items():
            prod = c
            for name in mono:
                prod = prod * values[name]
            total = total + prod
        return total

    def evaluate_at(self, xi: Su3Element):
        return self.evaluate(letter_values(xi))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = [f"({c})*{'*'.join(m)}" for m, c in sorted(self.terms.items())]
        return " + ".join(bits)


def letter_values(xi: Su3Element) -> dict:
    """The nine letter values of an su(3) element."""
    z = xi.z_letters()
    vals = {}
    for a in range(3):
        vals[f"v{a + 1}"] = GaussRational(Fraction(xi.v[a]), 0)
    for j in range(3):
        vals[f"z{j + 1}"] = z[j]
        vals[f"zb{j + 1}"] = z[j].conjugate()
    return vals


# ---------------------------------------------------------------------------
# Gram data and the permanent inner product

GRAM = {}
for _a in range(3):
    for _b in range(3):
        GRAM[(f"v{_a + 1}", f"v{_b + 1}")] = (Fraction(4, 3) if _a == _b
                                              else Fraction(-2, 3))
for _j in range(3):
    GRAM[(f"z{_j + 1}", f"zb{_j + 1}")] = Fraction(2)
    GRAM[(f"zb{_j + 1}", f"z{_j + 1}")] = Fraction(2)


def gram_entry(a: str, b: str) -> Fraction:
    return GRAM.get((a, b), Fraction(0))


def derive_gram_from_killing() -> dict:
    """The same table computed from b(xi, xi) = -1/2 tr(xi^2).

    In the real coordinates (v1, v2, x1..x6) the quadratic form b is
    v1^2 + v1 v2 + v2^2 + sum x_i^2; the dual inner product of two
    linear forms is ell B^{-1} ell'^T (complex-bilinear, no conjugation)
    and the letters are pushed through as linear forms.
    """
    # B^{-1} on the v-block of [[1, 1/2], [1/2, 1]]; the x-block is id
    binv_v = ((Fraction(4, 3), Fraction(-2, 3)),
              (Fraction(-2, 3), Fraction(4, 3)))
    rows = {
        "v1": [1, 0] + [0] * 6,
        "v2": [0, 1] + [0] * 6,
        "v3": [-1, -1] + [0] * 6,
    }
    # z1 = -x5 + i x6, z2 = x3 + i x4, z3 = -x1 + i x2
    zrows = {
        "z1": {"x5": -_ONE, "x6": _I},
        "z2": {"x3": _ONE, "x4": _I},
        "z3": {"x1": -_ONE, "x2": _I},
    }
    xs = [f"x{k}" for k in range(1, 7)]
    for name, combo in list(zrows.items()):
        rows[name] = [_ZERO, _ZERO] + [combo.get(x, _ZERO) for x in xs]
        rows["zb" + name[1:]] = [_ZERO, _ZERO] + \
            [combo.get(x, _ZERO).conjugate() for x in xs]

    def pair(ra, rb):
        total = GaussRational(0, 0)
        for i in range(2):
            for j in range(2):
                total = total + _coeff(ra[i]) * _coeff(rb[j]) * \
                    GaussRational(binv_v[i][j], 0)
        for k in range(2, 8):
            total = total + _coeff(ra[k]) * _coeff(rb[k])
        return total

    table = {}
    for a in LETTERS:
        for b in LETTERS:
            val = pair(rows[a], rows[b])
            if val != _ZERO:
                if val.im != 0:
                    raise InternalConsistencyError(
                        "derived Gram entry is not rational")
                table[(a, b)] = val.re
    return table


def permanent(rows: list[list]):
    """Matrix permanent by the expansion over permutations (the pairing
    of cubics only ever needs 3 x 3 permanents)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ScalarError("permanent needs a square matrix")
    if n == 0:
        return Fraction(1)
    total = None
    for perm in itertools.permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        total = prod if total is None else total + prod
    return total


def monomial_inner(m1: tuple, m2: tuple) -> Fraction:
    """<a1...ak, b1...bk> = perm(<a_i, b_j>) with multiset repetition."""
    if len(m1) != len(m2):
        raise ScalarError("monomials must have equal degree")
    rows = [[gram_entry(a, b) for b in m2] for a in m1]
    return permanent(rows)


def sym_inner_poly(p: MultiPoly, q: MultiPoly) -> GaussRational:
    """Bilinear extension of the permanent inner product."""
    if p.degree != q.degree:
        raise ScalarError("polynomials must have equal degree")
    total = GaussRational(0, 0)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            g = monomial_inner(m1, m2)
            if g != 0:
                total = total + c1 * c2 * GaussRational(g, 0)
    return total


# ---------------------------------------------------------------------------
# The coordinate dictionary: x-letters as z-polynomials

def _half(name_plus: str, name_minus: str, imag: bool) -> MultiPoly:
    plus = MultiPoly.letter(name_plus)
    minus = MultiPoly.letter(name_minus)
    if imag:
        # (z - zb)/(2i) = -(i/2)(z - zb)
        return (plus - minus).scale(GaussRational(0, Fraction(-1, 2)))
    return (plus + minus).scale(Fraction(1, 2))


@functools.cache
def x_letter_polys() -> dict:
    """x1..x6 as polynomials in the z-alphabet, from z1 = -x5 + i x6,
    z2 = x3 + i x4, z3 = -x1 + i x2."""
    return {
        "x1": _half("z3", "zb3", False).scale(-1),
        "x2": _half("z3", "zb3", True),
        "x3": _half("z2", "zb2", False),
        "x4": _half("z2", "zb2", True),
        "x5": _half("z1", "zb1", False).scale(-1),
        "x6": _half("z1", "zb1", True),
    }


def s_poly() -> MultiPoly:
    return (MultiPoly.letter("v1") + MultiPoly.letter("v2")).scale(Fraction(1, 2))


def x_norm_poly() -> MultiPoly:
    """|x|^2 = |z1|^2 + |z2|^2."""
    return (MultiPoly.letter("z1") * MultiPoly.letter("zb1")
            + MultiPoly.letter("z2") * MultiPoly.letter("zb2"))


def y_norm_poly() -> MultiPoly:
    """|y|^2 = ((v1 - v2)/2)^2 + |z3|^2."""
    d = (MultiPoly.letter("v1") - MultiPoly.letter("v2")).scale(Fraction(1, 2))
    return d * d + MultiPoly.letter("z3") * MultiPoly.letter("zb3")


def r_poly() -> MultiPoly:
    """R in letters, from the coordinate display

        R = (v1-v2)/2 (x3^2 + x4^2 - x5^2 - x6^2)
            - 2 x1 (-x3 x6 + x4 x5) + 2 x2 (x3 x5 + x4 x6),

    pushed through the x -> z dictionary."""
    xp = x_letter_polys()
    d = (MultiPoly.letter("v1") - MultiPoly.letter("v2")).scale(Fraction(1, 2))
    quad = (xp["x3"] * xp["x3"] + xp["x4"] * xp["x4"]
            - xp["x5"] * xp["x5"] - xp["x6"] * xp["x6"])
    mixed = (xp["x1"] * (xp["x4"] * xp["x5"] - xp["x3"] * xp["x6"])).scale(-2) \
        + (xp["x2"] * (xp["x3"] * xp["x5"] + xp["x4"] * xp["x6"])).scale(2)
    return d * quad + mixed


# ---------------------------------------------------------------------------
# i det along two routes

def idet_display_poly() -> MultiPoly:
    """The displayed cubic, with the product term read as
    i (z1 z2 z3 - zb1 zb2 zb3), i.e. minus twice the imaginary part."""
    v = [MultiPoly.letter(f"v{a}") for a in (1, 2, 3)]
    z = [MultiPoly.letter(f"z{j}") for j in (1, 2, 3)]
    zb = [MultiPoly.letter(f"zb{j}") for j in (1, 2, 3)]
    out = v[0] * v[1] * v[2]
    out = out + (z[0] * z[1] * z[2]).scale(_I)
    out = out - (zb[0] * zb[1] * zb[2]).scale(_I)
    for j in range(3):
        out = out - v[j] * z[j] * zb[j]
    return out


def idet_determinant_poly() -> MultiPoly:
    """i times the symbolic determinant of the coordinate matrix

        [[i v1, -zb3, z2], [z3, i v2, -zb1], [-zb2, z1, i v3]]

    with v3 = -v1 - v2 eliminated during the expansion."""
    iv = [MultiPoly.letter(f"v{a}").scale(_I) for a in (1, 2)]
    iv3 = (MultiPoly.letter("v1") + MultiPoly.letter("v2")).scale(-_I)
    z = [MultiPoly.letter(f"z{j}") for j in (1, 2, 3)]
    zb = [MultiPoly.letter(f"zb{j}") for j in (1, 2, 3)]
    m = [[iv[0], zb[2].scale(-1), z[1]],
         [z[2], iv[1], zb[0].scale(-1)],
         [zb[1].scale(-1), z[0], iv3]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det.scale(_I)


def idet_report() -> dict:
    """Both routes to i det, compared in the reduced alphabet, plus the
    documentation of how the product-term notation must be read.

    The displayed "2i re(z1 z2 z3)" is formally imaginary; the
    determinant expansion shows the intended term is
    i (z1 z2 z3 - zb1 zb2 zb3) = -2 Im(z1 z2 z3), and the literal
    reading i (z1 z2 z3 + zb1 zb2 zb3) is not even real-valued.
    """
    display = idet_display_poly()
    det_route = idet_determinant_poly()
    matches = display.eliminate_v3() == det_route.eliminate_v3()
    literal = display + (MultiPoly.letter("zb1") * MultiPoly.letter("zb2")
                         * MultiPoly.letter("zb3")).scale(_I + _I)
    return {
        "matches": matches,
        "display_is_real": display.is_real_on_su3(),
        "reading": "i (z1 z2 z3 - zb1 zb2 zb3) = -2 Im(z1 z2 z3)",
        "literal_reading_is_real": literal.is_real_on_su3(),
        "literal_reading_matches_determinant":
            literal.eliminate_v3() == det_route.eliminate_v3(),
    }


@functools.cache
def idet_poly() -> MultiPoly:
    """The displayed i det, after the dual-route comparison has run."""
    rep = idet_report()
    if not rep["matches"]:
        raise InternalConsistencyError(
            "the two routes to i det disagree: " + repr(rep))
    return idet_display_poly()


# ---------------------------------------------------------------------------
# The obstruction polynomial as a letter polynomial

CLOSED_COMPONENTS = (Fraction(210), Fraction(65, 6), Fraction(50, 3),
                     Fraction(100, 27))


def component_polys() -> tuple:
    """(s^3, s|x|^2, s|y|^2, R) as letter polynomials."""
    s = s_poly()
    return (s * s * s, s * x_norm_poly(), s * y_norm_poly(), r_poly())


def closed_p_poly(s3_coefficient: int = 210) -> MultiPoly:
    """The closed displayed polynomial with the chosen s^3 sign."""
    if s3_coefficient not in (210, -210):
        raise ScalarError("the displayed s^3 coefficient is +-210")
    coeffs = (Fraction(s3_coefficient),) + CLOSED_COMPONENTS[1:]
    s3, sx2, sy2, r = component_polys()
    out = MultiPoly.zero(3)
    for c, p in zip(coeffs, (s3, sx2, sy2, r)):
        out = out + p.scale(c)
    return out


def _coordinate_points():
    """The 120 probe points of the cubic interpolation: all singles,
    signed pairs and triples of the eight coordinate directions."""
    singles = [(i,) for i in range(8)]
    pairs = list(itertools.combinations(range(8), 2))
    triples = list(itertools.combinations(range(8), 3))
    return singles, pairs, triples


def _xi_from_coords(c: list) -> Su3Element:
    v1, v2 = c[0], c[1]
    return Su3Element((v1, v2, -v1 - v2), tuple(c[2:8]))


def interpolate_p_coefficients() -> dict:
    """Exact coefficients of P in the coordinates (v1, v2, x1..x6).

    A homogeneous cubic is pinned by its values on singles e_i, pairs
    e_i +- e_j and triples e_i + e_j + e_k of coordinate directions:
    120 evaluations in all.  Keys are sorted index triples.
    """
    def f(c):
        return first_principles_value(_xi_from_coords(c), single_route=True)

    singles, pairs, triples = _coordinate_points()
    coeff: dict[tuple, Fraction] = {}
    fs = {}
    for (i,) in singles:
        c = [Fraction(0)] * 8
        c[i] = Fraction(1)
        fs[i] = f(c)
        if fs[i] != 0:
            coeff[(i, i, i)] = fs[i]
    fpair = {}
    for i, j in pairs:
        c = [Fraction(0)] * 8
        c[i] = c[j] = Fraction(1)
        plus = f(c)
        c[j] = Fraction(-1)
        minus = f(c)
        fpair[(i, j)] = plus
        # f(ei + ej) = fi + fj + c_iij + c_ijj; f(ei - ej) = fi - fj - c_iij + c_ijj
        s_sum = plus - fs[i] - fs[j]
        d_sum = minus - fs[i] + fs[j]
        c_iij = (s_sum - d_sum) / 2
        c_ijj = (s_sum + d_sum) / 2
        if c_iij != 0:
            coeff[(i, i, j)] = c_iij
        if c_ijj != 0:
            coeff[(i, j, j)] = c_ijj
    for i, j, k in triples:
        c = [Fraction(0)] * 8
        c[i] = c[j] = c[k] = Fraction(1)
        val = (f(c) - fpair[(i, j)] - fpair[(i, k)] - fpair[(j, k)]
               + fs[i] + fs[j] + fs[k])
        if val != 0:
            coeff[(i, j, k)] = val
    return coeff


@functools.cache
def first_principles_p_poly() -> MultiPoly:
    """P as a letter polynomial, interpolated from exact evaluations.

    The coordinate coefficients are pushed through the x -> z
    dictionary, and the result is cross-checked against the fitted
    four-term model -210 s^3 + (55/2) s|x|^2 + (50/3) s|y|^2
    + (125/18) R; disagreement raises (it would mean the interpolation
    and the block fit cannot both be exact).
    """
    xp = x_letter_polys()
    coords = [MultiPoly.letter("v1"), MultiPoly.letter("v2")] + \
        [xp[f"x{k}"] for k in range(1, 7)]
    out = MultiPoly.zero(3)
    for (i, j, k), c in interpolate_p_coefficients().items():
        out = out + (coords[i] * coords[j] * coords[k]).scale(c)
    if not out.is_real_on_su3():
        raise InternalConsistencyError("interpolated P is not real-valued")
    c1, c2, c3, c4 = first_principles_fit()
    s3, sx2, sy2, r = component_polys()
    model = (s3.scale(c1) + sx2.scale(c2) + sy2.scale(c3) + r.scale(c4))
    if out.eliminate_v3() != model.eliminate_v3():
        raise InternalConsistencyError(
            "interpolated P does not match the fitted four-term model")
    return out


def p_poly(source: str) -> MultiPoly:
    """source is "closed-form" (the displayed +210 variant) or
    "first-principles" (the interpolated exact polynomial)."""
    if source == "closed-form":
        return closed_p_poly(210)
    if source == "first-principles":
        return first_principles_p_poly()
    raise ScalarError(f"unknown P source {source!r}")


# ---------------------------------------------------------------------------
# The pairing

COMPONENT_PAIRINGS = {"s3": Fraction(-4, 9), "sx2": Fraction(-8, 3),
                      "sy2": Fraction(4), "R": Fraction(24)}


def component_pairing_report() -> dict:
    """<s^3, i det>, <s|x|^2, i det>, <s|y|^2, i det>, <R, i det>,
    each computed by permanents and compared with its displayed value."""
    idet = idet_poly()
    names = ("s3", "sx2", "sy2", "R")
    out = {}
    for name, poly in zip(names, component_polys()):
        got = sym_inner_poly(poly, idet)
        if got.im != 0:
            raise InternalConsistencyError(f"<{name}, i det> is not real")
        out[name] = {"computed": got.re,
                     "display": COMPONENT_PAIRINGS[name],
                     "matches": got.re == COMPONENT_PAIRINGS[name]}
    return out


def final_pairing(source: str) -> Fraction:
    """<P, i det> for the chosen source of P; must come out real."""
    val = sym_inner_poly(p_poly(source), idet_poly())
    if val.im != 0:
        raise InternalConsistencyError("<P, i det> is not real")
    return val.re


def idet_self_pairing() -> Fraction:
    val = sym_inner_poly(idet_poly(), idet_poly())
    if val.im != 0 or val.re <= 0:
        raise InternalConsistencyError("<i det, i det> must be a positive "
                                       "rational")
    return val.re


def assembled_pairing(coefficients) -> Fraction:
    """The four-term assembly sum c_i <component_i, i det>."""
    comps = component_pairing_report()
    names = ("s3", "sx2", "sy2", "R")
    return sum((Fraction(c) * comps[n]["computed"]
                for c, n in zip(coefficients, names)), Fraction(0))


def pairing_report() -> dict:
    """The headline numbers: both sources, their component assembly,
    and the sign resolution vindicated by the exact computation."""
    from .aw import CLOSED_DISPLAY, closed_form_report
    closed = final_pairing("closed-form")
    first = final_pairing("first-principles")
    fitted = first_principles_fit()
    cf = closed_form_report()
    return {
        "closed_form_pairing": closed,
        "first_principles_pairing": first,
        "closed_form_assembly": assembled_pairing(CLOSED_DISPLAY),
        "first_principles_assembly": assembled_pairing(fitted),
        "sign_flip_only_assembly": assembled_pairing(
            (-CLOSED_DISPLAY[0],) + CLOSED_DISPLAY[1:]),
        "sign_resolution": cf["sign_resolution"],
        "components": {k: v["computed"]
                       for k, v in component_pairing_report().items()},
        "idet_self": idet_self_pairing(),
        "nonzero": first != 0,
    }


# ---------------------------------------------------------------------------
# Monte-Carlo: Haar conjugation average versus the projection formula

def _poly_evaluator(poly: MultiPoly):
    """Compile a MultiPoly into (index array, coefficient array) for
    batched numpy evaluation over the nine letter columns."""
    import numpy as np
    idx = []
    coefs = []
    order = {name: k for k, name in enumerate(LETTERS)}
    for mono, c in sorted(poly.terms.items()):
        idx.append([order[name] for name in mono])
        coefs.append(complex(c))
    return np.array(idx, dtype=np.int64), np.array(coefs, dtype=np.complex128)


def _letter_columns(mats):
    """Letter values for a batch of skew-hermitian matrices, stacked
    as columns in LETTERS order."""
    import numpy as np
    n = mats.shape[0]
    cols = np.empty((n, 9), dtype=np.complex128)
    for a in range(3):
        cols[:, a] = mats[:, a, a].imag
    cols[:, 3] = mats[:, 2, 1]
    cols[:, 4] = mats[:, 0, 2]
    cols[:, 5] = mats[:, 1, 0]
    cols[:, 6:9] = cols[:, 3:6].conj()
    return cols


def haar_su3(rng, count: int):
    """Haar-distributed SU(3) matrices: QR of a complex Gaussian with
    the phase correction that makes the factor unique, then a global
    det^(1/3) normalization."""
    import numpy as np
    g = (rng.standard_normal((count, 3, 3))
         + 1j * rng.standard_normal((count, 3, 3))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.einsum("nii->ni", r)
    q = q * (d / np.abs(d))[:, None, :]
    det = np.linalg.det(q)
    return q / np.exp(np.log(det) / 3.0)[:, None, None]


# Haar samples per batch; every batch has its own seeded stream, so a
# different size changes the Monte-Carlo values under a fixed seed
MC_BATCH = 100000


def haar_average_check(xi: Su3Element, samples: int, seed: int) -> dict:
    """E_g[P(g xi g^{-1})] by Haar sampling versus the projection
    (<P, i det>/<i det, i det>) i det(xi).

    Batches of MC_BATCH samples draw from independently seeded streams
    keyed by (seed, batch index), so the estimate is reproducible and
    independent of how batches are scheduled.
    """
    import numpy as np
    if samples < 10000:
        raise ScalarError("need at least 10^4 samples")
    poly = first_principles_p_poly()
    idx, coefs = _poly_evaluator(poly)
    xi_mat = np.array([[complex(c) for c in row]
                       for row in xi.matrix_entries()])

    total = 0.0
    total_sq = 0.0
    done = 0
    nbatch = 0
    while done < samples:
        take = min(MC_BATCH, samples - done)
        rng = np.random.default_rng([seed, nbatch])
        g = haar_su3(rng, take)
        conj = g @ xi_mat @ g.conj().transpose(0, 2, 1)
        cols = _letter_columns(conj)
        vals = (coefs * np.prod(cols[:, idx], axis=2)).sum(axis=1).real
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += take
        nbatch += 1

    empirical = total / samples
    variance = max(total_sq / samples - empirical * empirical, 0.0)
    std_error = (variance / samples) ** 0.5
    factor = final_pairing("first-principles") / idet_self_pairing()
    predicted = float(factor) * float(xi.i_det())
    denom = max(abs(predicted), 1e-12)
    return {
        "samples": samples,
        "seed": seed,
        "batches": nbatch,
        "empirical": empirical,
        "predicted": predicted,
        "relative_error": abs(empirical - predicted) / denom,
        "std_error": std_error,
    }
