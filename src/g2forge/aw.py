"""Homogeneous SU(3)/S1 block frame and the second-order obstruction
polynomial.

The tangent space splits as m3 + m4 = span(e1,e2,e3) + span(e4..e7).
The m4 block carries the quaternionic triple I1, I2, I3 (metric duals
of the anti-self-dual forms omega_a) and the complex structure J (dual
of the self-dual Omega).  An element xi of su(3) determines the blocks

    s = (v1 + v2)/2,
    y = ((v1 - v2)/2) e1 - x1 e2 + x2 e3,
    x = x3 e5 - x4 e4 + x5 e7 - x6 e6,

and the comparison 3-form

    A(xi) = s phitilde - (5/3) y ^ Omega + (sqrt(10)/6) C(x),

a pure-27 form whose cubic P(xi) = <p(A, A), i^{-1}(A)> is the
second-order obstruction polynomial.  P is evaluated along two exact
routes (native sqrt(10) arithmetic, and a rational even/odd split in
sqrt(10)) that must agree; the sqrt(10)-odd part must vanish.

The generic rational combination A_ = s phitilde + y ^ Omega + C(x) is
kept separate: its cubic expands into six displayed block products,
and the verification suite checks every display pointwise.  Four of
the six hold; the exact computation replaces "3|x|^2" by "33|x|^2"
and "-(3/2) R" by "-5 R", which full symmetry of the trilinear form
forces once the undisputed "33 s|x|^2 - 5R" product is granted.  The
generic sum is therefore -210 s^3 + s(99|x|^2 + 6|y|^2) - 15 R rather
than the displayed -210 s^3 + s(39|x|^2 + 6|y|^2) - 8 R, and the
closed polynomial the suite vindicates is

    P(xi) = -210 s^3 + (55/2) s|x|^2 + (50/3) s|y|^2 + (125/18) R.

Every verifier reports the displayed value, the computed value, and
the corrected closed form where the two differ.
"""

from __future__ import annotations

import functools
import itertools
import threading
from fractions import Fraction

from .exterior import Form, FormError, M4_MASK, blade, coords_of, contract, \
    hodge_m4, norm_sq, vector, vector_form, wedge
from .g2 import InternalConsistencyError, TypeDecompositionError, \
    standard_frame, two_form_endo
from .cubic import quadratic_form
from .linalg import Matrix, SymTensor, solve_exact, sym_inner
from .scalars import GaussRational, QuadExt, ScalarError

SQRT10_OVER_6 = QuadExt(0, Fraction(1, 6))


class AWFrame:
    """Block data of the reductive splitting, checked at construction."""

    def __init__(self):
        self.g2 = standard_frame()
        self.vol3 = blade([1, 2, 3])
        self.vol4 = blade([4, 5, 6, 7])
        self.omega = (blade([4, 5]) - blade([6, 7]),
                      blade([4, 6]) + blade([5, 7]),
                      blade([4, 7]) - blade([5, 6]))
        self.Omega = blade([4, 5]) + blade([6, 7])
        self.I = tuple(two_form_endo(w) for w in self.omega)
        self.J = two_form_endo(self.Omega)
        self.phi_tilde = self.g2.phi - 7 * self.vol3
        self._check_structure()

    def _check_structure(self):
        # phi = vol3 + sum_a e^a ^ omega_a ties the triple to the calibration
        rebuilt = self.vol3
        for a in range(3):
            rebuilt = rebuilt + wedge(vector(a + 1), self.omega[a])
        if rebuilt != self.g2.phi:
            raise InternalConsistencyError("block frame does not rebuild phi")
        # omega_a are anti-self-dual on the block, Omega is self-dual
        for w in self.omega:
            if hodge_m4(w) != -w:
                raise InternalConsistencyError("omega_a is not anti-self-dual")
        if hodge_m4(self.Omega) != self.Omega:
            raise InternalConsistencyError("Omega is not self-dual")
        # wedge table omega_a ^ omega_b = -2 delta_ab vol4
        for a in range(3):
            for b in range(3):
                want = -2 * self.vol4 if a == b else Form(4)
                if wedge(self.omega[a], self.omega[b]) != want:
                    raise InternalConsistencyError("omega wedge table broken")
        # quaternion relations on the block: I_a^2 = -id4, I1 I2 = -I3
        id4 = Matrix.diagonal([0, 0, 0, 1, 1, 1, 1])
        for A in self.I:
            if A * A != -id4:
                raise InternalConsistencyError("I_a^2 != -id on the block")
        if self.I[0] * self.I[1] != -self.I[2]:
            raise InternalConsistencyError("I1 I2 != -I3")
        if self.J * self.J != -id4:
            raise InternalConsistencyError("J^2 != -id on the block")

    def iy(self, y: Form) -> Matrix:
        """I_y = y1 I1 + y2 I2 + y3 I3 for a vector y in m3."""
        c = coords_of(y)
        if any(c[i] != 0 for i in range(3, 7)):
            raise FormError("y must lie in span(e1,e2,e3)")
        out = Matrix.zeros(7, 7)
        for a in range(3):
            if c[a] != 0:
                out = out + c[a] * self.I[a]
        return out


_aw_lock = threading.Lock()
_aw_frame = None


def standard_aw_frame() -> AWFrame:
    global _aw_frame
    if _aw_frame is None:
        with _aw_lock:
            if _aw_frame is None:
                _aw_frame = AWFrame()
    return _aw_frame


class Su3Element:
    """Element of su(3) in the coordinates (v1, v2, v3; x1..x6).

    The matrix is [[i v1, x1 + i x2, x3 + i x4],
                   [.,    i v2,      x5 + i x6],
                   [.,    .,         i v3]]
    filled in skew-hermitian, with v1 + v2 + v3 = 0 enforced.
    Coordinates are exact (int or Fraction); floats are rejected.
    """

    __slots__ = ("v", "x")

    def __init__(self, v, x):
        v = tuple(v)
        x = tuple(x)
        if len(v) != 3 or len(x) != 6:
            raise ScalarError("need 3 diagonal and 6 off-diagonal coordinates")
        if any(isinstance(c, (float, complex)) for c in v + x):
            raise ScalarError("su(3) coordinates must be exact, not float")
        if v[0] + v[1] + v[2] != 0:
            raise ScalarError("diagonal coordinates must sum to zero")
        self.v = v
        self.x = x

    def z_letters(self) -> tuple:
        """(z1, z2, z3) = (-x5 + i x6, x3 + i x4, -x1 + i x2)."""
        x = self.x
        return (GaussRational(-x[4], x[5]),
                GaussRational(x[2], x[3]),
                GaussRational(-x[0], x[1]))

    def matrix_entries(self) -> list[list]:
        """3x3 skew-hermitian entries as GaussRational values."""
        v, x = self.v, self.x
        num = GaussRational
        return [[num(0, v[0]), num(x[0], x[1]), num(x[2], x[3])],
                [num(-x[0], x[1]), num(0, v[1]), num(x[4], x[5])],
                [num(-x[2], x[3]), num(-x[4], x[5]), num(0, v[2])]]

    def i_det(self):
        """i * det(xi), real-valued on skew-hermitian traceless matrices."""
        m = self.matrix_entries()
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        val = GaussRational(0, 1) * det
        if val.im != 0:
            raise InternalConsistencyError("i det is not real")
        return val.re

    def to_json(self) -> dict:
        from .scalars import scalar_to_json
        return {"v": [scalar_to_json(Fraction(c)) for c in self.v],
                "x": [scalar_to_json(Fraction(c)) for c in self.x]}

    @classmethod
    def from_json(cls, data) -> "Su3Element":
        from .scalars import scalar_from_json
        if not isinstance(data, dict) or "v" not in data or "x" not in data:
            raise ScalarError("su(3) element JSON needs 'v' and 'x'")
        v = [scalar_from_json(c) for c in data["v"]]
        x = [scalar_from_json(c) for c in data["x"]]
        if any(isinstance(c, QuadExt) for c in v + x):
            raise ScalarError("su(3) coordinates must be rational")
        return cls(v, x)

    def __repr__(self):
        return f"Su3Element(v={self.v}, x={self.x})"


def decompose(xi: Su3Element):
    """Blocks (s, y, x) of xi: scalar, m3 vector, m4 vector."""
    v, c = xi.v, xi.x
    half = Fraction(1, 2)
    s = half * (v[0] + v[1])
    y = vector_form([half * (v[0] - v[1]), -c[0], c[1], 0, 0, 0, 0])
    x = vector_form([0, 0, 0, -c[3], c[2], -c[5], c[4]])
    return s, y, x


def c_of(x: Form) -> Form:
    """The cocycle block C(x) for a vector x in the m4 block.

    Two constructions are compared: x -| (4 vol4 - psi), and the display
    3 (x -| vol4) + e12 ^ (x -| omega3) + e23 ^ (x -| omega1)
    + e31 ^ (x -| omega2).
    """
    fr = standard_aw_frame()
    if x.grade != 1:
        raise FormError("C needs a vector")
    if x.support_mask() & ~M4_MASK:
        raise FormError("C needs a vector in span(e4..e7)")
    direct = contract(x, 4 * fr.vol4 - fr.g2.psi)
    e12, e23, e31 = blade([1, 2]), blade([2, 3]), -blade([1, 3])
    display = (3 * contract(x, fr.vol4)
               + wedge(e12, contract(x, fr.omega[2]))
               + wedge(e23, contract(x, fr.omega[0]))
               + wedge(e31, contract(x, fr.omega[1])))
    if direct != display:
        raise InternalConsistencyError("the two constructions of C disagree")
    return direct


def generic_blocks(s, y: Form, x: Form) -> Form:
    """The rational combination A_ = s phitilde + y ^ Omega + C(x)."""
    fr = standard_aw_frame()
    return s * fr.phi_tilde + wedge(y, fr.Omega) + c_of(x)


def comparison_form(xi: Su3Element) -> Form:
    """A(xi) = s phitilde - (5/3) y ^ Omega + (sqrt(10)/6) C(x).

    The coefficients live in Q(sqrt(10)).  The result is checked to be
    of pure 27 type.
    """
    fr = standard_aw_frame()
    s, y, x = decompose(xi)
    a = (s * fr.phi_tilde - Fraction(5, 3) * wedge(y, fr.Omega)
         + SQRT10_OVER_6 * c_of(x))
    p1, p7, _ = fr.g2.project3(a)
    if not p1.is_zero() or not p7.is_zero():
        raise TypeDecompositionError("comparison form is not of pure 27 type")
    return a


def _cubic_scalar(a: Form):
    """<p(a, a), i^{-1}(a)> for a pure-27 3-form (the normalization
    without the factor 2 used by the obstruction polynomial)."""
    S = standard_frame().iso_i_inv(a)
    return sym_inner(quadratic_form(a, a), S)


def first_principles_value(xi: Su3Element, *,
                           single_route: bool = False) -> Fraction:
    """P(xi) along two exact routes.

    Route one evaluates <p(A, A), i^{-1}(A)> natively in Q(sqrt(10)).
    Route two expands in powers of sqrt(10): with A = B + k C where
    k = sqrt(10)/6 and B, C rational, the cubic splits into a rational
    even part T0 + k^2 T2 and an odd part k (T1 + k^2 T3) which must
    vanish identically.  The two routes must agree; single_route skips
    the second one when the caller is doing a bulk interpolation sweep
    and verifies route agreement separately.
    """
    native = _cubic_scalar(comparison_form(xi))
    if isinstance(native, QuadExt):
        if native.irr != 0:
            raise InternalConsistencyError("P has a sqrt(10) component")
        native = native.rat
    native = Fraction(native)
    if single_route:
        return native

    fr = standard_aw_frame()
    s, y, x = decompose(xi)
    b_part = s * fr.phi_tilde - Fraction(5, 3) * wedge(y, fr.Omega)
    c_part = c_of(x)
    k2 = Fraction(5, 18)
    pbb = quadratic_form(b_part, b_part)
    pbc = quadratic_form(b_part, c_part)
    pcc = quadratic_form(c_part, c_part)
    sb = _rational_inv27(b_part)
    sc = _rational_inv27(c_part)
    t0 = sym_inner(pbb, sb)
    t1 = 2 * sym_inner(pbc, sb) + sym_inner(pbb, sc)
    t2 = sym_inner(pcc, sb) + 2 * sym_inner(pbc, sc)
    t3 = sym_inner(pcc, sc)
    odd = t1 + k2 * t3
    if odd != 0:
        raise InternalConsistencyError("sqrt(10)-odd part of P does not vanish")
    even = Fraction(t0 + k2 * t2)
    if even != native:
        raise InternalConsistencyError("the two routes to P disagree")
    return native


def _rational_inv27(a: Form) -> SymTensor:
    """i^{-1} for a rational form known to be a block combination; the
    1- and 7-type checks still run inside iso_i_inv."""
    return standard_frame().iso_i_inv(a)


def generic_value(s, y: Form, x: Form) -> Fraction:
    """The cubic of the generic rational combination A_ = s phitilde
    + y ^ Omega + C(x)."""
    return Fraction(_cubic_scalar(generic_blocks(s, y, x)))


def r_value(y: Form, x: Form):
    """The mixed cubic R = g(Jx, I_y x), compared against its
    coordinate display before being returned."""
    fr = standard_aw_frame()
    xc = coords_of(x)
    if any(xc[i] != 0 for i in range(3)):
        raise FormError("x must lie in span(e4..e7)")
    jx = fr.J.apply(xc)
    iyx = fr.iy(y).apply(xc)
    metric_route = sum(a * b for a, b in zip(jx, iyx))

    y1, y2, y3 = coords_of(y)[:3]
    # m4 placement: x = x3 e5 - x4 e4 + x5 e7 - x6 e6
    x3, x4, x5, x6 = xc[4], -xc[3], xc[6], -xc[5]
    display = (y1 * (x3 * x3 + x4 * x4 - x5 * x5 - x6 * x6)
               + 2 * y2 * (-x3 * x6 + x4 * x5)
               + 2 * y3 * (x3 * x5 + x4 * x6))
    if metric_route != display:
        raise InternalConsistencyError("R display disagrees with g(Jx, I_y x)")
    return metric_route


def closed_display_value(xi: Su3Element, s3_coefficient: int):
    """The closed displayed polynomial in the xi coordinates,

        s3_coefficient s^3 + (65/6) s |x|^2 + (50/3) s |y|^2 + (100/27) R,

    with s3_coefficient one of +-210 (the two displayed variants)."""
    if s3_coefficient not in (210, -210):
        raise ValueError("the displayed s^3 coefficient is +-210")
    v, c = xi.v, xi.x
    half = Fraction(1, 2)
    s = half * (v[0] + v[1])
    d = half * (v[0] - v[1])
    x_sq = c[2] ** 2 + c[3] ** 2 + c[4] ** 2 + c[5] ** 2
    y_sq = d * d + c[0] ** 2 + c[1] ** 2
    r = (d * (c[2] ** 2 + c[3] ** 2 - c[4] ** 2 - c[5] ** 2)
         - 2 * c[0] * (-c[2] * c[5] + c[3] * c[4])
         + 2 * c[1] * (c[2] * c[4] + c[3] * c[5]))
    return (s3_coefficient * s ** 3 + Fraction(65, 6) * s * x_sq
            + Fraction(50, 3) * s * y_sq + Fraction(100, 27) * r)


def block_products(s, y: Form, x: Form, tables=None) -> list[dict]:
    """The six displayed products <p(block, block), i^{-1}(A_)> of the
    generic combination, evaluated and compared with their displays.

    Returns one record per product with the computed and displayed
    values; the multiplicity column is the coefficient each product
    carries in the full expansion of P(A_).  Pass a block table to
    assemble the values multilinearly instead of running the solver.
    """
    fr = standard_aw_frame()
    if tables is not None:
        got6 = tables.products(s, y, x)
        full = tables.cubic(s, y, x)
    else:
        yw = wedge(y, fr.Omega)
        cx = c_of(x)
        a_ = s * fr.phi_tilde + yw + cx
        S = fr.g2.iso_i_inv(a_)
        pt = fr.phi_tilde
        got6 = tuple(sym_inner(quadratic_form(b1, b2), S)
                     for b1, b2 in ((pt, pt), (pt, yw), (pt, cx),
                                    (yw, yw), (yw, cx), (cx, cx)))
        full = _cubic_scalar(a_)
    r = r_value(y, x)
    xx, yy = norm_sq(x), norm_sq(y)
    # display column: the six values as displayed; corrected column: the
    # value the exact computation gives in closed form, where it differs.
    # Full symmetry of the trilinear form ties the corrected entries to
    # the undisputed "33 s|x|^2 - 5 R" row: the same arrangement-swapped
    # pairings must produce 33|x|^2 and -5R again.
    rows = [
        ("p(phitilde, phitilde)", -210 * s, None, s * s),
        ("p(phitilde, y^Omega)", 2 * yy, None, 2 * s),
        ("p(phitilde, C(x))", 3 * xx, 33 * xx, 2 * s),
        ("p(y^Omega, y^Omega)", 2 * s * yy, None, 1),
        ("p(y^Omega, C(x))", -Fraction(3, 2) * r, -5 * r, 2),
        ("p(C(x), C(x))", 33 * s * xx - 5 * r, None, 1),
    ]
    out = []
    total = 0
    for (name, display, corrected, mult), got in zip(rows, got6):
        total += mult * got
        rec = {"product": name, "computed": got, "display": display,
               "multiplicity": mult, "matches": got == display}
        if corrected is not None:
            rec["corrected"] = corrected
            rec["corrected_matches"] = got == corrected
        out.append(rec)
    out.append({"product": "sum with multiplicities", "computed": total,
                "display": full, "multiplicity": 1, "matches": total == full})
    return out


def _epsilon_mix(y: Form, x: Form) -> SymTensor:
    """sum_{abc} eps_{abc} y_a e_c . (I_b J x), the second equivariant
    bilinear map from (m3, m4) into the off-diagonal symmetric block.
    J commutes with each I_a, so the composite is unambiguous."""
    fr = standard_aw_frame()
    yc = coords_of(y)
    jx = fr.J.apply(coords_of(x))
    out = SymTensor.zero(7)
    eps = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for a, b, c in eps:
        if yc[a] != 0:
            ec = coords_of(vector(c + 1))
            out = out + SymTensor.sym_outer(ec, fr.I[b].apply(jx)).scale(yc[a])
        if yc[b] != 0:
            ec = coords_of(vector(c + 1))
            out = out - SymTensor.sym_outer(ec, fr.I[a].apply(jx)).scale(yc[b])
    return out


def tensor_displays(y: Form, x: Form) -> list[dict]:
    """The displayed closed forms of the block tensors: five p(., .)
    displays and three i^{-1} displays, evaluated at the given (y, x).

    Three of the eight displays fail as stated; for those the record
    also carries the corrected closed form that the exact computation
    vindicates, verified alongside the display.  The corrections are
    forced: pairing i(S) against itself must give 2|S|^2, which pins
    i^{-1}(C) at -2 e_a . I_a x, and the full symmetry of the trilinear
    form then pins the p(., C) rows.
    """
    fr = standard_aw_frame()
    g2 = fr.g2
    pt = fr.phi_tilde
    yw = wedge(y, fr.Omega)
    cx = c_of(x)
    xc = coords_of(x)
    yc = coords_of(y)

    id3 = SymTensor.diag([1, 1, 1, 0, 0, 0, 0])
    id4 = SymTensor.diag([0, 0, 0, 1, 1, 1, 1])
    e_basis = [coords_of(vector(a + 1)) for a in range(3)]
    iax = [fr.I[a].apply(xc) for a in range(3)]
    jx = fr.J.apply(xc)
    jiy = fr.J * fr.iy(y)
    jiy_sym = SymTensor(jiy.to_rows())

    sum_ia = SymTensor.zero(7)
    for a in range(3):
        sum_ia = sum_ia + SymTensor.sym_outer(iax[a], e_basis[a])
    xx = norm_sq(x)
    x_outer = SymTensor([[xc[i] * xc[j] for j in range(7)] for i in range(7)])

    checks = []

    def add(name, got, want, corrected=None, corrected_name=None):
        rec = {"identity": name, "computed": got, "display": want,
               "matches": got == want}
        if corrected is not None:
            rec["corrected"] = corrected_name
            rec["corrected_matches"] = got == corrected
        checks.append(rec)

    add("p(phitilde, phitilde) = 38 id3 + 3 id4",
        quadratic_form(pt, pt), id3.scale(38) + id4.scale(3))
    add("p(phitilde, y^Omega) = -J I_y",
        quadratic_form(pt, yw), -jiy_sym)
    add("p(phitilde, C(x)) = -4 I_a x . e_a",
        quadratic_form(pt, cx), sum_ia.scale(-4),
        corrected=sum_ia.scale(-11),
        corrected_name="p(phitilde, C(x)) = -11 I_a x . e_a")
    add("p(y^Omega, C(x)) = 6 y . Jx",
        quadratic_form(yw, cx), SymTensor.sym_outer(yc, jx).scale(6),
        corrected=SymTensor.sym_outer(yc, jx).scale(3) + _epsilon_mix(y, x),
        corrected_name="p(y^Omega, C(x)) = 3 y . Jx"
                       " + eps_abc y_a e_c . I_b J x")
    add("p(C(x), C(x)) = 2|x|^2 id3 + 10(|x|^2 id4 - x(x)x)",
        quadratic_form(cx, cx),
        id3.scale(2 * xx) + (id4.scale(xx) - x_outer).scale(10))
    add("i^{-1}(phitilde) = -2 id3 + (3/2) id4",
        g2.iso_i_inv(pt), id3.scale(-2) + id4.scale(Fraction(3, 2)))
    add("i^{-1}(y^Omega) = -(1/2) J I_y",
        g2.iso_i_inv(yw), jiy_sym.scale(Fraction(-1, 2)))
    add("i^{-1}(C(x)) = -(1/2) e_a . I_a x",
        g2.iso_i_inv(cx), sum_ia.scale(Fraction(-1, 2)),
        corrected=sum_ia.scale(-2),
        corrected_name="i^{-1}(C(x)) = -2 e_a . I_a x")
    return checks


def principal_lattice(nvars: int, degree: int, homogeneous: bool = False):
    """Integer points with coordinate sum <= degree (or == degree)."""
    for total in ([degree] if homogeneous else range(degree + 1)):
        for cut in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            point = []
            for c in cut:
                point.append(c - prev - 1)
                prev = c
            point.append(total + nvars - 2 - prev)
            yield tuple(point)


def _lattice_blocks(point):
    s = point[0]
    y = vector_form([point[1], point[2], point[3], 0, 0, 0, 0])
    x = vector_form([0, 0, 0, point[4], point[5], point[6], point[7]])
    return s, y, x


def _random_blocks(rng, bound=4):
    s = Fraction(rng.randint(-bound, bound))
    y = vector_form([Fraction(rng.randint(-bound, bound)) for _ in range(3)]
                    + [0, 0, 0, 0])
    x = vector_form([0, 0, 0] + [Fraction(rng.randint(-bound, bound))
                                 for _ in range(4)])
    return s, y, x


def verify_tensor_displays(rng, n_random: int = 50) -> list[dict]:
    """Check the eight displayed block tensors on a degree-2 lattice in
    (y, x) plus seeded random points.  Returns one summary per display."""
    tallies: dict[str, bool] = {}
    corrected: dict[str, bool] = {}

    def absorb(chk):
        name = chk["identity"]
        tallies[name] = tallies.get(name, True) and chk["matches"]
        if "corrected_matches" in chk:
            corrected[name] = (corrected.get(name, True)
                               and chk["corrected_matches"])

    points = [p[1:] for p in principal_lattice(8, 2) if p[0] == 0]
    for pt in points:
        _, y, x = _lattice_blocks((0,) + tuple(pt))
        for chk in tensor_displays(y, x):
            absorb(chk)
    for _ in range(n_random):
        _, y, x = _random_blocks(rng)
        for chk in tensor_displays(y, x):
            absorb(chk)
    out = []
    for k, v in tallies.items():
        rec = {"identity": k, "matches": v}
        if k in corrected:
            rec["corrected_matches"] = corrected[k]
        out.append(rec)
    return out


def verify_block_products(rng, n_random: int = 50) -> list[dict]:
    """Check the six displayed products (and their weighted sum) as
    polynomial identities: a full degree-3 principal lattice in the
    eight block coordinates, then seeded random points."""
    tab = block_tables()
    tallies: dict[str, bool] = {}
    corrected: dict[str, bool] = {}

    def absorb(row):
        name = row["product"]
        tallies[name] = tallies.get(name, True) and row["matches"]
        if "corrected_matches" in row:
            corrected[name] = (corrected.get(name, True)
                               and row["corrected_matches"])

    for point in principal_lattice(8, 3, homogeneous=True):
        s, y, x = _lattice_blocks(point)
        for row in block_products(s, y, x, tables=tab):
            absorb(row)
    # random points take the direct solver route, independent of the table
    for _ in range(n_random):
        s, y, x = _random_blocks(rng)
        for row in block_products(s, y, x):
            absorb(row)
    out = []
    for k, v in tallies.items():
        rec = {"product": k, "matches": v}
        if k in corrected:
            rec["corrected_matches"] = corrected[k]
        out.append(rec)
    return out


class _BlockTables:
    """Basis tensors of the block data, built once per process.

    p is bilinear and i^{-1} linear, so every block value over the
    lattice assembles multilinearly from p on pairs of basis forms
    (phitilde, e_a ^ Omega, C(e_i)) and i^{-1} on each; sweeps then
    cost small exact arithmetic instead of a solver run per point.
    The assembly is cross-checked against the direct route at probe
    points when the table is built.
    """

    def __init__(self):
        fr = standard_aw_frame()
        pt = fr.phi_tilde
        yws = [wedge(vector(a + 1), fr.Omega) for a in range(3)]
        cxs = [c_of(vector(i + 4)) for i in range(4)]
        self.pp = quadratic_form(pt, pt)
        self.py = [quadratic_form(pt, w) for w in yws]
        self.pc = [quadratic_form(pt, c) for c in cxs]
        self.yy = [[quadratic_form(yws[a], yws[b]) for b in range(3)]
                   for a in range(3)]
        self.yc = [[quadratic_form(yws[a], cxs[i]) for i in range(4)]
                   for a in range(3)]
        self.cc = [[quadratic_form(cxs[i], cxs[j]) for j in range(4)]
                   for i in range(4)]
        inv = fr.g2.iso_i_inv
        self.inv_p = inv(pt)
        self.inv_y = [inv(w) for w in yws]
        self.inv_c = [inv(c) for c in cxs]
        for s, yc, xc in ((1, (1, 0, 0), (0, 1, 0, 0)),
                          (2, (0, 1, -1), (1, 0, 0, 1))):
            y = vector_form(list(yc) + [0, 0, 0, 0])
            x = vector_form([0, 0, 0] + list(xc))
            if self.cubic(s, y, x) != generic_value(s, y, x):
                raise InternalConsistencyError(
                    "table assembly disagrees with the direct route")

    @staticmethod
    def _coords(y: Form, x: Form):
        return coords_of(y)[:3], coords_of(x)[3:7]

    def p_big(self, s, yc, xc) -> SymTensor:
        """p(A_, A_) for A_ = s phitilde + y^Omega + C(x)."""
        out = self.pp.scale(s * s)
        for a in range(3):
            if yc[a]:
                out = out + self.py[a].scale(2 * s * yc[a])
        for i in range(4):
            if xc[i]:
                out = out + self.pc[i].scale(2 * s * xc[i])
        out = out + self.p_yy(yc) + self.p_yc(yc, xc).scale(2) + self.p_cc(xc)
        return out

    def p_yy(self, yc) -> SymTensor:
        out = SymTensor.zero(7)
        for a in range(3):
            for b in range(3):
                if yc[a] and yc[b]:
                    out = out + self.yy[a][b].scale(yc[a] * yc[b])
        return out

    def p_yc(self, yc, xc) -> SymTensor:
        out = SymTensor.zero(7)
        for a in range(3):
            for i in range(4):
                if yc[a] and xc[i]:
                    out = out + self.yc[a][i].scale(yc[a] * xc[i])
        return out

    def p_cc(self, xc) -> SymTensor:
        out = SymTensor.zero(7)
        for i in range(4):
            for j in range(4):
                if xc[i] and xc[j]:
                    out = out + self.cc[i][j].scale(xc[i] * xc[j])
        return out

    def p_py(self, yc) -> SymTensor:
        out = SymTensor.zero(7)
        for a in range(3):
            if yc[a]:
                out = out + self.py[a].scale(yc[a])
        return out

    def p_pc(self, xc) -> SymTensor:
        out = SymTensor.zero(7)
        for i in range(4):
            if xc[i]:
                out = out + self.pc[i].scale(xc[i])
        return out

    def inv_parts(self, s, yc, xc):
        """i^{-1} of the rational part s phitilde + y^Omega, and of C(x)."""
        rat = self.inv_p.scale(s)
        for a in range(3):
            if yc[a]:
                rat = rat + self.inv_y[a].scale(yc[a])
        cpart = SymTensor.zero(7)
        for i in range(4):
            if xc[i]:
                cpart = cpart + self.inv_c[i].scale(xc[i])
        return rat, cpart

    def cubic(self, s, y: Form, x: Form):
        """<p(A_, A_), i^{-1}(A_)> assembled from the tables."""
        yc, xc = self._coords(y, x)
        rat, cpart = self.inv_parts(s, yc, xc)
        return sym_inner(self.p_big(s, yc, xc), rat + cpart)

    def products(self, s, y: Form, x: Form):
        """The six block products against i^{-1}(A_), in display order."""
        yc, xc = self._coords(y, x)
        rat, cpart = self.inv_parts(s, yc, xc)
        inv_full = rat + cpart
        return (sym_inner(self.pp, inv_full),
                sym_inner(self.p_py(yc), inv_full),
                sym_inner(self.p_pc(xc), inv_full),
                sym_inner(self.p_yy(yc), inv_full),
                sym_inner(self.p_yc(yc, xc), inv_full),
                sym_inner(self.p_cc(xc), inv_full))

    def fp_value(self, s, y: Form, x: Form) -> Fraction:
        """P(xi) for the blocks (s, y, x) of xi, through the even/odd
        split in k = sqrt(10)/6: the rational part is B = s phitilde
        - (5/3) y^Omega and the k-coefficient part is C(x); the k-odd
        combination must cancel."""
        yc = [Fraction(-5, 3) * c for c in coords_of(y)[:3]]
        xc = coords_of(x)[3:7]
        zero4 = (0, 0, 0, 0)
        zero3 = (0, 0, 0)
        pbb = (self.pp.scale(s * s) + self.p_py(yc).scale(2 * s)
               + self.p_yy(yc))
        pbc = self.p_pc(xc).scale(s) + self.p_yc(yc, xc)
        pcc = self.p_cc(xc)
        sb, _ = self.inv_parts(s, yc, zero4)
        _, sc = self.inv_parts(0, zero3, xc)
        t0 = sym_inner(pbb, sb)
        t1 = 2 * sym_inner(pbc, sb) + sym_inner(pbb, sc)
        t2 = sym_inner(pcc, sb) + 2 * sym_inner(pbc, sc)
        t3 = sym_inner(pcc, sc)
        k2 = Fraction(5, 18)
        if t1 + k2 * t3 != 0:
            raise InternalConsistencyError(
                "sqrt(10)-odd part of the assembled P does not vanish")
        return Fraction(t0 + k2 * t2)


@functools.cache
def block_tables() -> _BlockTables:
    return _BlockTables()


@functools.cache
def fit_block_cubic() -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The generic block cubic <p(A_, A_), i^{-1}(A_)> fitted over the
    model (s^3, s|x|^2, s|y|^2, R); see _fit_model."""
    return _fit_model(block_tables().cubic)


def _fit_model(fn) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact coefficients (c1, c2, c3, c4) of the block cubic fn in the
    model

        c1 s^3 + c2 s|x|^2 + c3 s|y|^2 + c4 R(y, x),

    fitted at four probe points and then verified to reproduce the cubic
    exactly on the full degree-3 lattice.  Four is enough because the
    model functions are linearly independent; the lattice sweep is what
    certifies that the cubic actually lies in the span (an
    internal-inconsistency error otherwise).
    """
    probes = [(1, (0, 0, 0), (0, 0, 0, 0)),
              (1, (0, 0, 0), (1, 0, 0, 0)),
              (1, (1, 0, 0), (0, 0, 0, 0)),
              (0, (1, 0, 0), (1, 1, 0, 0))]
    rows = []
    rhs = []
    for s, yc, xc in probes:
        y = vector_form(list(yc) + [0, 0, 0, 0])
        x = vector_form([0, 0, 0] + list(xc))
        rows.append([Fraction(s) ** 3, s * norm_sq(x), s * norm_sq(y),
                     Fraction(r_value(y, x))])
        rhs.append(Fraction(fn(s, y, x)))
    sol, kdim = solve_exact(Matrix.from_rows(rows), rhs)
    if kdim != 0:
        raise InternalConsistencyError("cubic probe points are degenerate")
    c1, c2, c3, c4 = sol
    # the cubic is jointly homogeneous in (s, y, x), so the degree-3
    # slice of the lattice (120 points, the unisolvent count for cubics
    # in eight variables) certifies the identity everywhere
    for point in principal_lattice(8, 3, homogeneous=True):
        s, y, x = _lattice_blocks(point)
        model = (c1 * Fraction(s) ** 3 + c2 * s * norm_sq(x)
                 + c3 * s * norm_sq(y) + c4 * r_value(y, x))
        if model != fn(s, y, x):
            raise InternalConsistencyError(
                "block cubic is not spanned by s^3, s|x|^2, s|y|^2, R")
    return c1, c2, c3, c4


@functools.cache
def first_principles_fit() -> tuple:
    """Coefficients of P(xi) over the model (s^3, s|x|^2, s|y|^2, R).

    Two derivations that must agree: fit the generic block cubic and
    push it through the reparametrization y -> -(5/3) y,
    x -> (sqrt(10)/6) x (which scales the model coefficients by
    1, 5/18, 25/9, -25/54), or fit P itself on su(3) elements directly.
    """
    c1, c2, c3, c4 = fit_block_cubic()
    pushed = (c1, c2 * Fraction(5, 18), c3 * Fraction(25, 9),
              c4 * Fraction(-25, 54))
    tab = block_tables()

    def p_of_blocks(s, y, x):
        yc, xc = coords_of(y), coords_of(x)
        xi = Su3Element(
            (s + yc[0], s - yc[0], -2 * s),
            (-yc[1], yc[2], xc[4], -xc[3], xc[6], -xc[5]))
        return first_principles_value(xi, single_route=True)

    # certify the table assembly of P against the full evaluator at a
    # generic point, then fit P through the table
    py, px = vector_form([1, -1, 2] + [0] * 4), vector_form([0, 0, 0, 1, 0, 1, -1])
    if tab.fp_value(1, py, px) != p_of_blocks(1, py, px):
        raise InternalConsistencyError(
            "assembled P disagrees with the full evaluator")
    direct = _fit_model(tab.fp_value)
    if direct != pushed:
        raise InternalConsistencyError(
            "reverted block fit and direct fit of P disagree")
    return direct


INTERMEDIATE_DISPLAY = (Fraction(-210), Fraction(39), Fraction(6), Fraction(-8))
CLOSED_DISPLAY = (Fraction(210), Fraction(65, 6), Fraction(50, 3),
                  Fraction(100, 27))


def intermediate_display_report() -> dict:
    """Fit the generic block cubic and compare with the displayed
    -210 s^3 + s(39|x|^2 + 6|y|^2) - 8R term by term."""
    fitted = fit_block_cubic()
    names = ("s^3", "s|x|^2", "s|y|^2", "R")
    terms = {n: {"display": d, "computed": c, "matches": d == c}
             for n, d, c in zip(names, INTERMEDIATE_DISPLAY, fitted)}
    return {"terms": terms,
            "matches": fitted == INTERMEDIATE_DISPLAY,
            "computed": fitted}


def closed_form_report() -> dict:
    """Compare the first-principles P(xi) with the closed displayed
    polynomial, term by term over the model (s^3, s|x|^2, s|y|^2, R).

    The two displayed variants differ only in the sign of the s^3 term
    (the closed display carries +210, the intermediate one -210); the
    report records which sign the exact computation vindicates and the
    full constant-coefficient correction that makes the closed display
    identical to the first-principles polynomial.
    """
    fitted = first_principles_fit()
    names = ("s^3", "s|x|^2", "s|y|^2", "R")
    terms = {n: {"display": d, "computed": c, "matches": d == c}
             for n, d, c in zip(names, CLOSED_DISPLAY, fitted)}
    sign = "intermediate-display" if fitted[0] < 0 else "final-display"
    return {"terms": terms,
            "sign_resolution": sign,
            "matches": fitted == CLOSED_DISPLAY,
            "computed": fitted}


def verify_intermediate_display(rng, n_random: int = 50) -> dict:
    """The displayed generic sum checked as a polynomial identity, with
    the exact fitted coefficients reported alongside.  Random points
    re-verify the fitted model away from the lattice."""
    report = intermediate_display_report()
    c1, c2, c3, c4 = report["computed"]
    ok = True
    for _ in range(n_random):
        s, y, x = _random_blocks(rng)
        model = (c1 * Fraction(s) ** 3 + c2 * s * norm_sq(x)
                 + c3 * s * norm_sq(y) + c4 * r_value(y, x))
        ok = ok and model == generic_value(s, y, x)
    report["fitted_model_holds_on_random_points"] = ok
    return report
