"""Reference implementations that the tests check g2forge against.

The dense projector matrices of the type splits, built from the spanning
forms as sum_w |w><w| / <w, w> (on Lambda^2 from the minimal polynomial
of a |-> *(phi ^ a), which also gives its two eigenvalues), the
scalar-generic kernels as they ran before the kernels cleared
denominators (every product in the coefficients' own type, with the
Fraction constants applied where they arise), the cubic scalars q2, Q
and P composed from those kernels, the comparison form A(xi) as one
Form over Q(sqrt(10)) and the term-by-term even/odd split of its cubic,
the su(3) letter map and its inverse written out by hand, with the
four component polynomials s^3, s|x|^2, s|y|^2 and R, the six-pass
even/odd numerator of the block table, the aw suite's tensor displays
and block products on Fraction tensors (J I_y and R from Matrix
products rebuilt at each point), the dense Haar Monte Carlo as
it ran before it was split into cache-sized chunks of column arrays,
the sign of a merged blade by counting inversions, the derived action
as the seven wedges it was before it ran in one pass,
and the few matrix and polynomial operations that only the tests use.
None of this runs in the package; each is the independent side of a
test.
"""

import functools
from fractions import Fraction
from math import isqrt

from g2forge import aw, cubic, exterior as ext, pairing
from g2forge.exterior import BLADES_BY_GRADE, Form, contract, hodge, inner, \
    norm_sq, vector, vector_form, vol_coefficient, wedge
from g2forge.g2 import InternalConsistencyError, standard_frame, star_action
from g2forge.linalg import InconsistentSystemError, Matrix, SymTensor, \
    solve_exact, upper_inner
from g2forge.scalars import GaussRational, QuadExt

# sqrt(10) in Q(sqrt(10)), which no package code reads as a constant
SQRT10 = QuadExt(0, 1)

# the (i, j) of each entry of a flat upper triangle, row i from the
# diagonal on, stated here rather than read from linalg
UPPER = [(i, j) for i in range(7) for j in range(i, 7)]


# -- matrices and letter polynomials ---------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [0] * (rows * cols))


def transpose(M: Matrix) -> Matrix:
    return Matrix(M.cols, M.rows,
                  [M.at(i, j) for j in range(M.cols) for i in range(M.rows)])


def trace(M: Matrix):
    if M.rows != M.cols:
        raise ValueError("trace of a non-square matrix")
    return sum(M.at(i, i) for i in range(M.rows))


def matrix_combination(*terms) -> Matrix:
    """sum c M over the (c, M) pairs, matrices of one shape, entry by
    entry on their flat entries."""
    rows, cols = terms[0][1].rows, terms[0][1].cols
    if any((M.rows, M.cols) != (rows, cols) for _, M in terms):
        raise ValueError("shape mismatch")
    return Matrix(rows, cols, [sum(c * M.entries[k] for c, M in terms)
                               for k in range(rows * cols)])


def sym_combination(*terms) -> SymTensor:
    """sum c S over the (c, S) pairs of symmetric tensors, entry by entry
    on their flat upper triangles."""
    return SymTensor.from_upper([sum(c * S.upper[k] for c, S in terms)
                                 for k in range(len(UPPER))])


def gauss_jordan(rows: list[list], width: int, track: list[int]) -> list:
    """Reduced row echelon over Q, in place, on the first width columns:
    each pivot row is multiplied by the Fraction inverse of its pivot
    and its column cleared in every other row.  track carries the
    original row indices through the swaps.  Returns the (row, col)
    pivot positions.  The package's elimination before it went
    fraction-free; the oracle of linalg.rank and linalg.solve_exact."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        # the first nonzero entry at or below row r is the pivot
        best = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        track[r], track[best] = track[best], track[r]
        # an int pivot gets a Fraction inverse, since true division of
        # ints is float
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def gauss_jordan_rank(A: Matrix) -> int:
    return len(gauss_jordan(A.to_rows(), A.cols, list(range(A.rows))))


def gauss_jordan_solve(A: Matrix, b) -> tuple[list, int]:
    """(x, kernel_dim) of A x = b off the reduced rows, the free unknowns
    the int 0; raises InconsistentSystemError naming the original row of
    the first non-pivot row that reduces to 0 = nonzero."""
    rows = [A.row(i) + [b[i]] for i in range(A.rows)]
    track = list(range(A.rows))
    pivots = gauss_jordan(rows, A.cols, track)
    pivot_rows = {r for r, _ in pivots}
    for i in range(A.rows):
        if i not in pivot_rows and rows[i][A.cols] != 0:
            raise InconsistentSystemError(track[i])
    x = [0] * A.cols
    for r, c in pivots:
        x[c] = rows[r][A.cols]
    return x, A.cols - len(pivots)


def solve_over_q10(A: Matrix, b) -> tuple[list, int]:
    """solve_exact for a right-hand side that may hold QuadExt entries:
    by linearity its rational and sqrt(10) parts are solved as two
    rational systems and x = x_rat + sqrt(10) x_irr, every entry a
    QuadExt.  A rational b is solved as it is."""
    if not any(isinstance(c, QuadExt) for c in b):
        return solve_exact(A, b)
    parts = [(c.rat, c.irr) if isinstance(c, QuadExt) else (c, 0) for c in b]
    (xr, kernel_dim), (xi, _) = (solve_exact(A, list(p)) for p in zip(*parts))
    return [r + SQRT10 * i for r, i in zip(xr, xi)], kernel_dim


def evaluate(poly, values: dict) -> GaussRational:
    """A letter polynomial at exact letter values, as a GaussRational."""
    total = GaussRational(0, 0)
    for mono, c in poly.terms.items():
        prod = c
        for name in mono:
            prod = prod * values[name]
        total = total + prod
    return total


# -- the su(3) letter map, written out by hand ------------------------------

def z_letters(xi) -> tuple:
    """(z1, z2, z3) = (-x5 + i x6, x3 + i x4, -x1 + i x2)."""
    x = xi.x
    return (GaussRational(-x[4], x[5]), GaussRational(x[2], x[3]),
            GaussRational(-x[0], x[1]))


def letter_rows() -> dict:
    """Each letter's coefficients on (v1, v2, x1..x6)."""
    i = GaussRational(0, 1)
    rows = {"v1": [1, 0] + [0] * 6, "v2": [0, 1] + [0] * 6,
            "v3": [-1, -1] + [0] * 6}
    zrows = {"z1": {"x5": -1, "x6": i}, "z2": {"x3": 1, "x4": i},
             "z3": {"x1": -1, "x2": i}}
    xs = [f"x{k}" for k in range(1, 7)]
    for name, combo in zrows.items():
        rows[name] = [0, 0] + [combo.get(x, 0) for x in xs]
        rows["zb" + name[1:]] = [0, 0] + [combo.get(x, 0).conjugate()
                                          for x in xs]
    return rows


def _half(name_plus: str, name_minus: str, imag: bool):
    plus = pairing.MultiPoly.letter(name_plus)
    minus = pairing.MultiPoly.letter(name_minus)
    if imag:
        # (z - zb)/(2i) = -(i/2)(z - zb)
        return GaussRational(0, Fraction(-1, 2)) * (plus - minus)
    return Fraction(1, 2) * (plus + minus)


def x_letter_polys() -> dict:
    """x1..x6 as z-polynomials, solved by hand from the map above."""
    return {
        "x1": -1 * _half("z3", "zb3", False),
        "x2": _half("z3", "zb3", True),
        "x3": _half("z2", "zb2", False),
        "x4": _half("z2", "zb2", True),
        "x5": -1 * _half("z1", "zb1", False),
        "x6": _half("z1", "zb1", True),
    }


_letter = pairing.MultiPoly.letter


def s_poly():
    return Fraction(1, 2) * (_letter("v1") + _letter("v2"))


def x_norm_poly():
    """|x|^2 = |z1|^2 + |z2|^2."""
    return _letter("z1") * _letter("zb1") + _letter("z2") * _letter("zb2")


def y_norm_poly():
    """|y|^2 = ((v1 - v2)/2)^2 + |z3|^2."""
    d = Fraction(1, 2) * (_letter("v1") - _letter("v2"))
    return d * d + _letter("z3") * _letter("zb3")


def r_poly():
    """R in letters, from the coordinate display

        R = (v1-v2)/2 (x3^2 + x4^2 - x5^2 - x6^2)
            - 2 x1 (-x3 x6 + x4 x5) + 2 x2 (x3 x5 + x4 x6),

    pushed through the hand x -> z table."""
    xp = x_letter_polys()
    d = Fraction(1, 2) * (_letter("v1") - _letter("v2"))
    quad = (xp["x3"] * xp["x3"] + xp["x4"] * xp["x4"]
            - xp["x5"] * xp["x5"] - xp["x6"] * xp["x6"])
    mixed = -2 * (xp["x1"] * (xp["x4"] * xp["x5"] - xp["x3"] * xp["x6"])) \
        + 2 * (xp["x2"] * (xp["x3"] * xp["x5"] + xp["x4"] * xp["x6"]))
    return d * quad + mixed


def component_polys() -> tuple:
    """(s^3, s|x|^2, s|y|^2, R) from the hand formulas above."""
    s = s_poly()
    return (s * s * s, s * x_norm_poly(), s * y_norm_poly(), r_poly())


# -- the generic quadratic-field formula ------------------------------------

def quad_parts(x) -> tuple:
    """(rat, irr) of a QuadExt, (re, im) of a GaussRational, and (c, 0)
    of an int or Fraction c, the element c + 0 sqrt(D) that the field
    arithmetic once coerced it to."""
    if isinstance(x, QuadExt):
        return x.rat, x.irr
    if isinstance(x, GaussRational):
        return x.re, x.im
    return x, 0


def quad_op(op: str, x, y, D: int) -> tuple:
    """The parts of x op y in Q(sqrt(D)), op one of "+", "-", "*", by
    the generic formula on the parts of both operands."""
    (a, b), (c, d) = quad_parts(x), quad_parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    return a * c + D * b * d, a * d + b * c


# -- forms --------------------------------------------------------------------

def inversion_sign(m1: int, m2: int) -> int:
    """The sign of e^{m1} ^ e^{m2} against the sorted blade, by counting
    the pairs of a factor of m1 and a factor of m2 below it."""
    inversions = sum(1 for i in range(7) for j in range(i)
                     if m1 >> i & 1 and m2 >> j & 1)
    return -1 if inversions & 1 else 1


def pairwise_wedge(a, b):
    """a ^ b over every pair of blades, each disjoint pair with its
    merge_sign."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if not m1 & m2:
                c = ext.merge_sign(m1, m2) * c1 * c2
                acc = terms.get(m1 | m2)
                terms[m1 | m2] = c if acc is None else acc + c
    return Form(a.grade + b.grade, terms)


def star_action_wedges(A: Matrix, a):
    """The derived action sum_i (A e_i) ^ (e_i -| a) as seven wedges of
    a column's vector form with a contraction, summed as Forms."""
    out = Form(a.grade)
    for i in range(7):
        out = out + wedge(vector_form(A.column(i)), contract(vector(i + 1), a))
    return out


# -- dense projectors -------------------------------------------------------

def _outer_projector(forms: list[Form], grade: int) -> Matrix:
    """The orthogonal projector sum_w |w><w| / <w, w> onto the span of
    pairwise orthogonal forms, as a dense matrix."""
    n = len(BLADES_BY_GRADE[grade])
    acc = [[Fraction(0)] * n for _ in range(n)]
    for w in forms:
        nn = ext.norm_sq(w)
        cvec = ext.form_to_coords(w)
        for i, ci in enumerate(cvec):
            if ci:
                for j, cj in enumerate(cvec):
                    if cj:
                        acc[i][j] += Fraction(ci * cj, nn)
    return Matrix.from_rows(acc)


def _dense_projectors(grade: int, span1: list[Form], span7: list[Form]):
    """(P1, P7, P27) as dense matrices, with P27 = 1 - P1 - P7."""
    p1, p7 = _outer_projector(span1, grade), _outer_projector(span7, grade)
    n = len(BLADES_BY_GRADE[grade])
    return p1, p7, matrix_combination((1, Matrix.diagonal([1] * n)),
                                      (-1, p1), (-1, p7))


def _rational_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("negative discriminant")
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(rn, rd)


@functools.cache
def _two_form_split(fr):
    """((P7, P14), (lambda7, lambda14)) of a |-> *(phi ^ a)."""
    blades2 = BLADES_BY_GRADE[2]
    n = len(blades2)
    T = transpose(Matrix.from_rows(
        [ext.form_to_coords(hodge(wedge(fr.phi, Form(2, {m: 1}))))
         for m in blades2]))
    # derive the minimal polynomial T^2 = c1 T + c0: a 2-parameter
    # exact solve over all matrix entries
    rows = [[T.at(i, j), 1 if i == j else 0] for i in range(n) for j in range(n)]
    (c1, c0), _ = solve_exact(Matrix.from_rows(rows), (T * T).entries)
    disc = _rational_sqrt(c1 * c1 + 4 * c0)
    if disc == 0:
        raise InternalConsistencyError("wedge operator has a repeated eigenvalue")
    lam_a = (c1 + disc) / 2
    lam_b = (c1 - disc) / 2
    one = Matrix.diagonal([1] * n)
    # (T - lam_b) / (lam_a - lam_b) and its complement
    f = Fraction(1, lam_a - lam_b)
    proj_a = matrix_combination((f, T), (-lam_b * f, one))
    proj_b = matrix_combination((1, one), (-1, proj_a))
    if trace(proj_a) == 7:
        p7, p14, lam7, lam14 = proj_a, proj_b, lam_a, lam_b
    elif trace(proj_b) == 7:
        p7, p14, lam7, lam14 = proj_b, proj_a, lam_b, lam_a
    else:
        raise InternalConsistencyError("eigenspace dimensions are not 7 + 14")
    return (p7, p14), (lam7, lam14)


@functools.cache
def projector_matrices(fr, grade: int) -> tuple[Matrix, ...]:
    """Dense projector matrices of a frame, in the order project2/3/4
    returns the parts."""
    if grade == 2:
        return _two_form_split(fr)[0]
    if grade == 3:
        return _dense_projectors(3, [fr.phi], fr.kappa)
    if grade == 4:
        return _dense_projectors(4, [fr.psi], fr.phi_wedges)
    raise ext.GradeError("projectors exist for grades 2, 3, 4")


def two_form_eigenvalues(fr):
    """The eigenvalues of a |-> *(phi ^ a) on the (7, 14) parts."""
    return _two_form_split(fr)[1]


def pairing_matrix(fr):
    """The 49 x 35 matrix of gamma |-> (gamma ^ (e_j -| psi))_j, column
    m the coordinates of the seven wedges e^m ^ (e_j -| psi), j-major,
    one wedge per 3-blade and j."""
    kappa = [ext.contract(vector(j), fr.psi) for j in range(1, 8)]
    return transpose(Matrix.from_rows(
        [[c for k in kappa for c in ext.form_to_coords(wedge(Form(3, {m: 1}), k))]
         for m in BLADES_BY_GRADE[3]]))


# -- scalar-generic kernels -------------------------------------------------

def quadratic_upper(a1, a2):
    """The flat upper triangle (UPPER) of <e_i -| a1, e_j -| a2> for a1
    is a2, and of its two cross terms summed for a pair, by contract and
    inner."""
    c1 = [ext.contract(vector(i), a1) for i in range(1, 8)]
    if a1 is a2:
        return [inner(c1[i], c1[j]) for i, j in UPPER]
    c2 = [ext.contract(vector(i), a2) for i in range(1, 8)]
    return [inner(c1[i], c2[j]) + inner(c2[i], c1[j]) for i, j in UPPER]


def quadratic_form(a1, a2):
    half = Fraction(1, 2)
    upper = quadratic_upper(a1, a2)
    if a1 is a2:
        upper = [x + x for x in upper]
    return SymTensor.from_upper([half * x for x in upper])


def type_split(fr, a):
    one, seven = (fr.phi, fr.kappa) if a.grade == 3 else (fr.psi, fr.phi_wedges)

    def part(forms):
        terms = {}
        for w in forms:
            c = inner(a, w)
            if c == 0:
                continue
            c = c * Fraction(1, norm_sq(w))
            for m, d in w.terms.items():
                terms[m] = terms.get(m, 0) + c * d
        return ext.Form(a.grade, terms)

    p1, p7 = part([one]), part(seven)
    return p1, p7, a - p1 - p7


def hat(fr, a):
    """*(2 P7 a - a), P7 a in the coefficients' own type."""
    return hodge(2 * type_split(fr, a)[1] - a)


def iso_i_inv_pairings(fr, b):
    """The 49 pairings <b, f_ij>, each a sum of coefficient products."""
    bt = b.terms
    fs = fr._inv_functionals
    return [[sum(c * bt[m] for m, c in fs[7 * i + j] if m in bt)
             for j in range(7)] for i in range(7)]


def upper_of(square):
    """The flat upper triangle (UPPER) of a square given as rows."""
    return [square[i][j] for i, j in UPPER]


def traceless_part(S):
    """S - tr(S)/7; multiplying by 1/7 keeps int and QuadExt entries
    exact, and the off-diagonal entries keep their type."""
    t = S.trace() * Fraction(1, 7)
    return SymTensor.from_upper([x - t if i == j else x
                                 for (i, j), x in zip(UPPER, S.upper)])


def iso_i_inv(fr, b):
    half = Fraction(1, 2)
    return SymTensor([[half * (x if x else 0) for x in row]
                      for row in iso_i_inv_pairings(fr, b)])


def sym_inner(S1, S2):
    rows = list(enumerate(zip(S1.entries, S2.entries)))
    return (sum(r1[i] * r2[i] for i, (r1, r2) in rows)
            + 2 * sum(x * y for i, (r1, r2) in rows
                      for x, y in zip(r1[i + 1:], r2[i + 1:])))


def b2_rhs(a1, h1, a2, h2):
    """-(h1 ^ (e_j -| a2) + h2 ^ (e_j -| a1)), j = 1..7, by 14 wedges,
    as one flat vector, j-major in the grade-6 blade order."""
    return [c for j in range(1, 8) for c in ext.form_to_coords(
        -(wedge(h1, ext.contract(vector(j), a2))
          + wedge(h2, ext.contract(vector(j), a1))))]


def b2(fr, a1, a2):
    def hat(a):
        p1, p7, p27 = type_split(fr, a)
        return -hodge(p1) + hodge(p7) - hodge(p27)

    h1 = hat(a1)
    h2 = h1 if a2 is a1 else hat(a2)
    rhs = b2_rhs(a1, h1, a2, h2)
    # the dense normal equations M^T M x = M^T rhs, and the residual
    M = fr.pairing_matrix()
    Mt = transpose(M)
    x, kernel_dim = solve_over_q10(Mt * M, Mt.apply(rhs))
    assert kernel_dim == 0 and M.apply(x) == rhs
    return ext.form_from_coords(3, x)


# -- the cubic scalars as Fraction compositions -----------------------------
#
# q2, Q and P composed from whole tensors and forms in the coefficients'
# own type, every constant applied where it arises, as the package
# composed them before q2, Q and P ran on integer numerators: the
# traceless part of p, i as the derived action S*phi, and one wedge per
# volume coefficient.

def q2_closed_form(fr, a):
    """-i(q0(a, a)) + (2/7) |a|^2 phi."""
    q0 = traceless_part(quadratic_form(a, a))
    return -star_action(q0.to_matrix(), fr.phi) \
        + Fraction(2, 7) * norm_sq(a) * fr.phi


def q_routes(fr, a):
    """Q(a) as vol(Q2(a) ^ a) and as -2 <p(a, a), i^{-1}(*a)>."""
    return (vol_coefficient(wedge(q2_closed_form(fr, a), a)),
            -2 * sym_inner(quadratic_form(a, a), iso_i_inv(fr, hodge(a))))


def p_value(fr, b):
    """P(b) = 2 <p(b, b), i^{-1}(b)>."""
    return 2 * sym_inner(quadratic_form(b, b), iso_i_inv(fr, b))


# -- the comparison form in Q(sqrt(10)) -------------------------------------

def comparison_form(xi):
    """A(xi) = s phitilde - (5/3) y^Omega + (sqrt(10)/6) C(x) as one Form
    over Q(sqrt(10)), summed as the package built it before it kept only
    the integer numerators."""
    fr = aw.standard_aw_frame()
    s, y, x = aw.decompose(xi)
    return (s * fr.phi_tilde - Fraction(5, 3) * wedge(y, fr.Omega)
            + QuadExt(0, Fraction(1, 6)) * aw.c_of(x))


def split_cubic(u, w):
    """The even and odd part in sqrt(10) of the numerator cubic of
    u + sqrt(10) w, expanded term by term as the package split it before
    it read the full symmetry of the trilinear form: four pair-table
    passes, p(u, u), 2 p(u, w) (both orders) and p(w, w), and only the
    symmetry of p in its two arguments."""
    g2 = standard_frame()
    # quadratic_upper(u, w) is 2 p(u, w): the polarized terms come doubled
    puu, puw, pww = (cubic.quadratic_upper(u, u), cubic.quadratic_upper(u, w),
                     cubic.quadratic_upper(w, w))
    su, sw = g2.iso_i_inv_upper(u), g2.iso_i_inv_upper(w)
    t0 = upper_inner(puu, su)
    t1 = upper_inner(puw, su) + upper_inner(puu, sw)
    t2 = upper_inner(pww, su) + upper_inner(puw, sw)
    t3 = upper_inner(pww, sw)
    return t0 + 10 * t2, t1 + 10 * t3


# -- the aw displays and block products on Fraction tensors -----------------
#
# tensor_displays and the solver route of block_products as the package
# ran them before they moved onto int triangles: every tensor a
# SymTensor of Fractions from the scalar-generic kernels above, every
# display at its own scale, with the symmetric products e_a . I_a x and
# y . Jx from SymTensor.sym_outer, and J I_y and R from Matrix products
# at each point.

_ID3 = SymTensor.diag([1, 1, 1, 0, 0, 0, 0])
_ID4 = SymTensor.diag([0, 0, 0, 1, 1, 1, 1])


def i_y(y) -> Matrix:
    """I_y = y1 I1 + y2 I2 + y3 I3, the Matrix sum, for y in m3."""
    fr = aw.standard_aw_frame()
    c = ext.coords_of(y)
    return matrix_combination(*((c[a], fr.I[a]) for a in range(3)))


def aw_display_tensors(y, x) -> tuple:
    """(J I_y, e_a . I_a x, y . Jx, the mix, and 2|x|^2 id3 + 10(|x|^2
    id4 - x(x)x)) at (y, x) as SymTensors from Matrix products and
    SymTensor.sym_outer, with the mix sum eps_abc y_a e_c . (I_b J x)."""
    fr = aw.standard_aw_frame()
    xc, yc = ext.coords_of(x), ext.coords_of(y)
    jx = fr.J.apply(xc)
    jiy = SymTensor((fr.J * i_y(y)).to_rows())
    e = [ext.coords_of(vector(a + 1)) for a in range(3)]
    ia = sym_combination(*((1, SymTensor.sym_outer(fr.I[a].apply(xc), e[a]))
                           for a in range(3)))
    yjx = SymTensor.sym_outer(yc, jx)
    ijx = [I.apply(jx) for I in fr.I]

    def outer(c, a, b):
        # e_c . (y_a I_b J x)
        return SymTensor.sym_outer(e[c], [yc[a] * t for t in ijx[b]])
    mix = sym_combination(*(
        term for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        for term in ((1, outer(c, a, b)), (-1, outer(c, b, a)))))
    xx = norm_sq(x)
    x_outer = SymTensor([[xc[i] * xc[j] for j in range(7)] for i in range(7)])
    # 2|x|^2 id3 + 10 (|x|^2 id4 - x(x)x)
    cc = sym_combination((2 * xx, _ID3), (10 * xx, _ID4), (-10, x_outer))
    return jiy, ia, yjx, mix, cc


def r_metric(y, x):
    """g(Jx, I_y x) from two dense Matrix applies."""
    fr = aw.standard_aw_frame()
    xc = ext.coords_of(x)
    return sum(a * b for a, b in zip(fr.J.apply(xc), i_y(y).apply(xc)))


def aw_tensor_displays(y, x) -> list[dict]:
    """The eight display records of aw.tensor_displays at (y, x)."""
    fr = aw.standard_aw_frame()
    g2 = fr.g2
    pt = fr.phi_tilde
    yw = wedge(y, fr.Omega)
    cx = aw.c_of(x)
    jiy, ia, yjx, mix, cc = aw_display_tensors(y, x)
    half = Fraction(1, 2)
    rows = [
        ("p(phitilde, phitilde) = 38 id3 + 3 id4", quadratic_form(pt, pt),
         sym_combination((38, _ID3), (3, _ID4)), None),
        ("p(phitilde, y^Omega) = -J I_y", quadratic_form(pt, yw),
         jiy.scale(-1), None),
        ("p(phitilde, C(x)) = -4 I_a x . e_a", quadratic_form(pt, cx),
         ia.scale(-4), ia.scale(-11)),
        ("p(y^Omega, C(x)) = 6 y . Jx", quadratic_form(yw, cx),
         yjx.scale(6), sym_combination((3, yjx), (1, mix))),
        ("p(C(x), C(x)) = 2|x|^2 id3 + 10(|x|^2 id4 - x(x)x)",
         quadratic_form(cx, cx), cc, None),
        ("i^{-1}(phitilde) = -2 id3 + (3/2) id4", iso_i_inv(g2, pt),
         sym_combination((-2, _ID3), (Fraction(3, 2), _ID4)), None),
        ("i^{-1}(y^Omega) = -(1/2) J I_y", iso_i_inv(g2, yw),
         jiy.scale(-half), None),
        ("i^{-1}(C(x)) = -(1/2) e_a . I_a x", iso_i_inv(g2, cx),
         ia.scale(-half), ia.scale(-2)),
    ]
    out = []
    for name, got, want, corrected in rows:
        rec = {"identity": name, "matches": got == want}
        if corrected is not None:
            rec["corrected_matches"] = got == corrected
        out.append(rec)
    return out


def aw_block_products(s, y, x) -> list:
    """The six products <p(block, block), i^{-1}(A_)> of
    aw.block_products in display order, their weighted sum and the
    cubic <p(A_, A_), i^{-1}(A_)> of A_ = s phitilde + y^Omega + C(x)."""
    fr = aw.standard_aw_frame()
    pt = fr.phi_tilde
    yw = wedge(y, fr.Omega)
    cx = aw.c_of(x)
    a_ = s * pt + yw + cx
    S = iso_i_inv(fr.g2, a_)
    six = [sym_inner(quadratic_form(b1, b2), S)
           for b1, b2 in ((pt, pt), (pt, yw), (pt, cx),
                          (yw, yw), (yw, cx), (cx, cx))]
    mults = (s * s, 2 * s, 2 * s, 1, 2, 1)
    return six + [sum(m * v for m, v in zip(mults, six)),
                  sym_inner(quadratic_form(a_, a_), S)]


def fp_numerator(tab, z):
    """216 P(xi) as _BlockTables.fp_numerator at the block coordinates
    z = (s, y, x), with each mixed term of the even/odd split expanded
    term by term: six table passes, and no use of the table's symmetry.
    6 A(xi) = zb + sqrt(10) zc, with zb = 6 (s, -(5/3) y) and
    zc = 6 (1/6) x."""
    zb = [6 * z[0]] + [-10 * c for c in z[1:4]] + [0] * 4
    zc = [0] * 4 + list(z[4:])
    t0 = tab.tri(zb, zb, zb)
    t1 = 2 * tab.tri(zb, zc, zb) + tab.tri(zb, zb, zc)
    t2 = tab.tri(zc, zc, zb) + 2 * tab.tri(zb, zc, zc)
    t3 = tab.tri(zc, zc, zc)
    assert t1 + 10 * t3 == 0
    return t0 + 10 * t2


# -- the dense Haar Monte Carlo ----------------------------------------------

def haar_su3(rng, count: int):
    """The (count, 3, 3) Haar sample from one (4, 3, count) draw, built
    over the whole batch at once."""
    import numpy as np
    x = rng.standard_normal((4, 3, count))
    u = x[0] + 1j * x[1]
    v = x[2] + 1j * x[3]
    u /= np.sqrt((u.real ** 2 + u.imag ** 2).sum(axis=0))
    v -= u * (u.conj() * v).sum(axis=0)
    v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
    g = np.empty((count, 3, 3), dtype=np.complex128)
    g[:, :, 0] = u.T
    g[:, :, 1] = v.T
    for r in range(3):
        s, t = (r + 1) % 3, (r + 2) % 3
        g[:, r, 2] = (u[s] * v[t] - u[t] * v[s]).conj()
    return g


def haar_matrices(rng, count: int):
    """The chunks of pairing.haar_su3(rng, count) joined into its
    (count, 3, 3) array of matrices."""
    import numpy as np
    chunks = list(pairing.haar_su3(rng, count))
    return np.concatenate(chunks, axis=2).transpose(2, 1, 0)


def conjugate_letters(g, xi_mat) -> list:
    """The nine letter columns of g xi g^dagger from the dense product
    h = g xi, one (3n x 3) @ (3 x 3) matrix product, contracted against
    conj(g) by einsum."""
    import numpy as np
    n = g.shape[0]
    h = (g.reshape(3 * n, 3) @ xi_mat).reshape(n, 3, 3)
    gc = g.conj()
    v = np.einsum("nik,nik->in", h, gc).imag
    z = [np.einsum("nk,nk->n", h[:, i], gc[:, j])
         for i, j in ((2, 1), (0, 2), (1, 0))]
    return [v[0], v[1], v[2]] + z + [c.conj() for c in z]


def haar_average(xi, samples: int, seed: int) -> tuple:
    """(empirical, std_error) of pairing.haar_average on the dense route:
    the same seeded batches, each sampled and conjugated whole."""
    import numpy as np
    terms = pairing._poly_terms(pairing.first_principles_p_poly())
    xi_mat = np.array([[complex(c) for c in row]
                       for row in xi.matrix_entries()])
    total = total_sq = 0.0
    for nbatch, done in enumerate(range(0, samples, pairing.MC_BATCH)):
        take = min(pairing.MC_BATCH, samples - done)
        g = haar_su3(np.random.default_rng([seed, nbatch]), take)
        vals = pairing._eval_terms(terms, conjugate_letters(g, xi_mat))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    empirical = total / samples
    variance = max(total_sq / samples - empirical * empirical, 0.0)
    return empirical, (variance / samples) ** 0.5
