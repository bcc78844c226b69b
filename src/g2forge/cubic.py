"""The quadratic cocycle b2 of the coassociative form and its cubic scalars.

For 4-forms a1, a2 the cocycle b2(a1, a2) is the unique 3-form with

    b2(a1, a2) ^ (v -| psi) + hat(a1) ^ (v -| a2) + hat(a2) ^ (v -| a1) = 0

for every vector v; uniqueness is the injectivity of the contraction
pairing (rank 35), existence is verified on all 49 scalar equations at
every call.  On the 27-dimensional summand the diagonal b2(a, a) has the
closed form Q2(a) below, and pairing once more with a gives the cubic
polynomial Q.  Every scalar produced here is computed along two
independent routes and cross-checked; a mismatch raises instead of
returning anything.

The right-hand side of the b2 solve, the 6-forms
-(hat(a1) ^ (e_j -| a2) + hat(a2) ^ (e_j -| a1)), is read off a table
of the 560 blade triples (m3, m4, j) with e_j in m4 and m3 disjoint
from the rest of m4, each with its sign: one coefficient product per
entry, added or subtracted, and no general wedge or contraction.

The symmetric tensor p(a1, a2) of quadratic_form is computed on its 28
upper-triangle entries and mirrored.  Each entry <e_i -| a1, e_j -| a2>
is read off a pair table of the grade, with no contraction built: the
triples (m, m', sign) of blades with e_i in m, e_j in m' and
m - e_i = m' - e_j, sign the product of the two contraction signs (315
triples on 3-forms, 350 on 4-forms), each one coefficient product added
or subtracted; the polarized pair takes both cross products of every
triple.

Both kernels are bilinear and run on integer numerators: the arguments
share one denominator, a_k = n_k / d (exterior.numerators), every
product and sum is taken in int, and the result is rescaled once, by
1/d^2 for p (1/(2 d^2) for the polarized pair).  In b2 the hats of the
numerators share a second denominator e, hat(a_k) = m_k / (d e), so the
right-hand side and the solve see only ints and the solution is
rescaled once by 1/(d^2 e).  Results keep the values and entry types of
the same computation in the coefficients' own type.

The int part of p is its own function, quadratic_upper, so that a
longer composition stays on numerators across kernels and rescales once
at its own end: the obstruction cubic in aw pairs it with
G2Frame.iso_i_inv_upper through linalg.upper_inner.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exterior import BLADES_BY_GRADE, Form, GradeError, _contract_sign, \
    hodge, inner, merge_sign, norm_sq, numerators, vol_coefficient, wedge
from .g2 import G2Frame, InternalConsistencyError, TypeDecompositionError, \
    standard_frame, star_action
from .linalg import SymTensor, sym_inner

_SEVEN = range(1, 8)


@functools.cache
def _pair_table(grade: int) -> tuple[tuple, ...]:
    """For each upper-triangle entry (i, j) of p on k-forms, row by row,
    the triples (m, m', sign) of k-blades with e_i in m, e_j in m' and
    m - e_i = m' - e_j, where sign is the product of the two contraction
    signs: <e_i -| a1, e_j -| a2> is sum sign a1[m] a2[m'].  315 triples
    on 3-forms, 350 on 4-forms."""
    table = []
    for i in range(7):
        for j in range(i, 7):
            triples = []
            for m in BLADES_BY_GRADE[grade]:
                rest = m ^ 1 << i
                if m >> i & 1 and not rest >> j & 1:
                    mm = rest | 1 << j
                    triples.append(
                        (m, mm, _contract_sign(i, m) * _contract_sign(j, mm)))
            table.append(tuple(triples))
    return tuple(table)


def quadratic_upper(n1: Form, n2: Form) -> list[list]:
    """The upper triangle of p(n, n) for n1 is n2 = n, and of 2 p(n1, n2)
    for two distinct forms, in the coefficients' own type with no
    rescale: int entries for integer numerators, so p(a1, a2) of
    a_k = n_k / d is this triangle over d^2 (2 d^2 for a pair).

    Each entry is a signed sum over its pair table; a sum with no
    product in it is int 0.  The polarized pair adds both cross
    products n1[m] n2[m'] and n2[m] n1[m'] of every triple."""
    get1 = n1.terms.get
    flat = []
    if n1 is n2:
        for triples in _pair_table(n1.grade):
            s = 0
            for m, mm, sign in triples:
                x = get1(m)
                if x is not None:
                    y = get1(mm)
                    if y is not None:
                        s = s + x * y if sign > 0 else s - x * y
            flat.append(s)
    else:
        get2 = n2.terms.get
        for triples in _pair_table(n1.grade):
            s = 0
            for m, mm, sign in triples:
                x, y = get1(m), get2(mm)
                if x is not None and y is not None:
                    s = s + x * y if sign > 0 else s - x * y
                x, y = get2(m), get1(mm)
                if x is not None and y is not None:
                    s = s + x * y if sign > 0 else s - x * y
            flat.append(s)
    it = iter(flat)
    return [[next(it) for _ in range(i, 7)] for i in range(7)]


def quadratic_form(a1: Form, a2: Form) -> SymTensor:
    """The symmetric tensor (v, w) |-> <v -| a1, w -| a2>, symmetrized.

    For a1 = a2 the raw matrix is already symmetric; in general only the
    symmetric part is the polarization of the quadratic map.
    """
    if a1.grade != a2.grade or a1.grade < 1:
        raise GradeError("quadratic_form needs two forms of equal grade >= 1")
    (n1, n2), d = numerators(a1, a2)
    # a Fraction scale keeps the result types
    scale = Fraction(1, d * d if n1 is n2 else 2 * d * d)
    return SymTensor.from_upper([[scale * x for x in row]
                                 for row in quadratic_upper(n1, n2)])


@functools.cache
def _rhs_table() -> dict[int, tuple]:
    """For each 4-blade m4, the 16 tuples (m3, j, m6, sign) with e_j in
    m4 and m3 a 3-blade disjoint from m4 minus e_j, such that
    e^{m3} ^ (e_j -| e^{m4}) = sign e^{m6}: the contraction sign times
    merge_sign.  560 entries in all."""
    table = {}
    for m4 in BLADES_BY_GRADE[4]:
        rows = []
        for j in range(7):
            if m4 >> j & 1:
                rest = m4 ^ (1 << j)
                sign = _contract_sign(j, m4)
                rows += [(m3, j, m3 | rest, sign * merge_sign(m3, rest))
                         for m3 in BLADES_BY_GRADE[3] if not m3 & rest]
        table[m4] = tuple(rows)
    return table


def b2_rhs(a1: Form, h1: Form, a2: Form, h2: Form) -> list[Form]:
    """The right-hand 6-forms -(h1 ^ (e_j -| a2) + h2 ^ (e_j -| a1)),
    j = 1..7, of the b2 solve, read off the sign table: one product
    h[m3] a[m4] per entry, added or subtracted by its sign.  For the
    diagonal b2(a, a) the two halves are the same object, so one is
    computed and added to itself."""
    table = _rhs_table()
    diagonal = a1 is a2 and h1 is h2
    halves = [(a2, h1.terms)]
    if not diagonal:
        halves.append((a1, h2.terms))
    rows = [{} for _ in _SEVEN]
    for a, h in halves:
        for m4, c in a.terms.items():
            for m3, j, m6, sign in table[m4]:
                d = h.get(m3)
                if d is None:
                    continue
                p = d * c
                acc = rows[j].get(m6)
                if sign > 0:
                    rows[j][m6] = -p if acc is None else acc - p
                else:
                    rows[j][m6] = p if acc is None else acc + p
    if diagonal:
        rows = [{m: c + c for m, c in r.items()} for r in rows]
    return [Form(6, r) for r in rows]


def b2(a1: Form, a2: Form, frame: G2Frame | None = None) -> Form:
    """The symmetric bilinear cocycle on 4-forms, by exact linear solve."""
    fr = frame or standard_frame()
    if a1.grade != 4 or a2.grade != 4:
        raise GradeError("b2 needs two 4-forms")
    # a_k = n_k / d and hat(n_k) = m_k / e, so hat(a_k) = m_k / (d e):
    # the rhs is bilinear in (a, hat(a)), the solve sees only ints, and
    # the result is rescaled once, by 1/(d^2 e)
    (n1, n2), d = numerators(a1, a2)
    h1 = fr.hat(n1)
    (m1, m2), e = numerators(h1, h1 if n2 is n1 else fr.hat(n2))
    gamma = fr.solve_three_form(b2_rhs(n1, m1, n2, m2))
    scale = d * d * e
    return gamma if scale == 1 else gamma * Fraction(1, scale)


def q2_closed_form(a: Form, frame: G2Frame | None = None) -> Form:
    """Closed form of the diagonal cocycle on the 27-summand:

        Q2(a) = -i(q0(a, a)) + (2/7) |a|^2 phi,

    valid only for a of pure 27 type (checked).
    """
    fr = frame or standard_frame()
    if a.grade != 4:
        raise GradeError("q2_closed_form needs a 4-form")
    p1, p7, _ = fr.project4(a)
    if not p1.is_zero() or not p7.is_zero():
        raise TypeDecompositionError("form is not of pure 27 type")
    q0 = quadratic_form(a, a).traceless_part()
    return -fr.iso_i(q0) + Fraction(2, 7) * norm_sq(a) * fr.phi


def q2(a: Form, frame: G2Frame | None = None) -> Form:
    """Q2 on the 27-summand, computed through the closed form and through
    the linear solve, cross-checked."""
    fr = frame or standard_frame()
    closed = q2_closed_form(a, fr)
    solved = b2(a, a, fr)
    if closed != solved:
        raise InternalConsistencyError("Q2 closed form disagrees with the b2 solve")
    return closed


def q_value(a: Form, frame: G2Frame | None = None):
    """The cubic scalar Q(a), with Q(a) vol = Q2(a) ^ a, for a of pure
    27 type.  Checked against -2 <q(a,a), i^{-1}(*a)>."""
    fr = frame or standard_frame()
    via_wedge = vol_coefficient(wedge(q2(a, fr), a))
    s_inv = fr.iso_i_inv(hodge(a))
    via_tensor = -2 * sym_inner(quadratic_form(a, a), s_inv)
    if via_wedge != via_tensor:
        raise InternalConsistencyError("the two routes to Q disagree")
    return via_wedge


def p_value(b: Form, frame: G2Frame | None = None):
    """The cubic scalar on 3-forms of pure 27 type,

        P(b) = 2 <p(b, b), i^{-1}(b)> = Q(*b),

    with both sides computed and compared."""
    fr = frame or standard_frame()
    if b.grade != 3:
        raise GradeError("p_value needs a 3-form")
    direct = 2 * sym_inner(quadratic_form(b, b), fr.iso_i_inv(b))
    via_q = q_value(hodge(b), fr)
    if direct != via_q:
        raise InternalConsistencyError("P(b) != Q(*b)")
    return direct


def trilinear(S1: SymTensor, S2: SymTensor, S3: SymTensor,
              frame: G2Frame | None = None):
    """The trilinear form <b2(*i(S1), *i(S2)), i(S3)> on traceless
    symmetric tensors.  Fully symmetric under permutations."""
    fr = frame or standard_frame()
    b_1 = fr.iso_i(S1)
    b_2 = fr.iso_i(S2)
    return inner(b2(hodge(b_1), hodge(b_2), fr), fr.iso_i(S3))


def trilinear_direct(S1: SymTensor, S2: SymTensor, S3: SymTensor,
                     frame: G2Frame | None = None):
    """<p(i(S1), i(S2)), S3>, the same form up to the overall factor 2
    carried by the cocycle route: trilinear = 2 * trilinear_direct."""
    fr = frame or standard_frame()
    return sym_inner(quadratic_form(fr.iso_i(S1), fr.iso_i(S2)), S3)


def trilinear_star_route(S1: SymTensor, S2: SymTensor, S3: SymTensor,
                         frame: G2Frame | None = None):
    """Derived-action route: <S3 * i(S1), i(S2)> + <S3 * i(S2), i(S1)>."""
    fr = frame or standard_frame()
    b_1 = fr.iso_i(S1)
    b_2 = fr.iso_i(S2)
    A3 = S3.to_matrix()
    return inner(star_action(A3, b_1), b_2) + inner(star_action(A3, b_2), b_1)
