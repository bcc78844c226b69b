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

The symmetric tensor p(a1, a2), <e_i -| a1, e_j -| a2> symmetrized,
and the right-hand side of the b2 solve, -(hat(a1) ^ (e_j -| a2) +
hat(a2) ^ (e_j -| a1)), one flat vector of 49 entries, are both
bilinear, and one kernel (_bilinear) reads both off a blade-major sign
table: each blade m of the first form holds the triples (k, m', sign)
that add sign a[m] b[m'] to entry k.  In the pair table of a grade, e_i
is in m, e_j in m', m - e_i = m' - e_j and k is the position of the
upper-triangle entry (i, j) in linalg.TRIANGLE (315 triples in all on
3-forms, 350 on 4-forms).  In the
right-hand side's table m is a 4-blade, e_j is in m, m' a 3-blade
disjoint from the rest of m and k the row of the 6-blade they make,
with the minus folded into the sign (560 triples).  The kernel loops
over the blades the form holds, so a sparse form reads only its own
triples, and builds no wedge or contraction.

Every kernel runs on integer numerators, a = n / d (exterior.numerators),
takes each product, sum and cross-check in int and divides once at the
end (scalars.over), keeping the values and entry types of the same
computation in the coefficients' own type.  quadratic_upper is d^2 p
(2 d^2 p for a pair), U on the diagonal, as the flat upper triangle
of linalg's layout, the list _bilinear fills.  b2 solves on the ints
h_k = L hat(n_k) (G2Frame.hat_numerators, L = 28;
G2Frame.solve_three_form_numerators, x / D) and divides by D L d^2.
On the 27 type (G2Frame.is_pure27 on *n),

    N = 7 d^2 Q2(a) = -i(7 U - tr(U) I) + 2 |n|^2 phi,

i run on an int tensor; q2 cross-multiplies N with the solve's x.  Q is
vol(N ^ n) = -7 <U, 2 i^{-1}(*n)> over 7 d^3, and P is p_numerator,
<U, 2 i^{-1}(n)> for b = n / d, over d^3, against the Q numerator of *n;
p_value scatters 2 i^{-1}(n) once and hands it to both.  The closed
form and the tensor route share U; the independent evidence is the
solve against the closed form and the wedge against i^{-1}.
trilinear_direct pairs quadratic_upper of the numerators of i(S1) and
i(S2) with those of S3 by upper_inner and rescales once; each route
raise names both values and the input form as JSON.
"""

from __future__ import annotations

import functools
import json

from .exterior import BLADES_BY_GRADE, Form, GradeError, blade_indices, \
    form_from_coords, form_to_coords, form_to_json, hodge, inner, \
    merge_sign, norm_sq, numerators, vol_coefficient, wedge
from .g2 import OUTSIDE_27, G2Frame, InternalConsistencyError, \
    standard_frame, star_action
from .linalg import DIAGONAL, TRIANGLE, SymTensor, upper_inner
from .scalars import clear_denominators, over

@functools.cache
def _pair_table(grade: int) -> dict[int, tuple]:
    """p on k-forms blade-major: each k-blade m as the triples (k, m',
    sign) with <e_i -| a1, e_j -| a2> = sum sign a1[m] a2[m'] for the
    upper-triangle entry k = (i, j), i <= j, at linalg.TRIANGLE[k], sign
    the product of the two contraction signs: both leave the same rest
    of m, so each is the merge sign of e_i or e_j against it."""
    table = {}
    for m in BLADES_BY_GRADE[grade]:
        triples = []
        for k, (i, j) in enumerate(TRIANGLE):
            rest = m ^ 1 << i
            if m >> i & 1 and not rest >> j & 1:
                mm = rest | 1 << j
                triples.append((k, mm, merge_sign(1 << i, rest)
                                * merge_sign(1 << j, rest)))
        table[m] = tuple(triples)
    return table


def _bilinear(table: dict, pairs, count: int) -> list:
    """The count sums of sign a[m] b[m'] over each pair (a, b) of forms,
    each blade m of a and each triple (k, m', sign) of table[m] whose m'
    b holds, into entry k, in the coefficients' own type with no
    rescale; each entry starts from its first product and is int 0
    with no product in it."""
    flat = [None] * count
    for a, b in pairs:
        get = b.terms.get
        for m, x in a.terms.items():
            for k, mm, sign in table[m]:
                y = get(mm)
                if y is not None:
                    s = flat[k]
                    if s is None:
                        flat[k] = x * y if sign > 0 else -(x * y)
                    elif sign > 0:
                        flat[k] = s + x * y
                    else:
                        flat[k] = s - x * y
    return [0 if s is None else s for s in flat]


def quadratic_upper(n1: Form, n2: Form) -> list:
    """The flat upper triangle of p(n, n) for n1 is n2 = n, and of
    2 p(n1, n2) for two distinct forms, read off the pair table
    (_bilinear), a pair in both orders."""
    pairs = ((n1, n2),) if n1 is n2 else ((n1, n2), (n2, n1))
    return _bilinear(_pair_table(n1.grade), pairs, len(TRIANGLE))


def quadratic_form(a1: Form, a2: Form) -> SymTensor:
    """The symmetric tensor (v, w) |-> <v -| a1, w -| a2>, symmetrized
    (for a1 = a2 the raw matrix is already symmetric)."""
    if a1.grade != a2.grade or a1.grade < 1:
        raise GradeError("quadratic_form needs two forms of equal grade >= 1")
    (n1, n2), d = numerators(a1, a2)
    s = d * d if n1 is n2 else 2 * d * d
    return SymTensor.from_upper([over(x, s) for x in quadratic_upper(n1, n2)])


@functools.cache
def _rhs_table() -> dict[int, tuple]:
    """For each 4-blade m4, the 16 triples (row, m3, sign) with e_j in
    m4 and m3 a 3-blade disjoint from m4 minus e_j, such that
    -e^{m3} ^ (e_j -| e^{m4}) = sign e^{m6}, row = 7 j + p for the
    position p of m6 in the grade-6 blade order: minus the contraction
    sign times merge_sign.  560 entries in all."""
    table = {}
    for m4 in BLADES_BY_GRADE[4]:
        rows = []
        for j in range(7):
            if m4 >> j & 1:
                rest = m4 ^ (1 << j)
                sign = merge_sign(1 << j, rest)
                # each 6-blade m6 that contains rest, with m3 = m6 - rest
                rows += [(7 * j + p, m6 ^ rest,
                          -sign * merge_sign(m6 ^ rest, rest))
                         for p, m6 in enumerate(BLADES_BY_GRADE[6])
                         if m6 & rest == rest]
        table[m4] = tuple(rows)
    return table


def b2_rhs(a1: Form, h1: Form, a2: Form, h2: Form) -> list:
    """The right-hand side -(h1 ^ (e_j -| a2) + h2 ^ (e_j -| a1)),
    j = 1..7, of the b2 solve as one flat vector of 49 coefficients,
    j-major in the grade-6 blade order, read off the sign table
    (_bilinear); for the diagonal b2(a, a) one half is computed and
    added to itself."""
    diagonal = a1 is a2 and h1 is h2
    halves = [(a2, h1)] if diagonal else [(a2, h1), (a1, h2)]
    rhs = _bilinear(_rhs_table(), halves, 49)
    return [v + v for v in rhs] if diagonal else rhs


def _b2_numerators(n1: Form, n2: Form, fr: G2Frame) -> tuple[list, int]:
    """(x, s) with b2(n1, n2) = x / s for integer numerators n_k."""
    h1, L = fr.hat_numerators(n1)
    h2 = h1 if n2 is n1 else fr.hat_numerators(n2)[0]
    x, s = fr.solve_three_form_numerators(b2_rhs(n1, h1, n2, h2))
    return x, s * L


def b2(a1: Form, a2: Form, frame: G2Frame | None = None) -> Form:
    """The symmetric bilinear cocycle on 4-forms, by exact linear solve."""
    fr = frame or standard_frame()
    if a1.grade != 4 or a2.grade != 4:
        raise GradeError("b2 needs two 4-forms")
    (n1, n2), d = numerators(a1, a2)
    x, s = _b2_numerators(n1, n2, fr)
    return form_from_coords(3, [over(v, s * d * d) for v in x])


def _pure27_numerators(a: Form, fr: G2Frame,
                       caller: str) -> tuple[Form, Form, int]:
    """(n, *n, d), a = n / d, for a 4-form a of pure 27 type (checked);
    the grade error names the caller."""
    if a.grade != 4:
        raise GradeError(f"{caller} needs a 4-form")
    (n,), d = numerators(a)
    star = hodge(n)
    fr.require_pure27("form is not of pure 27 type", star)
    return n, star, d


def _closed_numerator(n: Form, fr: G2Frame) -> tuple[list, Form]:
    """(U, N) = (quadratic_upper(n, n), 7 d^2 Q2(n / d))."""
    U = quadratic_upper(n, n)
    t = sum(U[k] for k in DIAGONAL)
    return U, 2 * norm_sq(n) * fr.phi - fr.iso_i(SymTensor.from_upper(
        [7 * x - t if k in DIAGONAL else 7 * x for k, x in enumerate(U)]))


def _route_error(what: str, n: Form, d: int, scale: int, *routes):
    """The error of a failed route check: what failed, each route's
    value by name (routes holds (name, numerator) pairs, each numerator
    over scale) and the input form n / d as JSON."""
    values = ", ".join(f"{name} {over(x, scale)}" for name, x in routes)
    form = Form(n.grade, {m: over(c, d) for m, c in n.terms.items()})
    return InternalConsistencyError(
        f"{what}: {values} at {json.dumps(form_to_json(form))}")


def _solved_numerator(n: Form, d: int, fr: G2Frame) -> tuple[list, Form]:
    """_closed_numerator, with N / 7 checked against b2(n, n); a raise
    names both routes' coefficient of Q2(n / d) on the first blade where
    they differ."""
    U, N = _closed_numerator(n, fr)
    x, s = _b2_numerators(n, n, fr)
    for v, c, m in zip(x, form_to_coords(N), BLADES_BY_GRADE[3]):
        if 7 * v != s * c:
            raise _route_error("Q2 closed form disagrees with the b2 solve on "
                               f"blade {blade_indices(m)}", n, d,
                               7 * s * d * d, ("closed form", s * c),
                               ("b2 solve", 7 * v))
    return U, N


def _q_numerator(n: Form, d: int, inv_star: list, fr: G2Frame):
    """vol(N ^ n) = 7 d^3 Q(n / d) by both routes, inv_star the upper
    triangle of 2 i^{-1}(*n) (G2Frame.iso_i_inv_upper), which the caller
    holds."""
    U, N = _solved_numerator(n, d, fr)
    v, tensor = vol_coefficient(wedge(N, n)), -7 * upper_inner(U, inv_star)
    if v != tensor:
        raise _route_error("the two routes to Q disagree", n, d, 7 * d ** 3,
                           ("wedge", v), ("tensor", tensor))
    return v


def q2_closed_form(a: Form, frame: G2Frame | None = None) -> Form:
    """Closed form of the diagonal cocycle on the 27-summand:

        Q2(a) = -i(q0(a, a)) + (2/7) |a|^2 phi,

    valid only for a of pure 27 type (checked).
    """
    fr = frame or standard_frame()
    n, _, d = _pure27_numerators(a, fr, "q2_closed_form")
    N = _closed_numerator(n, fr)[1]
    return Form(3, {m: over(c, 7 * d * d) for m, c in N.terms.items()})


def q2(a: Form, frame: G2Frame | None = None) -> Form:
    """Q2 on the 27-summand, computed through the closed form and through
    the linear solve, cross-checked."""
    fr = frame or standard_frame()
    n, _, d = _pure27_numerators(a, fr, "q2")
    N = _solved_numerator(n, d, fr)[1]
    return Form(3, {m: over(c, 7 * d * d) for m, c in N.terms.items()})


def q_value(a: Form, frame: G2Frame | None = None):
    """The cubic scalar Q(a), with Q(a) vol = Q2(a) ^ a, for a of pure
    27 type.  Checked against -2 <q(a,a), i^{-1}(*a)>.  Q = 0 is int 0,
    the volume coefficient of a wedge that vanishes."""
    fr = frame or standard_frame()
    n, star, d = _pure27_numerators(a, fr, "q_value")
    v = _q_numerator(n, d, fr.iso_i_inv_upper(star), fr)
    return over(v, 7 * d ** 3) if v else v


def p_numerator(n: Form, inv: list):
    """d^3 P(n / d) = 2 <p(n, n), i^{-1}(n)>, n of pure 27 type (unchecked),
    inv the upper triangle of 2 i^{-1}(n) (G2Frame.iso_i_inv_upper)."""
    return upper_inner(quadratic_upper(n, n), inv)


def p_value(b: Form, frame: G2Frame | None = None):
    """The cubic scalar on 3-forms of pure 27 type,

        P(b) = 2 <p(b, b), i^{-1}(b)> = Q(*b),

    with both sides computed and compared."""
    fr = frame or standard_frame()
    if b.grade != 3:
        raise GradeError("p_value needs a 3-form")
    (n,), d = numerators(b)
    fr.require_pure27(OUTSIDE_27, n)
    # P and Q's tensor route share 2 i^{-1}(n); the wedge value of Q,
    # which P is compared with, reads no i^{-1}
    inv = fr.iso_i_inv_upper(n)
    direct, q = p_numerator(n, inv), _q_numerator(hodge(n), d, inv, fr)
    if 7 * direct != q:
        raise _route_error("P(b) != Q(*b)", n, d, 7 * d ** 3,
                           ("P(b)", 7 * direct), ("Q(*b)", q))
    return over(direct, d ** 3)


def trilinear(S1: SymTensor, S2: SymTensor, S3: SymTensor):
    """The trilinear form <b2(*i(S1), *i(S2)), i(S3)> on traceless
    symmetric tensors.  Fully symmetric under permutations."""
    fr = standard_frame()
    b_1, b_2 = fr.iso_i(S1), fr.iso_i(S2)
    return inner(b2(hodge(b_1), hodge(b_2), fr), fr.iso_i(S3))


def trilinear_direct(S1: SymTensor, S2: SymTensor, S3: SymTensor):
    """<p(i(S1), i(S2)), S3>, the same form up to the overall factor 2
    carried by the cocycle route: trilinear = 2 * trilinear_direct.  It
    pairs 2 p(n1, n2) with the numerators of S3, for i(S_k) = n_k / d
    and S3's triangle over e, and rescales once, by 1/(2 d^2 e)."""
    fr = standard_frame()
    (n1, n2), d = numerators(fr.iso_i(S1), fr.iso_i(S2))
    t, e = clear_denominators(S3.upper)
    return over(upper_inner(quadratic_upper(n1, n2), t), 2 * d * d * e)


def trilinear_star_route(S1: SymTensor, S2: SymTensor, S3: SymTensor):
    """Derived-action route: <S3 * i(S1), i(S2)> + <S3 * i(S2), i(S1)>."""
    fr = standard_frame()
    b_1, b_2, A3 = fr.iso_i(S1), fr.iso_i(S2), S3.to_matrix()
    return inner(star_action(A3, b_1), b_2) + inner(star_action(A3, b_2), b_1)
