"""Tests for the cocycle b2 and the cubic scalars Q and P."""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from g2forge import cubic
from g2forge import exterior as ext
from g2forge.cubic import _pair_table, b2, b2_rhs, p_value, q2, \
    q2_closed_form, q_value, quadratic_form, quadratic_upper, trilinear, \
    trilinear_direct, trilinear_star_route
from g2forge.exterior import blade, form_to_json, hodge, inner, vector, \
    vol_coefficient, wedge
from g2forge.g2 import G2Frame, InternalConsistencyError, \
    TypeDecompositionError, random_traceless, star_action
from g2forge.linalg import SymTensor, upper_inner
from g2forge.scalars import QuadExt

import reference


def test_quadratic_form_basic(g2frame):
    # on the 3-form phi: <v -| phi, w -| phi> = 3 g(v, w)
    assert quadratic_form(g2frame.phi, g2frame.phi) == SymTensor.diag([1] * 7).scale(3)
    assert reference.traceless_part(quadratic_form(g2frame.phi, g2frame.phi)) \
        == SymTensor.diag([0] * 7)
    # on psi the count is 4 per index
    assert quadratic_form(g2frame.psi, g2frame.psi) == SymTensor.diag([1] * 7).scale(4)


def test_quadratic_form_symmetric_bilinear(g2frame):
    rng = random.Random(8001)
    for _ in range(5):
        S1, S2 = random_traceless(rng, 3), random_traceless(rng, 3)
        a1, a2 = g2frame.iso_i(S1), g2frame.iso_i(S2)
        q12 = quadratic_form(a1, a2)
        assert q12 == quadratic_form(a2, a1)
        a3 = g2frame.iso_i(random_traceless(rng, 3))
        assert quadratic_form(a1 + a3, a2).upper == [
            x + y for x, y in zip(q12.upper, quadratic_form(a3, a2).upper)]


def _contractions(a):
    return [ext.contract(vector(i), a) for i in range(1, 8)]


def test_quadratic_form_matches_full_square():
    # the upper triangle, mirrored, against all 49 pairings; the shortcut
    # for a1 is a2 against an equal copy
    rng = random.Random(8002)
    half = Fraction(1, 2)
    for grade in (3, 4):
        for _ in range(3):
            a1 = ext.Form(grade, {m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for m in ext.BLADES_BY_GRADE[grade]})
            a2 = ext.Form(grade, {m: rng.randint(-4, 4)
                                  for m in ext.BLADES_BY_GRADE[grade]})
            c1, c2 = _contractions(a1), _contractions(a2)
            full = SymTensor([[half * (inner(c1[i], c2[j]) + inner(c2[i], c1[j]))
                               for j in range(7)] for i in range(7)])
            assert quadratic_form(a1, a2) == full
            copy = ext.Form(grade, dict(a1.terms))
            assert quadratic_form(a1, a1) == quadratic_form(a1, copy)


def test_quadratic_form_grade_checks():
    with pytest.raises(ext.GradeError):
        quadratic_form(blade([1, 2]), blade([1, 2, 3]))
    with pytest.raises(ext.GradeError):
        quadratic_form(ext.Form.zero(0), ext.Form.zero(0))


def test_b2_symmetric_bilinear(g2frame):
    rng = random.Random(8002)
    for _ in range(5):
        a1 = g2frame.iso_i_psi(random_traceless(rng, 3))
        a2 = g2frame.iso_i_psi(random_traceless(rng, 3))
        g12 = b2(a1, a2, g2frame)
        assert g12.grade == 3
        assert g12 == b2(a2, a1, g2frame)
        a3 = g2frame.iso_i_psi(random_traceless(rng, 3))
        assert b2(a1 + a3, a2, g2frame) == g12 + b2(a3, a2, g2frame)
    with pytest.raises(ext.GradeError):
        b2(g2frame.phi, g2frame.psi, g2frame)


def test_b2_defining_identity(g2frame):
    rng = random.Random(8003)
    for _ in range(3):
        a1 = g2frame.iso_i_psi(random_traceless(rng, 3))
        a2 = g2frame.iso_i_psi(random_traceless(rng, 3))
        g12 = b2(a1, a2, g2frame)
        h1, h2 = g2frame.hat(a1), g2frame.hat(a2)
        for j in range(1, 8):
            v = vector(j)
            combo = wedge(g12, ext.contract(v, g2frame.psi)) \
                + wedge(h1, ext.contract(v, a2)) \
                + wedge(h2, ext.contract(v, a1))
            assert combo.is_zero()


def _random_coeff_form(rng, grade, kind, density):
    terms = {}
    for m in ext.BLADES_BY_GRADE[grade]:
        if rng.random() < density:
            c = rng.randint(-3, 3)
            if kind is Fraction:
                c = Fraction(c, rng.randint(1, 3))
            elif kind is QuadExt:
                c = QuadExt(Fraction(c, 2), rng.randint(-2, 2))
            terms[m] = c
    return ext.Form(grade, terms)


@pytest.mark.parametrize("kind", [int, Fraction, QuadExt])
@pytest.mark.parametrize("density", [0.1, 1.0])
def test_b2_rhs_matches_wedge_formula(kind, density):
    # the flat sign table gives the same right-hand side as the 14 wedges
    # -(h1 ^ (e_j -| a2) + h2 ^ (e_j -| a1)), entry types included
    rng = random.Random(8010)
    for _ in range(4):
        a1, a2 = (_random_coeff_form(rng, 4, kind, density) for _ in range(2))
        h1, h2 = (_random_coeff_form(rng, 3, kind, density) for _ in range(2))
        # a pair, and the diagonal b2(a, a) that computes one half
        for args in ((a1, h1, a2, h2), (a1, h1, a1, h1)):
            got, want = b2_rhs(*args), reference.b2_rhs(*args)
            assert len(got) == 49 and got == want
            assert [type(c) for c in got if c] == [type(c) for c in want if c]


def test_q2_closed_form_matches_solve(g2frame):
    rng = random.Random(8004)
    for _ in range(5):
        a = g2frame.iso_i_psi(random_traceless(rng, 3))
        q = q2(a, g2frame)
        assert q == q2_closed_form(a, g2frame)
        assert q == b2(a, a, g2frame)
        p1, p7, p27 = g2frame.project3(q)
        assert p7.is_zero()


def test_q2_requires_pure_27_type(g2frame):
    with pytest.raises(TypeDecompositionError):
        q2_closed_form(g2frame.psi, g2frame)
    with pytest.raises(TypeDecompositionError):
        q2_closed_form(wedge(vector(1), g2frame.phi), g2frame)
    with pytest.raises(ext.GradeError):
        q2_closed_form(g2frame.phi, g2frame)


def test_q_value_diagonal_example(g2frame):
    # S = diag(1,1,-2,...) type tensors give clean cubic values
    S = SymTensor.diag([1, 1, -2, 0, 0, 0, 0])
    a = g2frame.iso_i_psi(S)
    val = q_value(a, g2frame)
    assert val == vol_coefficient(wedge(q2(a, g2frame), a))
    assert val == -2 * reference.sym_inner(quadratic_form(a, a),
                                           g2frame.iso_i_inv(hodge(a)))


def test_p_equals_q_of_star(g2frame):
    rng = random.Random(8005)
    for _ in range(5):
        S = random_traceless(rng, 3)
        b = g2frame.iso_i(S)
        assert p_value(b, g2frame) == q_value(hodge(b), g2frame)
    with pytest.raises(ext.GradeError):
        p_value(g2frame.psi, g2frame)


def test_p_value_cubic_scaling(g2frame):
    S = SymTensor.diag([2, -1, -1, 1, 0, -1, 0])
    b = g2frame.iso_i(S)
    base = p_value(b, g2frame)
    assert p_value(3 * b, g2frame) == 27 * base


def test_trilinear_fully_symmetric():
    rng = random.Random(8006)
    for _ in range(10):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        base = trilinear_direct(S1, S2, S3)
        for perm in itertools.permutations((S1, S2, S3)):
            assert trilinear_direct(*perm) == base


def test_trilinear_routes_agree():
    # the cocycle route carries a global factor 2 over the direct route
    rng = random.Random(8007)
    for _ in range(5):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        direct = trilinear_direct(S1, S2, S3)
        assert trilinear(S1, S2, S3) == 2 * direct
        assert trilinear_star_route(S1, S2, S3) == 2 * direct


def test_trilinear_diagonal_matches_p(g2frame):
    rng = random.Random(8008)
    for _ in range(5):
        S = random_traceless(rng, 3)
        b = g2frame.iso_i(S)
        assert p_value(b, g2frame) == 2 * trilinear_direct(S, S, S)


# -- integer-numerator kernels against the generic routes --------------------
#
# The references (tests/reference.py) are the scalar-generic kernels as
# they ran before the kernels cleared denominators.

_PARITY_KINDS = {
    "int": lambda rng: rng.randint(-6, 6),
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
    "quadext": lambda rng: QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 6))),
}


def _parity_form(rng, grade, draw, density):
    return ext.Form(grade, {m: draw(rng) for m in ext.BLADES_BY_GRADE[grade]
                            if rng.random() < density})


def _parity_traceless(rng, draw, density):
    e = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            if rng.random() < density:
                e[i][j] = e[j][i] = draw(rng)
    e[6][6] = -sum(e[i][i] for i in range(6))
    return SymTensor(e)


def _types(values):
    return [type(x) for x in values]


def _form_types(a):
    return {m: type(c) for m, c in a.terms.items()}


def _tensor_entries(S):
    return [x for row in S.entries for x in row]


@pytest.mark.parametrize("kind", sorted(_PARITY_KINDS))
def test_integer_numerator_kernels_match_generic_routes(g2frame, kind):
    """quadratic_form, iso_i, iso_i_psi, iso_i_inv, the type splits,
    upper_inner, b2, q2_closed_form, q2, q_value and p_value clear
    denominators on entry and rescale once; values and entry types must
    equal the generic routes'."""
    fr = g2frame
    draw = _PARITY_KINDS[kind]
    rng = random.Random(8020)
    cancelled_zero = empty_pairing = False
    for density in (0.3, 1.0):
        for _ in range(3):
            # the (1, 7, 27) splits on 3- and 4-forms
            for grade in (3, 4):
                a1 = _parity_form(rng, grade, draw, density)
                split = fr.project3 if grade == 3 else fr.project4
                for got, want in zip(split(a1), reference.type_split(fr, a1)):
                    assert got == want
                    assert _form_types(got) == _form_types(want)
            # iso_i and iso_i_psi on a traceless tensor
            S = _parity_traceless(rng, draw, density)
            b = fr.iso_i(S)
            assert b == star_action(S.to_matrix(), fr.phi)
            assert _form_types(b) == \
                _form_types(star_action(S.to_matrix(), fr.phi))
            assert fr.iso_i_psi(S) == star_action(S.to_matrix(), fr.psi)
            assert _form_types(fr.iso_i_psi(S)) == \
                _form_types(star_action(S.to_matrix(), fr.psi))
            # the signed sums of iso_i_inv_upper against the sums of
            # products, int 0 where b has no blade of f_ij
            got = fr.iso_i_inv_upper(b)
            want = reference.upper_of(reference.iso_i_inv_pairings(fr, b))
            assert got == want
            assert _types(got) == _types(want)
            empty_pairing = empty_pairing or any(
                type(x) is int and x == 0 for x in got)
            # iso_i_inv on the 27-type image, and the pairing with S
            got, want = fr.iso_i_inv(b), reference.iso_i_inv(fr, b)
            assert got == want
            assert _types(_tensor_entries(got)) == _types(_tensor_entries(want))
            for T1, T2 in ((got, S), (S, S), (got, quadratic_form(b, b))):
                value = upper_inner(T1.upper, T2.upper)
                ref = reference.sym_inner(T1, T2)
                assert value == ref and type(value) is type(ref)
            cancelled_zero = cancelled_zero or any(
                type(x) is Fraction and x == 0 for x in _tensor_entries(got))
            # b2 on a pair and on the diagonal
            a1, a2 = (_parity_form(rng, 4, draw, density) for _ in range(2))
            for x, y in ((a1, a2), (a1, a1)):
                got, want = b2(x, y, fr), reference.b2(fr, x, y)
                assert got == want
                assert _form_types(got) == _form_types(want)
            # q2, Q and P on the pure-27 forms *i(S) and i(S): the values
            # and entry types of the Fraction compositions, q2 also the
            # value of the dense solve
            a = hodge(b)
            want = reference.q2_closed_form(fr, a)
            for got in (q2_closed_form(a, fr), q2(a, fr)):
                assert got == want
                assert _form_types(got) == _form_types(want)
            assert q2(a, fr) == reference.b2(fr, a, a)
            value, routes = q_value(a, fr), reference.q_routes(fr, a)
            assert routes[0] == routes[1] == value
            assert type(value) is type(routes[0])
            value, want = p_value(b, fr), reference.p_value(fr, b)
            assert value == want == routes[0]
            assert type(value) is type(want)
    # a vanishing iso_i_inv entry is Fraction(0) for every scalar type
    assert cancelled_zero and empty_pairing


def _sparse_form(rng, grade, draw, count):
    """A form with nonzero coefficients on count distinct blades (every
    blade when the grade has fewer)."""
    blades = ext.BLADES_BY_GRADE[grade]
    terms = {}
    for m in rng.sample(blades, min(count, len(blades))):
        while not terms.get(m):
            terms[m] = draw(rng)
    return ext.Form(grade, terms)


def _parity_pairs(rng, grade, draw):
    """Pairs of forms: two at density 0.3 and two at density 1.0, then
    two with 0, 1, 2 and 3 blades each, which the blade-driven kernels
    must handle as the dense routes do."""
    for density in (0.3, 1.0):
        for _ in range(2):
            yield tuple(_parity_form(rng, grade, draw, density)
                        for _ in range(2))
    for count in range(4):
        for _ in range(2):
            yield tuple(_sparse_form(rng, grade, draw, count)
                        for _ in range(2))


@pytest.mark.parametrize("kind", sorted(_PARITY_KINDS))
@pytest.mark.parametrize("grade", range(1, 8))
def test_pair_table_matches_contract_inner_route(kind, grade):
    """quadratic_upper reads p off the blade-major pair table of the
    grade (one triple per blade pair with m - e_i = m' - e_j: C(5, k-1)
    choices of the common part for i != j, C(6, k-1) for i = j); it must
    give the values and entry types of the contract/inner route on the
    diagonal, on a pair and on an equal copy, in the coefficients' own
    type, dense, sparse and empty, and so must quadratic_form after its
    rescale."""
    table = _pair_table(grade)
    assert set(table) == set(ext.BLADES_BY_GRADE[grade])
    assert sum(map(len, table.values())) == \
        21 * comb(5, grade - 1) + 7 * comb(6, grade - 1)
    draw = _PARITY_KINDS[kind]
    rng = random.Random(8030 + grade)
    seen_empty = False
    for a1, a2 in _parity_pairs(rng, grade, draw):
        copy = ext.Form(grade, dict(a1.terms))
        for x, y in ((a1, a1), (a1, a2), (a1, copy)):
            got, want = quadratic_upper(x, y), reference.quadratic_upper(x, y)
            assert got == want
            assert _types(got) == _types(want)
            seen_empty = seen_empty or any(
                type(v) is int and v == 0 for v in got)
            got, want = quadratic_form(x, y), reference.quadratic_form(x, y)
            assert got == want
            assert _types(_tensor_entries(got)) == \
                _types(_tensor_entries(want))
        # the diagonal shortcut against the polarized sum of a copy
        assert quadratic_upper(a1, copy) == \
            [x + x for x in quadratic_upper(a1, a1)]
    # an entry with no product in its sum stays int 0
    assert seen_empty


@pytest.mark.parametrize("kind", sorted(_PARITY_KINDS))
def test_blade_index_kernels_match_generic_routes(g2frame, kind):
    """iso_i_inv_upper and is_pure27 scatter the blades of a 3-form into
    their signed sums through blade-major indexes; on dense, sparse and
    empty 3-forms, of pure 27 type (i(S)) and general, the 49 sums must
    have the values and entry types of the sums of products, and the
    gate must agree with project3."""
    fr = g2frame
    draw = _PARITY_KINDS[kind]
    rng = random.Random(8031)
    forms = [b for pair in _parity_pairs(rng, 3, draw) for b in pair]
    forms += [fr.iso_i(_parity_traceless(rng, draw, density))
              for density in (0.05, 0.1, 0.3, 1.0)]
    seen = set()
    for b in forms:
        p1, p7, _ = fr.project3(b)
        pure = p1.is_zero() and p7.is_zero()
        assert fr.is_pure27(b) is pure
        seen.add(pure)
        want = reference.iso_i_inv_pairings(fr, b)
        if not pure and any(want[i][j] != want[j][i]
                            for i in range(7) for j in range(i)):
            with pytest.raises(InternalConsistencyError, match="symmetric"):
                fr.iso_i_inv_upper(b)
            continue
        if sum(want[i][i] for i in range(7)) != 0:
            with pytest.raises(InternalConsistencyError, match="traceless"):
                fr.iso_i_inv_upper(b)
            continue
        got = fr.iso_i_inv_upper(b)
        want = reference.upper_of(want)
        assert got == want
        assert _types(got) == _types(want)
    assert seen == {True, False}


# -- q2, Q and P on numerators: zeros, the error surface, the cross-checks ----

def _off_diagonal_pair(c):
    e = [[0] * 7 for _ in range(7)]
    e[0][1] = e[1][0] = c
    return SymTensor(e)


@pytest.mark.parametrize("c", [3, Fraction(1, 2), QuadExt(Fraction(1, 3), 2)],
                         ids=["int", "fraction", "quadext"])
def test_vanishing_q_and_p_keep_their_types(g2frame, c):
    """Q = 0 is int 0, the volume coefficient of a vanishing wedge, for
    every scalar type; P = 0 is Fraction(0), or QuadExt(0) for QuadExt
    coefficients, as the Fraction compositions give them."""
    b = g2frame.iso_i(_off_diagonal_pair(c))
    a = hodge(b)
    q, via_wedge = q_value(a, g2frame), reference.q_routes(g2frame, a)[0]
    assert q == via_wedge == 0 and type(q) is int is type(via_wedge)
    p, want = p_value(b, g2frame), reference.p_value(g2frame, b)
    assert p == want == 0 and type(p) is type(want)
    assert type(p) is (QuadExt if isinstance(c, QuadExt) else Fraction)


_NOT_PURE = "form is not of pure 27 type"
_OUTSIDE = "form has components outside the 27-dimensional summand"
# (label, input, exception class, message) outside the domain of q2,
# q2_closed_form and q_value, and of p_value
_Q_DOMAIN_ERRORS = [
    ("phi", lambda fr: fr.phi, ext.GradeError, "{} needs a 4-form"),
    ("2-form", lambda fr: blade([1, 2]), ext.GradeError, "{} needs a 4-form"),
    ("psi", lambda fr: fr.psi, TypeDecompositionError, _NOT_PURE),
    ("e1^phi", lambda fr: wedge(vector(1), fr.phi), TypeDecompositionError,
     _NOT_PURE),
    ("27+psi/3", lambda fr: fr.iso_i_psi(SymTensor.diag([1, 1, -2, 0, 0, 0, 0]))
     + Fraction(1, 3) * fr.psi, TypeDecompositionError, _NOT_PURE),
    ("27+e3^phi", lambda fr: fr.iso_i_psi(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
     + fr.phi_wedges[2], TypeDecompositionError, _NOT_PURE),
]
_P_DOMAIN_ERRORS = [
    ("psi", lambda fr: fr.psi, ext.GradeError, "p_value needs a 3-form"),
    ("phi", lambda fr: fr.phi, TypeDecompositionError, _OUTSIDE),
    ("e1-|psi", lambda fr: fr.kappa[0], TypeDecompositionError, _OUTSIDE),
    ("27+phi/2", lambda fr: fr.iso_i(SymTensor.diag([2, -1, -1, 0, 0, 0, 0]))
     + Fraction(1, 2) * fr.phi, TypeDecompositionError, _OUTSIDE),
    ("27+e4-|psi", lambda fr: fr.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
     + fr.kappa[3], TypeDecompositionError, _OUTSIDE),
]


def _raises_exactly(fn, exc, message):
    with pytest.raises(exc) as info:
        fn()
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("fn", [q2_closed_form, q2, q_value],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("label,build,exc,message", _Q_DOMAIN_ERRORS,
                         ids=[c[0] for c in _Q_DOMAIN_ERRORS])
def test_q_error_surface(g2frame, fn, label, build, exc, message):
    """Wrong grades and forms outside the 27 type raise the class and
    message of the closed form's gate, whichever of the three runs; the
    grade error names the function that was called."""
    _raises_exactly(lambda: fn(build(g2frame), g2frame), exc,
                    message.format(fn.__name__))


@pytest.mark.parametrize("label,build,exc,message", _P_DOMAIN_ERRORS,
                         ids=[c[0] for c in _P_DOMAIN_ERRORS])
def test_p_error_surface(g2frame, label, build, exc, message):
    """P raises the grade error and the gate message of iso_i_inv."""
    _raises_exactly(lambda: p_value(build(g2frame), g2frame), exc, message)


@pytest.mark.parametrize("kind", sorted(_PARITY_KINDS))
def test_q_type_gate_agrees_with_project4(g2frame, kind):
    """The gate of q2, q2_closed_form and q_value is is_pure27 on the
    hodge star of the numerators; it must agree with project4 on psi, on
    e1 ^ phi and on random mixtures of the 1-, 7- and 27-type parts."""
    fr = g2frame
    draw = _PARITY_KINDS[kind]
    rng = random.Random(8040)
    cases = [fr.psi, wedge(vector(1), fr.phi)]
    for _ in range(24):
        a = fr.iso_i_psi(_parity_traceless(rng, draw, 1.0))
        if rng.random() < 0.5:
            a = a + draw(rng) * fr.psi
        if rng.random() < 0.5:
            a = a + draw(rng) * rng.choice(fr.phi_wedges)
        cases.append(a)
    seen = set()
    for a in cases:
        p1, p7, _ = fr.project4(a)
        pure = p1.is_zero() and p7.is_zero()
        (n,), _ = ext.numerators(a)
        assert fr.is_pure27(hodge(n)) == pure
        if pure:
            assert q2_closed_form(a, fr) == reference.q2_closed_form(fr, a)
        else:
            _raises_exactly(lambda: q2_closed_form(a, fr),
                            TypeDecompositionError, _NOT_PURE)
        seen.add(pure)
    assert seen == {True, False}


def perturb_solve(monkeypatch):
    """Put the b2 solve off by one in its first coordinate."""
    solve = G2Frame.solve_three_form_numerators

    def perturbed(self, rhs):
        x, s = solve(self, rhs)
        return [x[0] + 1] + x[1:], s
    monkeypatch.setattr(G2Frame, "solve_three_form_numerators", perturbed)


def perturb_inverse(monkeypatch):
    """Put the first diagonal entry of every i^{-1} triangle off by one."""
    inverse = G2Frame.iso_i_inv_upper

    def perturbed(self, n):
        upper = inverse(self, n)
        return [upper[0] + 1] + upper[1:]
    monkeypatch.setattr(G2Frame, "iso_i_inv_upper", perturbed)


def perturb_three_form_route(monkeypatch):
    """Put P's 3-form route off by one."""
    numerator = cubic.p_numerator
    monkeypatch.setattr(cubic, "p_numerator",
                        lambda n, inv: numerator(n, inv) + 1)


def _raises_naming(fn, message, form):
    """fn raises an InternalConsistencyError with the message, then both
    routes' values, then the form it names as JSON."""
    with pytest.raises(InternalConsistencyError) as info:
        fn()
    text = str(info.value)
    assert type(info.value) is InternalConsistencyError
    assert text.startswith(message + ": ")
    assert text.endswith(f" at {json.dumps(form_to_json(form))}")


def test_perturbed_solve_fails_q2(g2frame, monkeypatch):
    """A b2 solve that is off in one coordinate makes q2, and so Q and
    P, raise: the closed form is cross-multiplied with the solve.  The
    raise names the first blade where the two differ, both values there
    and the 4-form whose Q2 failed, *b for P."""
    S = SymTensor.diag([1, 1, -2, 0, 0, 0, 0])
    a, b = g2frame.iso_i_psi(S), g2frame.iso_i(S)
    perturb_solve(monkeypatch)
    message = "Q2 closed form disagrees with the b2 solve on blade (1, 2, 3)"
    for fn, arg, named in ((q2, a, a), (q_value, a, a),
                           (p_value, b, hodge(b))):
        _raises_naming(lambda: fn(arg, g2frame), message, named)
    q2_closed_form(a, g2frame)


def test_perturbed_inverse_fails_q(g2frame, monkeypatch):
    """An i^{-1} triangle that is off in one entry makes the tensor route
    of Q disagree with the wedge; q2 does not use it."""
    a = g2frame.iso_i_psi(SymTensor.diag([1, 1, -2, 0, 0, 0, 0]))
    perturb_inverse(monkeypatch)
    _raises_naming(lambda: q_value(a, g2frame),
                   "the two routes to Q disagree", a)
    q2(a, g2frame)


def test_perturbed_three_form_route_fails_p(g2frame, monkeypatch):
    """A 3-form route that is off by one makes P disagree with Q(*b),
    and the raise names both values and b."""
    b = g2frame.iso_i(SymTensor.diag([2, -1, -1, 1, 0, -1, 0]))
    p = p_value(b, g2frame)
    perturb_three_form_route(monkeypatch)
    _raises_exactly(lambda: p_value(b, g2frame), InternalConsistencyError,
                    f"P(b) != Q(*b): P(b) {p + 1}, Q(*b) {p} at "
                    f"{json.dumps(form_to_json(b))}")
    q_value(hodge(b), g2frame)
