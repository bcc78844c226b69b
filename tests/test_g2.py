"""Tests for the G2 frame: type decompositions, hat, and the 27-isomorphism."""

import random
from fractions import Fraction

import pytest

from g2forge import cubic, g2, linalg
from g2forge import exterior as ext
from g2forge.exterior import blade, contract, coords_of, hodge, inner, \
    norm_sq, vector, vector_form, vol_coefficient, wedge
from g2forge.g2 import G2Frame, InconsistentSystemError, \
    InternalConsistencyError, TypeDecompositionError, random_traceless, \
    standard_frame, star_action, two_form_endo
from g2forge.linalg import Matrix, SymTensor, rank
from g2forge.scalars import QuadExt

import reference
from test_acceptance import iso_identities_hold


def random_form(rng, grade, bound=4):
    masks = [m for m in range(128) if bin(m).count("1") == grade]
    return ext.Form(grade, {m: Fraction(rng.randint(-bound, bound))
                            for m in masks})


def test_type_dimensions(g2frame):
    for grade, dims in ((2, [7, 14]), (3, [1, 7, 27]), (4, [1, 7, 27])):
        mats = reference.projector_matrices(g2frame, grade)
        assert [rank(P) for P in mats] == dims


def test_projectors_idempotent_orthogonal_complete(g2frame):
    for grade in (2, 3, 4):
        mats = reference.projector_matrices(g2frame, grade)
        n = len(mats[0].to_rows())
        for i, P in enumerate(mats):
            assert P * P == P
            for j, Q in enumerate(mats):
                if j != i:
                    assert P * Q == reference.zeros(n, n)
        total = reference.matrix_combination(*((1, P) for P in mats))
        assert total == Matrix.diagonal([1] * n)


def test_split_matches_projector_matrices(g2frame):
    # the rank, idempotence and completeness tests above speak about the
    # dense matrices; the low-rank split in use must equal them exactly
    rng = random.Random(7011)
    for grade, split in ((2, g2frame.project2), (3, g2frame.project3),
                         (4, g2frame.project4)):
        mats = reference.projector_matrices(g2frame, grade)
        blades = [ext.Form(grade, {m: 1}) for m in ext.BLADES_BY_GRADE[grade]]
        samples = [random_form(rng, grade) * Fraction(1, k)
                   for k in range(1, 11)]
        for a in blades + samples:
            coords = ext.form_to_coords(a)
            dense = tuple(ext.form_from_coords(grade, P.apply(coords))
                          for P in mats)
            assert split(a) == dense


def test_projection_sums_reassemble(g2frame):
    rng = random.Random(7001)
    for _ in range(10):
        a2 = random_form(rng, 2)
        p7, p14 = g2frame.project2(a2)
        assert p7 + p14 == a2
        a3 = random_form(rng, 3)
        assert sum(g2frame.project3(a3), ext.Form.zero(3)) == a3
        a4 = random_form(rng, 4)
        assert sum(g2frame.project4(a4), ext.Form.zero(4)) == a4


def test_two_form_eigenvalues(g2frame):
    # *(phi ^ .) has eigenvalue -2 on the 7-part and +1 on the 14-part
    lam7, lam14 = reference.two_form_eigenvalues(g2frame)
    assert (lam7, lam14) == (Fraction(-2), Fraction(1))
    rng = random.Random(7002)
    for _ in range(10):
        p7, p14 = g2frame.project2(random_form(rng, 2))
        assert hodge(wedge(g2frame.phi, p7)) == lam7 * p7
        assert hodge(wedge(g2frame.phi, p14)) == lam14 * p14


def test_hat_defining_identity_spot_checks(g2frame):
    # the full 245-case sweep lives in the acceptance tests; a seeded
    # sample keeps this file fast.
    rng = random.Random(7003)
    for _ in range(5):
        a = random_form(rng, 4)
        h = g2frame.hat(a)
        for j in range(1, 8):
            v = vector(j)
            combo = wedge(h, contract(v, g2frame.psi)) \
                + wedge(g2frame.phi, contract(v, a))
            assert combo.is_zero()


def test_hat_of_psi_and_wedges(g2frame):
    assert g2frame.hat(g2frame.psi) == -g2frame.phi
    # the 7-type: hat acts as +* on V ^ phi
    for j in range(1, 8):
        a = wedge(vector(j), g2frame.phi)
        assert g2frame.hat(a) == hodge(a)


def test_hat_matches_linear_solver(g2frame):
    rng = random.Random(7004)
    for _ in range(3):
        a = random_form(rng, 4)
        rhs = [-wedge(g2frame.phi, contract(vector(j), a))
               for j in range(1, 8)]
        gamma = g2frame.solve_three_form(rhs)
        assert gamma == g2frame.hat(a)


def test_hat_rejects_wrong_grade(g2frame):
    with pytest.raises(ext.GradeError):
        g2frame.hat(g2frame.phi)


def test_iso_identities(g2frame):
    rng = random.Random(7005)
    for _ in range(20):
        S = random_traceless(rng)
        # S * psi by the derived action, independent of the table behind i
        assert hodge(star_action(S.to_matrix(), g2frame.psi)) \
            == -g2frame.iso_i(S)
        assert norm_sq(g2frame.iso_i(S)) == 2 * reference.sym_inner(S, S)


def test_iso_identities_catch_a_flipped_coefficient(g2frame, flip_iso_i):
    # the identities of this file and of acceptance criterion 4
    rng = random.Random(7027)
    tensors = [random_traceless(rng) for _ in range(3)]
    assert iso_identities_hold(g2frame, tensors)
    flip_iso_i()
    with pytest.raises(AssertionError):
        test_iso_identities(g2frame)
    assert not iso_identities_hold(g2frame, tensors)


def test_iso_rejects_trace(g2frame):
    with pytest.raises(TypeDecompositionError):
        g2frame.iso_i(SymTensor.diag([1] * 7))
    # iso_i_psi is -* iso_i, with the same traceless domain
    with pytest.raises(TypeDecompositionError):
        g2frame.iso_i_psi(SymTensor.diag([1, 0, 0, 0, 0, 0, 0]))


def test_iso_inverse_roundtrip(g2frame):
    rng = random.Random(7006)
    for _ in range(20):
        S = random_traceless(rng)
        assert g2frame.iso_i_inv(g2frame.iso_i(S)) == S


def test_iso_inverse_rejects_other_types(g2frame):
    with pytest.raises(TypeDecompositionError):
        g2frame.iso_i_inv(g2frame.phi)
    with pytest.raises(TypeDecompositionError):
        g2frame.iso_i_inv(contract(vector(3), g2frame.psi))
    pure27 = g2frame.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    for stray in (g2frame.phi, contract(vector(5), g2frame.psi)):
        with pytest.raises(TypeDecompositionError):
            g2frame.iso_i_inv(pure27 + Fraction(1, 3) * stray)
    with pytest.raises(ext.GradeError):
        g2frame.iso_i_inv(g2frame.psi)


def test_recovered_tensor_checks(g2frame):
    """The symmetry and trace checks of i^{-1} fire on a damaged table."""
    fr = g2frame
    off = fr.iso_i(SymTensor.sym_outer(coords_of(vector(1)), coords_of(vector(2))))
    diag = fr.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    for (i, j), b, message in (((0, 1), off, "not symmetric"),
                               ((0, 0), diag, "not traceless")):
        damaged = G2Frame.__new__(G2Frame)
        damaged._inv_functionals = list(fr._inv_functionals)
        damaged._inv_functionals[7 * i + j] = ()
        damaged._inv_index = g2._blade_index(damaged._inv_functionals, 3)
        with pytest.raises(InternalConsistencyError, match=message):
            damaged.iso_i_inv_upper(b)


def test_recovered_tensor_raises_name_the_values(g2frame, monkeypatch):
    """One signed sum of 2 i^{-1}(n) off by one: the symmetry raise names
    the first entry whose mirror differs and both sums, and the trace
    raise the trace."""
    n = g2frame.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    scattered = g2._scattered_sums
    for k, message in (
            (1, "recovered tensor is not symmetric: entry (0, 1) = 1, "
                "entry (1, 0) = 0"),
            (0, "recovered tensor is not traceless: trace 1")):
        def skewed(form, index, count, k=k):
            sums = scattered(form, index, count)
            sums[k] += 1
            return sums
        monkeypatch.setattr(g2, "_scattered_sums", skewed)
        with pytest.raises(InternalConsistencyError) as raised:
            g2frame.iso_i_inv_upper(n)
        assert str(raised.value) == message


def test_iso_pairing_identity(g2frame):
    # i(S) ^ (v -| psi) ^ w = 2 g(Sv, w) vol
    rng = random.Random(7007)
    for _ in range(20):
        S = random_traceless(rng)
        v = vector_form([Fraction(rng.randint(-4, 4)) for _ in range(7)])
        w = vector_form([Fraction(rng.randint(-4, 4)) for _ in range(7)])
        Sv = vector_form(S.apply(coords_of(v)))
        lhs = vol_coefficient(
            wedge(wedge(g2frame.iso_i(S), contract(v, g2frame.psi)), w))
        assert lhs == 2 * inner(Sv, w)


def test_pairing_matrix_rank(g2frame):
    M = g2frame.pairing_matrix()
    assert len(M.to_rows()) == 49
    assert len(M.to_rows()[0]) == 35
    assert rank(M) == 35


def test_solve_three_form_roundtrip(g2frame):
    rng = random.Random(7008)
    for _ in range(5):
        gamma = random_form(rng, 3)
        rhs = [wedge(gamma, g2frame.kappa[j]) for j in range(7)]
        assert g2frame.solve_three_form(rhs) == gamma


def test_solve_three_form_error_paths(g2frame):
    with pytest.raises(ValueError):
        g2frame.solve_three_form([ext.Form.zero(6)] * 6)
    with pytest.raises(ext.GradeError):
        g2frame.solve_three_form([ext.Form.zero(5)] * 7)
    # a right-hand side outside the image: perturb one consistent block
    gamma = blade([1, 2, 4])
    rhs = [wedge(gamma, g2frame.kappa[j]) for j in range(7)]
    rhs[0] = rhs[0] + ext.Form(6, {0b0111111: Fraction(1)})
    with pytest.raises(InconsistentSystemError):
        g2frame.solve_three_form(rhs)


def _dense_solve(frame, rhs_blocks):
    """Reference for solve_three_form: the least-squares candidate from
    the dense normal equations M^T M x = M^T rhs, then the dense
    residual on all 49 equations.
    Returns (solution, first failing row or None)."""
    M = frame.pairing_matrix()
    Mt = reference.transpose(M)
    rhs = [c for w in rhs_blocks for c in ext.form_to_coords(w)]
    x, kernel_dim = reference.solve_over_q10(Mt * M, Mt.apply(rhs))
    assert kernel_dim == 0
    bad = [r for r, (got, want) in enumerate(zip(M.apply(x), rhs))
           if got != want]
    return ext.form_from_coords(3, x), (bad[0] if bad else None)


_COEFFICIENT_KINDS = {
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    "int": lambda rng: rng.randint(-6, 6),
    "quadext": lambda rng: QuadExt(Fraction(rng.randint(-6, 6), 3),
                                   rng.randint(-4, 4)),
}


def _random_coeff_form(rng, grade, kind):
    draw = _COEFFICIENT_KINDS[kind]
    return ext.Form(grade, {m: draw(rng) for m in ext.BLADES_BY_GRADE[grade]})


@pytest.mark.parametrize("kind", sorted(_COEFFICIENT_KINDS))
def test_pure27_gate_matches_projection(g2frame, kind):
    """is_pure27 reads the eight pairings with phi and the e_j -| psi;
    it must agree with project3 on pure-27 forms, on pure-27 forms with
    one stray 1- or 7-type part, and on general forms, and reject each
    stray part alone and on a pure-27 form."""
    rng = random.Random(7025)
    draw = _COEFFICIENT_KINDS[kind]
    strays = [g2frame.phi] + g2frame.kappa
    seen = set()
    for k in range(60):
        S = reference.traceless_part(SymTensor.from_upper(
            [draw(rng) for _ in reference.UPPER]))
        b = g2frame.iso_i(S)
        if k % 3 == 1:
            b = b + draw(rng) * rng.choice(strays)
        elif k % 3 == 2:
            b = _random_coeff_form(rng, 3, kind)
        p1, p7, _ = g2frame.project3(b)
        want = p1.is_zero() and p7.is_zero()
        assert g2frame.is_pure27(b) is want
        seen.add(want)
    assert seen == {True, False}
    b = g2frame.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    c = {"int": 3, "fraction": Fraction(2, 3), "quadext": QuadExt(0, 1)}[kind]
    for stray in strays:
        assert not g2frame.is_pure27(c * stray)
        assert not g2frame.is_pure27(b + c * stray)
    with pytest.raises(ext.GradeError):
        g2frame.is_pure27(g2frame.psi)


def test_pairing_functionals_are_unit_signed(g2frame):
    """The f_ij, the rows of the pairing matrix M and the spanning forms
    of every type split (phi and the e_j -| psi on grade 3) pair as
    signed sums: the frame checks their coefficients are +-1 when it is
    built, and the check rejects any other coefficient."""
    fr = g2frame
    span3 = fr._span3[0]
    spans = [f for span in (fr._span2, fr._span3, fr._span4) for f in span[0]]
    tables = fr._inv_functionals + fr._pairing_functionals + spans
    assert len(tables) == 49 + 49 + 7 + 8 + 8
    assert {c for f in tables for _, c in f} == {1, -1}
    assert sum(map(len, fr._inv_functionals)) == 112
    assert sum(map(len, fr._pairing_functionals)) == 112
    assert sum(map(len, span3)) == 7 + 7 * 4
    phi_pairs = tuple(fr.phi.terms.items())
    assert span3[0] == phi_pairs
    assert g2._unit_functional(phi_pairs) == phi_pairs
    for bad in (2, -2, Fraction(1, 2), 0):
        with pytest.raises(InternalConsistencyError, match="other than"):
            g2._unit_functional(phi_pairs + ((0b1110000, bad),))


def test_pairing_matrix_matches_wedges(g2frame):
    """M read back from its rows equals the matrix of the wedges
    e^m ^ (e_j -| psi) taken blade by blade, so a row keyed by the
    wrong 3-blade fails here."""
    assert g2frame.pairing_matrix() == reference.pairing_matrix(g2frame)


@pytest.mark.parametrize("kind", sorted(_COEFFICIENT_KINDS))
def test_solve_three_form_matches_dense_inverse(g2frame, kind):
    rng = random.Random(7020)
    for _ in range(6):
        gamma = _random_coeff_form(rng, 3, kind)
        rhs = [wedge(gamma, g2frame.kappa[j]) for j in range(7)]
        expected, bad = _dense_solve(g2frame, rhs)
        assert bad is None
        got = g2frame.solve_three_form(rhs)
        assert got == expected == gamma
        # an int-only right-hand side must stay exact, never float
        assert not any(isinstance(c, float) for c in got.terms.values())


@pytest.mark.parametrize("kind", sorted(_COEFFICIENT_KINDS))
def test_solve_three_form_reports_dense_residual_row(g2frame, kind):
    rng = random.Random(7021)
    for _ in range(6):
        rhs = [_random_coeff_form(rng, 6, kind) for _ in range(7)]
        _, bad = _dense_solve(g2frame, rhs)
        assert bad is not None
        with pytest.raises(InconsistentSystemError) as info:
            g2frame.solve_three_form(rhs)
        assert info.value.row == bad
    # a consistent stack perturbed in its last block
    gamma = _random_coeff_form(rng, 3, kind)
    rhs = [wedge(gamma, g2frame.kappa[j]) for j in range(7)]
    rhs[6] = rhs[6] + ext.Form(6, {0b1111110: 1})
    _, bad = _dense_solve(g2frame, rhs)
    with pytest.raises(InconsistentSystemError) as info:
        g2frame.solve_three_form(rhs)
    assert info.value.row == bad


@pytest.mark.parametrize("kind", sorted(_COEFFICIENT_KINDS))
def test_iso_inverse_matches_wedge_formula(g2frame, kind):
    rng = random.Random(7022)
    half = Fraction(1, 2)
    draw = _COEFFICIENT_KINDS[kind]
    for _ in range(5):
        b = g2frame.iso_i(random_traceless(rng, 4))
        if kind == "int":
            b = ext.Form(3, {m: int(c) for m, c in b.terms.items()})
        else:
            b = b * draw(rng)
        expected = [[half * vol_coefficient(wedge(b, wedge(g2frame.kappa[i],
                                                           vector(j + 1))))
                     for j in range(7)] for i in range(7)]
        got = g2frame.iso_i_inv(b).entries
        assert got == expected
        # the same scalar types, a cancelled entry included
        assert [type(x) for r in got for x in r] == \
            [type(x) for r in expected for x in r]


@pytest.mark.parametrize("kind", sorted(_COEFFICIENT_KINDS))
def test_hat_matches_reference_with_entry_types(g2frame, kind):
    # the int core over L = 28, each blade divided once by scalars.over,
    # against *(2 P7 a - a) in the coefficients' own type: every entry
    # has the type over gives, a Fraction for int and Fraction input
    rng = random.Random(7026)
    draw = _COEFFICIENT_KINDS[kind]
    blades = ext.BLADES_BY_GRADE[4]
    for _ in range(12):
        a = ext.Form(4, {m: draw(rng)
                         for m in rng.sample(blades, rng.randint(1, 35))})
        got, want = g2frame.hat(a), reference.hat(g2frame, a)
        assert got == want
        (n,), d = ext.numerators(a)
        h, L = g2frame.hat_numerators(n)
        assert L == 28 and h * Fraction(1, L * d) == got
        assert {type(c) for c in got.terms.values()} \
            == {QuadExt if kind == "quadext" else Fraction}


def test_hat_runs_through_its_integer_core(g2frame, monkeypatch):
    # hat and b2 both read hat_numerators: negating one blade of its
    # result moves hat and leaves the b2 system with no solution
    rng = random.Random(7027)
    a1, a2 = random_form(rng, 4), random_form(rng, 4)
    before = g2frame.hat(a1)
    cubic.b2(a1, a2, g2frame)
    core = G2Frame.hat_numerators

    def flipped(self, n):
        h, L = core(self, n)
        terms = dict(h.terms)
        m = min(terms)
        terms[m] = -terms[m]
        return ext.Form(3, terms), L

    monkeypatch.setattr(G2Frame, "hat_numerators", flipped)
    assert g2frame.hat(a1) != before
    with pytest.raises(InconsistentSystemError):
        cubic.b2(a1, a2, g2frame)


def test_dense_projectors_are_built_lazily():
    # the frame holds no dense projector; the test reference builds each
    # one on first use and keeps it
    fr = G2Frame()
    for name in ("projector_matrices", "two_form_eigenvalues",
                 "_p2", "_p3", "_p4"):
        assert not hasattr(fr, name)
    for grade, dims in ((2, [7, 14]), (3, [1, 7, 27]), (4, [1, 7, 27])):
        mats = reference.projector_matrices(fr, grade)
        assert reference.projector_matrices(fr, grade) is mats
        assert [rank(P) for P in mats] == dims


def test_pairing_normal_matrix_is_scalar_on_types(g2frame):
    # Schur's lemma: M is equivariant, so M^T M is one scalar per type
    M = g2frame.pairing_matrix()
    p1, p7, p27 = reference.projector_matrices(g2frame, 3)
    assert reference.transpose(M) * M == \
        reference.matrix_combination((16, p1), (6, p7), (2, p27))


def test_frame_build_checks_the_normal_matrix(monkeypatch):
    monkeypatch.setattr(g2, "_NORMAL_EIGENVALUES", (16, 6, 3))
    with pytest.raises(InternalConsistencyError) as err:
        G2Frame()
    assert str(err.value) == (
        "M^T M is not 16 P1 + 6 P7 + 2 P27 on the pairing matrix: "
        "M^T M a = 3 a fails on the type-27 probe a: e145 is 2, not 3")


def _doubled(fn):
    return lambda *args: 2 * fn(*args)


def _second_contraction_as_first(v, a):
    # e_2 -| a read as e_1 -| a: two spanning forms coincide
    return contract(vector(1) if v == vector(2) else v, a)


@pytest.mark.parametrize("name, patch, text", [
    ("hodge", _doubled(hodge), "phi ^ psi != 7 vol: e1234567 is 14, not 7"),
    ("contract", _doubled(contract),
     "a pairing functional has a coefficient other than +-1: e23 has 2"),
    ("contract", _second_contraction_as_first,
     "spanning forms are not orthogonal: <w_0, w_1> = 3, not 0"),
], ids=["volume", "unit-functional", "orthogonality"])
def test_frame_build_raises_name_what_failed(monkeypatch, name, patch, text):
    monkeypatch.setattr(g2, name, patch)
    with pytest.raises(InternalConsistencyError) as err:
        G2Frame()
    assert str(err.value) == text


def test_frame_build_and_solve_run_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(linalg, "_echelon", refuse)
    fr = G2Frame()
    rng = random.Random(7023)
    a2 = random_form(rng, 2)
    assert sum(fr.project2(a2), ext.Form.zero(2)) == a2
    gamma = random_form(rng, 3)
    assert fr.solve_three_form([wedge(gamma, k) for k in fr.kappa]) == gamma
    a1, a2 = random_form(rng, 4), random_form(rng, 4)
    assert cubic.b2(a1, a2, fr) == cubic.b2(a2, a1, fr)


def test_frame_operators_run_without_star_action_or_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the derived action or an elimination ran")

    monkeypatch.setattr(g2, "star_action", refuse)
    monkeypatch.setattr(linalg, "_echelon", refuse)
    fr = G2Frame()
    rng = random.Random(7024)
    S = random_traceless(rng, 3)
    b, a = fr.iso_i(S), fr.iso_i_psi(S)
    assert hodge(a) == -b
    a4 = random_form(rng, 4)
    assert wedge(fr.extract_v7(a4), fr.phi) == fr.project4(a4)[1]
    h = fr.hat(a4)
    assert all((wedge(h, k) + wedge(fr.phi, contract(vector(j), a4))).is_zero()
               for j, k in enumerate(fr.kappa, start=1))
    assert cubic.b2(a, a, fr) == cubic.q2(a, fr)
    assert cubic.p_value(b, fr) == cubic.q_value(hodge(b), fr)


def test_vector_extraction(g2frame):
    rng = random.Random(7009)
    for _ in range(20):
        v = vector_form([Fraction(rng.randint(-4, 4)) for _ in range(7)])
        assert g2frame.extract_v7(wedge(v, g2frame.phi)) == v
    # pure 1- and 27-type forms extract to zero
    assert g2frame.extract_v7(g2frame.psi).is_zero()
    S = SymTensor.diag([1, -1, 0, 0, 0, 0, 0])
    assert g2frame.extract_v7(g2frame.iso_i_psi(S)).is_zero()
    with pytest.raises(ext.GradeError):
        g2frame.extract_v7(g2frame.phi)
    # V ^ phi = P7 a on general 4-forms, with int and Fraction coefficients
    for kind in ("int", "fraction"):
        for _ in range(10):
            a = _random_coeff_form(rng, 4, kind)
            assert wedge(g2frame.extract_v7(a), g2frame.phi) \
                == g2frame.project4(a)[1]


def test_metric_from_structure(g2frame):
    assert g2frame.metric_from_structure() == Matrix.diagonal([1] * 7)


def test_star_action_on_phi(g2frame):
    # the identity acts on a 3-form with weight 3
    assert star_action(Matrix.diagonal([1] * 7), g2frame.phi) == 3 * g2frame.phi


@pytest.mark.parametrize("grade", range(1, 8))
def test_star_action_matches_seven_wedges(grade):
    # zero, diagonal and random non-symmetric int and Fraction matrices
    # on int and Fraction forms: equal forms with equal coefficient types
    rng = random.Random(4700 + grade)
    draws = (lambda: rng.randint(-4, 4),
             lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
    matrices = [reference.zeros(7, 7)]
    for draw in draws:
        matrices.append(Matrix.diagonal([draw() for _ in range(7)]))
        matrices += [Matrix(7, 7, [draw() for _ in range(49)])
                     for _ in range(3)]
    forms = [ext.Form(grade, {ext.BLADES_BY_GRADE[grade][0]: 1})]
    forms += [ext.Form(grade, {m: draw() for m in ext.BLADES_BY_GRADE[grade]})
              for draw in draws]
    for A in matrices:
        for a in forms:
            got, want = star_action(A, a), reference.star_action_wedges(A, a)
            assert got == want
            assert {m: type(c) for m, c in got.terms.items()} == \
                {m: type(c) for m, c in want.terms.items()}


def test_star_action_needs_a_square_matrix_of_size_7(g2frame):
    with pytest.raises(ValueError):
        star_action(Matrix.diagonal([1] * 6), g2frame.phi)
    with pytest.raises(ext.GradeError):
        star_action(Matrix.diagonal([1] * 7), ext.Form(0, {0: 1}))


def test_contraction_endo_acts_on_psi(g2frame):
    # (v -| phi)_* psi = -3 v ^ phi; linear in v, so the basis suffices
    for j in range(1, 8):
        A = two_form_endo(contract(vector(j), g2frame.phi))
        assert star_action(A, g2frame.psi) == -3 * wedge(vector(j), g2frame.phi)


def test_two_form_endo(g2frame):
    rng = random.Random(7010)
    for _ in range(10):
        beta = random_form(rng, 2)
        A = two_form_endo(beta)
        assert reference.transpose(A) == -A
        u = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        Au = A.apply(u)
        # g(Au, w) = beta(u, w), with beta(u, w) = <u ^ w, beta>
        lhs = sum(a * b for a, b in zip(Au, w))
        rhs = inner(wedge(vector_form(u), vector_form(w)), beta)
        assert lhs == rhs
    with pytest.raises(ext.GradeError):
        two_form_endo(g2frame.phi)


def test_standard_frame_is_built_once():
    assert standard_frame() is standard_frame()
    assert standard_frame.cache_info().currsize == 1


def test_frame_constructor_consistency():
    fr = G2Frame()
    assert fr.phi == standard_frame().phi
    assert vol_coefficient(fr.vol) == 1
    assert inner(fr.phi, fr.phi) == 7
