"""Tests for the reductive block frame, su(3) elements, and the block
expansion of the obstruction cubic."""

import random
from fractions import Fraction

import pytest

from g2forge import aw
from g2forge.aw import AWFrame, Su3Element, block_products, block_tables, \
    c_of, closed_display_value, closed_form_report, comparison_form, \
    decompose, first_principles_fit, first_principles_value, \
    fit_block_cubic, generic_value, intermediate_display_report, \
    principal_lattice, r_value, standard_aw_frame, tensor_displays, \
    verify_block_products, verify_intermediate_display, \
    verify_tensor_displays
from g2forge.exterior import FormError, coords_of, norm_sq, vector, \
    vector_form, wedge
from g2forge.g2 import TypeDecompositionError
from g2forge.linalg import Matrix
from g2forge.scalars import GaussRational, QuadExt, ScalarError


def random_su3(rng, bound=4):
    v1, v2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return Su3Element(
        (Fraction(v1), Fraction(v2), Fraction(-v1 - v2)),
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(6)))


def random_blocks(rng, bound=4):
    s = Fraction(rng.randint(-bound, bound))
    y = vector_form([Fraction(rng.randint(-bound, bound))
                     for _ in range(3)] + [0, 0, 0, 0])
    x = vector_form([0, 0, 0] + [Fraction(rng.randint(-bound, bound))
                                 for _ in range(4)])
    return s, y, x


# -- frame structure ---------------------------------------------------------

def test_frame_quaternion_relations(awframe):
    I1, I2, I3, J = awframe.I[0], awframe.I[1], awframe.I[2], awframe.J
    assert I1 * I2 == -I3
    assert I2 * I3 == -I1
    assert I3 * I1 == -I2
    for Ia in awframe.I:
        assert J * Ia == Ia * J


def test_frame_rebuilds_phi(awframe):
    rebuilt = awframe.vol3
    for a in range(3):
        rebuilt = rebuilt + wedge(vector(a + 1), awframe.omega[a])
    assert rebuilt == awframe.g2.phi
    assert awframe.phi_tilde == awframe.g2.phi - 7 * awframe.vol3


def test_iy_rejects_bad_vector(awframe):
    with pytest.raises(FormError):
        awframe.iy(vector(5))
    assert awframe.iy(vector(2)) == awframe.I[1]


def test_fresh_frame_constructs():
    fr = AWFrame()
    assert fr.Omega == standard_aw_frame().Omega


# -- su(3) elements ----------------------------------------------------------

def test_su3_trace_enforced():
    with pytest.raises(ScalarError):
        Su3Element((1, 1, 1), (0,) * 6)
    with pytest.raises(ScalarError):
        Su3Element((1, -1), (0,) * 6)


def test_su3_rejects_float_coordinates():
    # the engine is exact: a float or complex coordinate is refused at
    # construction, with a trace that would otherwise be fine
    with pytest.raises(ScalarError):
        Su3Element((0.5, -0.5, 0.0), (0,) * 6)
    with pytest.raises(ScalarError):
        Su3Element((1, -1, 0), (0, 0, 0, 0, 0, 1.0))
    with pytest.raises(ScalarError):
        Su3Element((1, -1, 0), (0, 0, 0, 0, 0, 1j))


def test_su3_matrix_is_skew_hermitian():
    rng = random.Random(9001)
    for _ in range(10):
        xi = random_su3(rng)
        m = xi.matrix_entries()
        for j in range(3):
            for k in range(3):
                assert m[j][k] == -m[k][j].conjugate()
        assert m[0][0] + m[1][1] + m[2][2] == GaussRational(0, 0)


def test_idet_examples():
    # diag(i, i, -2i): i * det = i * (i)(i)(-2i) = -2
    assert Su3Element((1, 1, -2), (0,) * 6).i_det() == -2
    # one off-diagonal letter alone has vanishing determinant
    assert Su3Element((0, 0, 0), (-1, 0, 0, 0, 0, 0)).i_det() == 0
    # scaling the element scales i det cubically
    rng = random.Random(9002)
    for _ in range(5):
        xi = random_su3(rng)
        doubled = Su3Element(tuple(2 * c for c in xi.v),
                             tuple(2 * c for c in xi.x))
        assert doubled.i_det() == 8 * xi.i_det()


def test_idet_letter_display():
    # i det = v1 v2 v3 - sum v_j |z_j|^2 - 2 Im(z1 z2 z3)
    rng = random.Random(9003)
    for _ in range(20):
        xi = random_su3(rng)
        z1, z2, z3 = xi.z_letters()
        v1, v2, v3 = (GaussRational(c, 0) for c in xi.v)
        display = (v1 * v2 * v3
                   - v1 * z1 * z1.conjugate()
                   - v2 * z2 * z2.conjugate()
                   - v3 * z3 * z3.conjugate()
                   + GaussRational(0, 1) * (z1 * z2 * z3
                                            - (z1 * z2 * z3).conjugate()))
        assert display == GaussRational(xi.i_det(), 0)


def test_su3_json_roundtrip():
    xi = Su3Element((1, -3, 2), (1, 0, -2, 5, 4, -1))
    again = Su3Element.from_json(xi.to_json())
    assert again.v == xi.v and again.x == xi.x
    with pytest.raises(ScalarError):
        Su3Element.from_json({"v": [1, 2, -3]})
    with pytest.raises(ScalarError):
        Su3Element.from_json(
            {"v": [{"num": "1", "den": "1", "irr_num": "1", "irr_den": "1"},
                   {"num": "0", "den": "1"}, {"num": "-1", "den": "1"}],
             "x": [{"num": "0", "den": "1"}] * 6})


def test_decompose_blocks():
    s, y, x = decompose(Su3Element((1, 1, -2), (2, 4, 6, 8, 10, 12)))
    assert s == 1
    assert coords_of(y) == [0, -2, 4, 0, 0, 0, 0]
    assert coords_of(x) == [0, 0, 0, -8, 6, -12, 10]
    # the diagonal element is pure s
    s, y, x = decompose(Su3Element((3, 3, -6), (0,) * 6))
    assert s == 3 and y.is_zero() and x.is_zero()


# -- blocks of the comparison form -------------------------------------------

def test_c_of_input_checks(awframe):
    with pytest.raises(FormError):
        c_of(vector(1))
    with pytest.raises(FormError):
        c_of(awframe.Omega)
    # the two internal constructions agree (asserted inside) and the
    # norm carries the block factor |C(x)|^2 = 12 |x|^2
    assert norm_sq(c_of(vector(4))) == 12
    x = vector_form([0, 0, 0, 2, -1, 3, 5])
    assert norm_sq(c_of(x)) == 12 * norm_sq(x)


def test_comparison_form_is_27_type(awframe):
    rng = random.Random(9005)
    for _ in range(5):
        xi = random_su3(rng, 3)
        a = comparison_form(xi)
        p1, p7, p27 = awframe.g2.project3(a)
        assert p1.is_zero() and p7.is_zero() and p27 == a
    # elements with an m4 part pick up sqrt(10) coefficients
    a = comparison_form(Su3Element((0, 0, 0), (0, 0, 1, 0, 0, 0)))
    assert any(isinstance(c, QuadExt) for c in a.terms.values())


def test_first_principles_diagonal():
    assert first_principles_value(Su3Element((1, 1, -2), (0,) * 6)) == -210
    assert first_principles_value(Su3Element((2, 2, -4), (0,) * 6)) == -1680


def test_first_principles_routes():
    rng = random.Random(9006)
    for _ in range(3):
        xi = random_su3(rng, 2)
        exact = first_principles_value(xi)
        assert first_principles_value(xi, single_route=True) == exact


def test_r_value():
    y = vector_form([1, 0, 0, 0, 0, 0, 0])
    x = vector_form([0, 0, 0, 0, 1, 0, 0])  # x3 = 1 in the block letters
    assert r_value(y, x) == 1
    with pytest.raises(FormError):
        r_value(y, vector(1))
    # R is linear in y and quadratic in x
    rng = random.Random(9007)
    for _ in range(5):
        _, y, x = random_blocks(rng)
        assert r_value(2 * y, 3 * x) == 18 * r_value(y, x)


# -- the block fits ----------------------------------------------------------

def test_generic_block_fit():
    fitted = fit_block_cubic()
    assert fitted == (Fraction(-210), Fraction(99), Fraction(6), Fraction(-15))
    c1, c2, c3, c4 = fitted
    rng = random.Random(9008)
    for _ in range(5):
        s, y, x = random_blocks(rng)
        model = (c1 * Fraction(s) ** 3 + c2 * s * norm_sq(x)
                 + c3 * s * norm_sq(y) + c4 * r_value(y, x))
        assert model == generic_value(s, y, x)


def test_first_principles_fit():
    fitted = first_principles_fit()
    assert fitted == (Fraction(-210), Fraction(55, 2), Fraction(50, 3),
                      Fraction(125, 18))
    # the push-through of the generic fit under y -> -(5/3)y,
    # x -> (sqrt(10)/6)x is asserted inside; spot check the model
    c1, c2, c3, c4 = fitted
    rng = random.Random(9009)
    for _ in range(3):
        xi = random_su3(rng, 2)
        s, y, x = decompose(xi)
        model = (c1 * Fraction(s) ** 3 + c2 * s * norm_sq(x)
                 + c3 * s * norm_sq(y) + c4 * r_value(y, x))
        assert model == first_principles_value(xi)


def test_block_tables_match_solver():
    tab = block_tables()
    rng = random.Random(9010)
    for _ in range(5):
        s, y, x = random_blocks(rng)
        assert tab.cubic(s, y, x) == generic_value(s, y, x)


def test_principal_lattice_counts():
    assert len(list(principal_lattice(8, 3, homogeneous=True))) == 120
    assert len(list(principal_lattice(8, 2))) == 45
    assert all(sum(p) == 3 for p in principal_lattice(8, 3, homogeneous=True))


# -- displays versus exact values --------------------------------------------

def test_tensor_displays_partition():
    rng = random.Random(9011)
    rows = verify_tensor_displays(rng, 5)
    status = {r["identity"]: r["matches"] for r in rows}
    assert status["p(phitilde, phitilde) = 38 id3 + 3 id4"]
    assert status["p(phitilde, y^Omega) = -J I_y"]
    assert status["p(C(x), C(x)) = 2|x|^2 id3 + 10(|x|^2 id4 - x(x)x)"]
    assert status["i^{-1}(phitilde) = -2 id3 + (3/2) id4"]
    assert status["i^{-1}(y^Omega) = -(1/2) J I_y"]
    # three closed forms fail as displayed; their corrections hold
    failing = [r for r in rows if not r["matches"]]
    assert sorted(r["identity"] for r in failing) == sorted([
        "p(phitilde, C(x)) = -4 I_a x . e_a",
        "p(y^Omega, C(x)) = 6 y . Jx",
        "i^{-1}(C(x)) = -(1/2) e_a . I_a x"])
    assert all(r["corrected_matches"] for r in failing)


def test_block_products_partition():
    rng = random.Random(9012)
    rows = verify_block_products(rng, 3)
    status = {r["product"]: r["matches"] for r in rows}
    assert status["p(phitilde, phitilde)"]
    assert status["p(phitilde, y^Omega)"]
    assert status["p(y^Omega, y^Omega)"]
    assert status["p(C(x), C(x))"]
    assert status["sum with multiplicities"]
    assert not status["p(phitilde, C(x))"]
    assert not status["p(y^Omega, C(x))"]
    corrected = {r["product"]: r.get("corrected_matches") for r in rows}
    assert corrected["p(phitilde, C(x))"] and corrected["p(y^Omega, C(x))"]


def test_block_products_single_point():
    s, y, x = 1, vector_form([1, 0, 0, 0, 0, 0, 0]), \
        vector_form([0, 0, 0, 1, 0, 0, 0])
    rows = block_products(s, y, x)
    by_name = {r["product"]: r for r in rows}
    assert by_name["p(phitilde, phitilde)"]["computed"] == -210
    assert by_name["p(phitilde, C(x))"]["computed"] == 33
    total = by_name["sum with multiplicities"]
    assert total["computed"] == total["display"] == generic_value(s, y, x)


def test_intermediate_display_report():
    rep = intermediate_display_report()
    assert not rep["matches"]
    terms = rep["terms"]
    assert terms["s^3"]["matches"] and terms["s|y|^2"]["matches"]
    assert not terms["s|x|^2"]["matches"] and not terms["R"]["matches"]
    assert terms["s|x|^2"] == {"display": 39, "computed": 99, "matches": False}
    assert terms["R"] == {"display": -8, "computed": -15, "matches": False}


def test_closed_form_report():
    rep = closed_form_report()
    assert not rep["matches"]
    assert rep["sign_resolution"] == "intermediate-display"
    terms = rep["terms"]
    assert not terms["s^3"]["matches"]  # computed -210 against displayed +210
    assert terms["s^3"]["computed"] == -210
    assert terms["s|y|^2"]["matches"]  # 50/3 survives the reversion
    assert not terms["s|x|^2"]["matches"] and not terms["R"]["matches"]


def test_verify_intermediate_display():
    rng = random.Random(9013)
    rep = verify_intermediate_display(rng, 5)
    assert rep["fitted_model_holds_on_random_points"]
    assert rep["computed"] == (Fraction(-210), Fraction(99), Fraction(6),
                               Fraction(-15))


def test_closed_display_value():
    xi = Su3Element((1, 1, -2), (0,) * 6)
    assert closed_display_value(xi, 210) == 210
    assert closed_display_value(xi, -210) == -210
    with pytest.raises(ValueError):
        closed_display_value(xi, 100)
    # at a generic element the displayed polynomial differs from the
    # exact first-principles value under either sign choice
    xi = Su3Element((1, -2, 1), (1, 0, 0, 1, 0, 1))
    exact = first_principles_value(xi)
    assert closed_display_value(xi, 210) != exact
    assert closed_display_value(xi, -210) != exact
