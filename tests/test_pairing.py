"""Tests for the letter polynomials, the permanent inner product, and
the invariant pairing <P, i det>."""

import random
from fractions import Fraction

import pytest

from g2forge.aw import CLOSED_DISPLAY, Su3Element, first_principles_fit, \
    first_principles_value, standard_aw_frame
from g2forge.pairing import COMPONENT_PAIRINGS, GRAM, MultiPoly, \
    assembled_pairing, component_pairing_report, component_polys, \
    derive_gram_from_killing, final_pairing, gram_entry, \
    haar_average_check, haar_su3, idet_poly, idet_report, idet_self_pairing, \
    interpolate_p_coefficients, letter_values, monomial_inner, p_poly, \
    pairing_report, permanent, sym_inner_poly
from g2forge.scalars import GaussRational, ScalarError


def random_su3(rng, bound=4):
    v1, v2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return Su3Element(
        (Fraction(v1), Fraction(v2), Fraction(-v1 - v2)),
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(6)))


# -- letter polynomials -------------------------------------------------------

def test_multipoly_arithmetic():
    v1 = MultiPoly.letter("v1")
    z1 = MultiPoly.letter("z1")
    p = v1 * z1 + z1 * v1
    assert p == (v1 * z1).scale(2)
    assert (p - p) == MultiPoly.zero(2)
    assert p.conjugate() == (v1 * MultiPoly.letter("zb1")).scale(2)
    with pytest.raises(ScalarError):
        v1 + v1 * z1  # mixed degrees never add
    with pytest.raises(ScalarError):
        MultiPoly.letter("w9")


def test_multipoly_evaluate_matches_letters():
    rng = random.Random(11001)
    s3, sx2, sy2, rr = component_polys()
    for _ in range(10):
        xi = random_su3(rng)
        vals = letter_values(xi)
        got = s3.evaluate(vals)
        s = Fraction(xi.v[0] + xi.v[1], 2)
        assert got == GaussRational(s ** 3, 0)
        assert sx2.evaluate_at(xi).im == 0
        assert rr.evaluate_at(xi).im == 0


def test_component_polys_are_real():
    for poly in component_polys():
        assert poly.is_real_on_su3()
        assert poly.degree == 3


# -- the Gram table and the permanent ------------------------------------------

def test_gram_matches_killing_dual():
    derived = derive_gram_from_killing()
    for a in GRAM:
        assert derived[a] == GRAM[a]
    for key, val in derived.items():
        assert gram_entry(*key) == val
    # v-block has rank 2: the three v-letters sum to zero
    letters = ("v1", "v2", "v3")
    for a in letters:
        assert sum(gram_entry(a, b) for b in letters) == 0
    # z pairs only with its own conjugate
    assert gram_entry("z1", "z1") == 0
    assert gram_entry("z1", "zb2") == 0
    assert gram_entry("z2", "zb2") == 2


def test_permanent_examples():
    assert permanent([]) == 1
    assert permanent([[5]]) == 5
    assert permanent([[1, 2], [3, 4]]) == 10
    assert permanent([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 6
    with pytest.raises(ScalarError):
        permanent([[1, 2], [3]])


def test_monomial_inner_examples():
    assert monomial_inner(("v1",), ("v1",)) == Fraction(4, 3)
    assert monomial_inner(("v1",), ("v2",)) == Fraction(-2, 3)
    assert monomial_inner(("z1",), ("zb1",)) == 2
    # <v1^3, v1^3> = perm of the constant 4/3 matrix = 6 (4/3)^3
    assert monomial_inner(("v1",) * 3, ("v1",) * 3) == Fraction(128, 9)
    with pytest.raises(ScalarError):
        monomial_inner(("v1",), ("v1", "v1"))


def test_sym_inner_poly_symmetric():
    rng = random.Random(11003)
    letters = ("v1", "v2", "z1", "zb1", "z2", "zb2", "z3", "zb3")

    def random_poly(deg):
        out = MultiPoly.zero(deg)
        for _ in range(6):
            term = MultiPoly.letter(rng.choice(letters))
            for _ in range(deg - 1):
                term = term * MultiPoly.letter(rng.choice(letters))
            out = out + term.scale(GaussRational(rng.randint(-3, 3),
                                                 rng.randint(-3, 3)))
        return out

    for _ in range(5):
        p, q = random_poly(3), random_poly(3)
        assert sym_inner_poly(p, q) == sym_inner_poly(q, p)
    with pytest.raises(ScalarError):
        sym_inner_poly(random_poly(2), random_poly(3))


# -- i det -------------------------------------------------------------------

def test_idet_report():
    rep = idet_report()
    assert rep["matches"]
    assert rep["display_is_real"]
    assert not rep["literal_reading_is_real"]
    assert not rep["literal_reading_matches_determinant"]
    assert "z1 z2 z3" in rep["reading"]


def test_idet_poly_evaluates_to_idet():
    rng = random.Random(11004)
    poly = idet_poly()
    for _ in range(10):
        xi = random_su3(rng)
        assert poly.evaluate_at(xi) == GaussRational(xi.i_det(), 0)


def test_idet_self_pairing():
    assert idet_self_pairing() == Fraction(320, 9)


# -- the pairing --------------------------------------------------------------

def test_component_pairings():
    rep = component_pairing_report()
    assert all(v["matches"] for v in rep.values())
    assert rep["s3"]["computed"] == Fraction(-4, 9)
    assert rep["sx2"]["computed"] == Fraction(-8, 3)
    assert rep["sy2"]["computed"] == Fraction(4)
    assert rep["R"]["computed"] == Fraction(24)
    assert COMPONENT_PAIRINGS == {k: v["computed"] for k, v in rep.items()}


def test_closed_form_pairing():
    assert final_pairing("closed-form") == Fraction(100, 3)
    assert assembled_pairing(CLOSED_DISPLAY) == Fraction(100, 3)
    with pytest.raises(ScalarError):
        final_pairing("folklore")


def test_first_principles_pairing():
    assert final_pairing("first-principles") == Fraction(760, 3)
    fitted = first_principles_fit()
    assert assembled_pairing(fitted) == Fraction(760, 3)


def test_pairing_report_fields():
    rep = pairing_report()
    assert rep["closed_form_pairing"] == Fraction(100, 3)
    assert rep["first_principles_pairing"] == Fraction(760, 3)
    assert rep["closed_form_assembly"] == Fraction(100, 3)
    assert rep["first_principles_assembly"] == Fraction(760, 3)
    assert rep["sign_flip_only_assembly"] == Fraction(220)
    assert rep["sign_resolution"] == "intermediate-display"
    assert rep["idet_self"] == Fraction(320, 9)
    assert rep["nonzero"]
    assert rep["components"] == COMPONENT_PAIRINGS


def test_p_poly_real_and_matches_values():
    rng = random.Random(11005)
    fp = p_poly("first-principles")
    closed = p_poly("closed-form")
    assert fp.is_real_on_su3() and closed.is_real_on_su3()
    diag = Su3Element((1, 1, -2), (0,) * 6)
    assert fp.evaluate_at(diag) == GaussRational(Fraction(-210), 0)
    assert closed.evaluate_at(diag) == GaussRational(Fraction(210), 0)
    for _ in range(5):
        xi = random_su3(rng, 2)
        assert fp.evaluate_at(xi) == \
            GaussRational(first_principles_value(xi), 0)


def test_p_poly_pure_z_support():
    # the only pure-z monomials of P are z1 z2 z3 and its conjugate,
    # the same support i det has in that sector
    fp = p_poly("first-principles")
    purez = sorted(m for m in fp.terms if all(l[0] == "z" for l in m))
    assert purez == [("z1", "z2", "z3"), ("zb1", "zb2", "zb3")]
    c = fp.terms[("z1", "z2", "z3")]
    assert c == GaussRational(0, Fraction(125, 18))
    assert fp.terms[("zb1", "zb2", "zb3")] == c.conjugate()


def test_interpolated_cubic_reproduces_values():
    # coefficients over the coordinates (v1, v2, x1..x6), keyed by
    # sorted index triples; the cubic they assemble is P itself
    coeff = interpolate_p_coefficients()
    assert all(tuple(sorted(k)) == k and len(k) == 3 for k in coeff)
    rng = random.Random(11008)
    for _ in range(5):
        c = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        xi = Su3Element((c[0], c[1], -c[0] - c[1]), tuple(c[2:]))
        val = sum((w * c[i] * c[j] * c[k]
                   for (i, j, k), w in coeff.items()), Fraction(0))
        assert val == first_principles_value(xi)


# -- Monte-Carlo --------------------------------------------------------------

def test_haar_su3_unitary_determinant():
    import numpy as np
    rng = np.random.default_rng(11007)
    g = haar_su3(rng, 50)
    eye = np.eye(3)
    for m in g:
        assert np.allclose(m @ m.conj().T, eye, atol=1e-12)
    assert np.allclose(np.linalg.det(g), 1.0, atol=1e-12)


def test_haar_average_matches_projection():
    xi = Su3Element((1, -2, 1), (1, 0, 0, 1, 0, 1))
    rep = haar_average_check(xi, 20000, seed=3)
    gap = abs(rep["empirical"] - rep["predicted"])
    assert gap <= 6.0 * rep["std_error"] + 1e-9
    assert rep["samples"] == 20000 and rep["seed"] == 3
    assert rep["predicted"] == pytest.approx(
        float(Fraction(760, 3) / Fraction(320, 9)) * float(xi.i_det()))


def test_haar_average_deterministic():
    xi = Su3Element((1, 1, -2), (0,) * 6)
    rep1 = haar_average_check(xi, 10000, seed=9)
    rep2 = haar_average_check(xi, 10000, seed=9)
    assert rep1 == rep2
    rep3 = haar_average_check(xi, 10000, seed=10)
    assert rep3["empirical"] != rep1["empirical"]


def test_haar_average_sample_floor():
    with pytest.raises(ScalarError):
        haar_average_check(Su3Element((1, 1, -2), (0,) * 6), 100, seed=1)
