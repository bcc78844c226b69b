"""The seven-dimensional exterior algebra over the orthonormal frame."""

import json
import random
from fractions import Fraction

import pytest

from g2forge import exterior as ext
from g2forge.exterior import Form, FormError, GradeError, blade, contract, \
    coords_of, hodge, inner, norm_sq, vector, vector_form, vol_coefficient, \
    wedge
from g2forge.g2 import standard_phi
from g2forge.scalars import QuadExt

import reference


def _random_form(rng, grade, bound=4):
    out = Form.zero(grade)
    for m in range(128):
        if bin(m).count("1") == grade:
            c = rng.randint(-bound, bound)
            if c:
                out = out + Form(grade, {m: Fraction(c)})
    return out


def test_blade_basics():
    assert blade([1, 2]).grade == 2
    assert wedge(vector(1), vector(2)) == blade([1, 2])
    assert wedge(vector(2), vector(1)) == -blade([1, 2])
    assert wedge(vector(1), vector(1)).is_zero()


def test_blade_rejects_bad_indices():
    with pytest.raises(FormError):
        blade([0, 1])
    with pytest.raises(FormError):
        blade([1, 1])
    with pytest.raises(FormError):
        blade([8])


def test_wedge_grade_overflow():
    with pytest.raises(GradeError):
        wedge(blade([1, 2, 3, 4]), blade([1, 5, 6, 7]))


def test_wedge_graded_commutative_random():
    rng = random.Random(11)
    for _ in range(80):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a, b = _random_form(rng, ka), _random_form(rng, kb)
        assert wedge(a, b) == (-1) ** (ka * kb) * wedge(b, a)


def test_form_checks_grades_and_drops_zeros():
    with pytest.raises(GradeError, match=r"blade \(1, 2\) has wrong grade "
                                         r"for a 3-form"):
        Form(3, {0b111: 1, 0b11: 1})
    # three bits, but one beyond e7, and a negative mask: no blade of
    # R^7, and the message names the mask as given
    with pytest.raises(GradeError,
                       match=r"^200 is not the mask of a blade of R\^7$"):
        Form(3, {0b11001000: 1})
    with pytest.raises(GradeError,
                       match=r"^-1 is not the mask of a blade of R\^7$"):
        Form(3, {-1: 1})
    a = Form(2, {0b11: 0, 0b101: Fraction(0), 0b110: QuadExt(0), 0b1001: 2})
    assert a.terms == {0b1001: 2}


def test_hodge_sign_table():
    assert ext._HODGE_SIGN == tuple(ext.merge_sign(m, ext.FULL_MASK ^ m)
                                    for m in range(128))


def test_merge_sign_counts_inversions():
    # every pair of disjoint masks, the table read against a count
    pairs = [(m1, m2) for m1 in range(128) for m2 in range(128)
             if not m1 & m2]
    assert len(pairs) == 3 ** 7
    assert all(ext.merge_sign(m1, m2) == reference.inversion_sign(m1, m2)
               for m1, m2 in pairs)


def _oracle_contract(v, a):
    """v -| a by counting inversions: e_i -| e^m is s e^{m - i} for
    e^m = s e_i ^ e^{m - i}."""
    terms = {}
    for mv, cv in v.terms.items():
        for ma, ca in a.terms.items():
            if ma & mv:
                c = reference.inversion_sign(mv, ma ^ mv) * cv * ca
                acc = terms.get(ma ^ mv)
                terms[ma ^ mv] = c if acc is None else acc + c
    return Form(a.grade - 1, terms)


@pytest.mark.parametrize("coeff", [
    3, Fraction(-2, 3), QuadExt(Fraction(1, 2), -1)],
    ids=["int", "fraction", "quadext"])
def test_contract_matches_inversion_count(coeff):
    # each unit vector against every blade of grades 1..7, as a
    # coefficient on either side, entry types included
    for i in range(1, 8):
        for grade in range(1, 8):
            for m in ext.BLADES_BY_GRADE[grade]:
                for v, a in ((vector(i), Form(grade, {m: coeff})),
                             (Form(1, {1 << i - 1: coeff}),
                              Form(grade, {m: 1}))):
                    got, want = contract(v, a), _oracle_contract(v, a)
                    assert got == want
                    assert ({m: type(c) for m, c in got.terms.items()}
                            == {m: type(c) for m, c in want.terms.items()})
                    assert got.is_zero() != bool(m >> i - 1 & 1)


@pytest.mark.parametrize("kind", [int, Fraction, QuadExt])
def test_wedge_matches_pairwise(kind):
    # below the top degree, for every pair of grades: sparse forms run
    # over the blades of b, dense ones over the blades that can meet
    rng = random.Random(19)

    def draw():
        c = rng.randint(-3, 3)
        if kind is Fraction:
            return Fraction(c, rng.randint(1, 3))
        if kind is QuadExt:
            return QuadExt(Fraction(c, 2), rng.randint(-2, 2))
        return c

    for ka in range(7):
        for kb in range(7 - ka):
            for density in (0.2, 1.0):
                for _ in range(3):
                    a, b = (Form(g, {m: draw() for m in ext.BLADES_BY_GRADE[g]
                                     if rng.random() < density})
                            for g in (ka, kb))
                    got, want = wedge(a, b), reference.pairwise_wedge(a, b)
                    assert got == want
                    assert ({m: type(c) for m, c in got.terms.items()}
                            == {m: type(c) for m, c in want.terms.items()})


@pytest.mark.parametrize("kind", [int, Fraction, QuadExt])
def test_top_degree_wedge_matches_pairwise(kind):
    # the one wedge loop, which at the top degree looks up only the
    # complement of each blade, gives the pairwise wedge for every split
    # (k, 7 - k), entry types and cancelled sums included
    rng = random.Random(17)

    def draw():
        c = rng.randint(-3, 3)
        if kind is Fraction:
            return Fraction(c, rng.randint(1, 3))
        if kind is QuadExt:
            return QuadExt(Fraction(c, 2), rng.randint(-2, 2))
        return c

    for k in range(8):
        for density in (0.3, 1.0):
            for _ in range(6):
                a, b = (Form(g, {m: draw() for m in ext.BLADES_BY_GRADE[g]
                                 if rng.random() < density})
                        for g in (k, 7 - k))
                got, want = wedge(a, b), reference.pairwise_wedge(a, b)
                assert got == want
                assert ({m: type(c) for m, c in got.terms.items()}
                        == {m: type(c) for m, c in want.terms.items()})
    a = blade([1, 2, 3]) + blade([4, 5, 6])
    b = blade([4, 5, 6, 7]) + blade([1, 2, 3, 7])
    assert wedge(a, b) == reference.pairwise_wedge(a, b) == Form.zero(7)


def test_wedge_associative_random():
    rng = random.Random(13)
    for _ in range(80):
        grades = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (_random_form(rng, k) for k in grades)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_contraction_is_antiderivation():
    rng = random.Random(19)
    for _ in range(80):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a, b = _random_form(rng, ka), _random_form(rng, kb)
        v = vector_form([Fraction(rng.randint(-3, 3)) for _ in range(7)])
        assert contract(v, wedge(a, b)) == \
            wedge(contract(v, a), b) + (-1) ** ka * wedge(a, contract(v, b))


def test_contraction_squares_to_zero():
    rng = random.Random(29)
    for _ in range(40):
        a = _random_form(rng, rng.randint(2, 4))
        v = vector_form([Fraction(rng.randint(-3, 3)) for _ in range(7)])
        assert contract(v, contract(v, a)).is_zero()


def test_hodge_involution_all_blades():
    for m in range(128):
        k = bin(m).count("1")
        b = Form(k, {m: Fraction(1)})
        assert hodge(hodge(b)) == b


def test_hodge_inner_product_compatibility():
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(0, 7)
        a, b = _random_form(rng, k, 3), _random_form(rng, k, 3)
        # a ^ *b = <a, b> vol
        assert vol_coefficient(wedge(a, hodge(b))) == inner(a, b)


def test_inner_requires_equal_grades():
    with pytest.raises(GradeError):
        inner(blade([1]), blade([1, 2]))


def test_norm_positive_definite():
    rng = random.Random(37)
    for _ in range(40):
        a = _random_form(rng, rng.randint(0, 7))
        assert norm_sq(a) >= 0
        assert (norm_sq(a) == 0) == a.is_zero()


def test_vector_coords_roundtrip():
    coords = [Fraction(k, 3) for k in range(-3, 4)]
    assert coords_of(vector_form(coords)) == coords


def test_m4_hodge():
    # the Hodge star of the 4-block, oriented by e4567
    assert ext.hodge_m4(blade([4, 5])) == blade([6, 7])
    assert ext.hodge_m4(blade([4, 6])) == -blade([5, 7])
    assert ext.hodge_m4(blade([4, 5, 6, 7])).grade == 0


def test_structure_constants_display():
    phi = standard_phi()
    expected = blade([1, 2, 3]) + blade([1, 4, 5]) - blade([1, 6, 7]) \
        + blade([2, 4, 6]) + blade([2, 5, 7]) + blade([3, 4, 7]) \
        - blade([3, 5, 6])
    assert phi == expected
    psi = hodge(phi)
    expected_psi = -blade([1, 2, 4, 7]) + blade([1, 2, 5, 6]) \
        + blade([1, 3, 4, 6]) + blade([1, 3, 5, 7]) - blade([2, 3, 4, 5]) \
        + blade([2, 3, 6, 7]) + blade([4, 5, 6, 7])
    assert psi == expected_psi


def test_form_json_roundtrip_random():
    rng = random.Random(41)
    for _ in range(30):
        a = _random_form(rng, rng.randint(0, 7))
        assert ext.form_from_json(ext.form_to_json(a)) == a


def test_form_json_rejects_malformed():
    with pytest.raises(FormError):
        ext.form_from_json({"grade": 2})
    with pytest.raises(FormError):
        ext.form_from_json({"grade": 2, "terms": [{"indices": [1], "coeff": {"num": "1", "den": "1"}}]})
    with pytest.raises(FormError):
        ext.form_from_json({"grade": 1, "terms": [
            {"indices": [1], "coeff": {"num": "1", "den": "1"}},
            {"indices": [1], "coeff": {"num": "2", "den": "1"}}]})


@pytest.mark.parametrize("data", [
    {"grade": True, "terms": [{"indices": [1], "coeff": {"num": "1"}}]},
    {"grade": 1.0, "terms": []},
    {"grade": 1, "terms": [{"indices": [True], "coeff": {"num": "1"}}]},
    {"grade": 1, "terms": [{"indices": [1.0], "coeff": {"num": "1"}}]},
    {"grade": 2, "terms": [{"indices": [1, 2.5], "coeff": {"num": "1"}}]},
])
def test_form_json_requires_int_grade_and_indices(data):
    with pytest.raises(FormError):
        ext.form_from_json(data)


# -- integer numerators --------------------------------------------------------

def _scaled_back(n, d):
    return Form(n.grade, {m: c * Fraction(1, d) for m, c in n.terms.items()})


def test_numerators_clear_to_the_least_denominator():
    from math import lcm
    rng = random.Random(1101)
    for _ in range(20):
        a = Form(3, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for m in ext.BLADES_BY_GRADE[3] if rng.random() < 0.5})
        (n,), d = ext.numerators(a)
        assert all(type(c) is int for c in n.terms.values())
        assert _scaled_back(n, d) == a
        assert n.terms.keys() == a.terms.keys()
        assert d == lcm(*(c.denominator for c in a.terms.values()))


def test_numerators_of_zero_and_int_forms():
    zero = Form.zero(4)
    (n,), d = ext.numerators(zero)
    assert d == 1 and n.is_zero()
    a = Form(2, {0b11: 3, 0b101: -2})
    forms, d = ext.numerators(a, a)
    assert d == 1 and forms[0] is a and forms[1] is a


def test_numerators_share_one_denominator():
    a = Form(3, {0b111: Fraction(1, 2)})
    b = Form(3, {0b1011: Fraction(2, 3), 0b1101: 5})
    (na, nb, na2), d = ext.numerators(a, b, a)
    assert d == 6
    assert na.terms == {0b111: 3}
    assert nb.terms == {0b1011: 4, 0b1101: 30}
    # a repeated argument stays one object, so kernels keep their
    # diagonal shortcuts
    assert na2 is na


def test_numerators_of_quadext_forms_have_integral_parts():
    from g2forge.scalars import QuadExt
    a = Form(3, {0b111: QuadExt(Fraction(1, 4), Fraction(1, 6)),
                 0b1011: Fraction(5, 3), 0b10011: QuadExt(2, 0)})
    (n,), d = ext.numerators(a)
    assert d == 12
    for c in n.terms.values():
        if isinstance(c, QuadExt):
            assert type(c.rat) is int and type(c.irr) is int
        else:
            assert type(c) is int
    assert _scaled_back(n, d) == a


_SIGN_FLIP = """
import json, sys
from g2forge import exterior as ext
# one bit of the parity table flipped, the Hodge signs rederived from
# it, before anything reads either
mask, bit = map(int, sys.argv[1].split(","))
odd = list(ext._ODD_BELOW)
odd[mask] ^= 1 << bit
ext._ODD_BELOW = tuple(odd)
ext._HODGE_SIGN = tuple(ext.merge_sign(m, ext.FULL_MASK ^ m)
                        for m in range(128))
from g2forge import suites
report = suites.run_suites(["exterior", "g2", "cubic"], 1, n_random=5)
print(json.dumps(sorted(c["id"] for r in report["suites"]
                        for c in r["checks"] if c["status"] != "pass")))
"""


@pytest.mark.parametrize("flip", ["3,5", "10,6"])
def test_sign_table_flips_fail_the_pinned_checks(fresh_python, flip):
    """One bit of _ODD_BELOW flipped, in a fresh interpreter, against the
    exterior, g2 and cubic suites at seed 1 with five random points.
    Wedge, contraction, the Hodge star and the cubic's sign tables all
    read the one table, so the flip reaches the cubic's pair table and
    its checks on the trilinear form fail besides the exterior's."""
    proc = fresh_python(_SIGN_FLIP, flip)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "cubic.q-and-p-displays", "cubic.trilinear-routes",
        "cubic.trilinear-symmetry", "exterior.contraction-antiderivation",
        "exterior.hodge-involution", "exterior.metric-recovery"]
