"""Tests for the letter polynomials, the permanent inner product, and
the invariant pairing <P, i det>."""

import json
import os
import random
from fractions import Fraction

import pytest

from g2forge import aw, pairing, su3_suites, suites
from g2forge.aw import CLOSED_DISPLAY, Su3Element, first_principles_fit, \
    first_principles_value, standard_aw_frame
from g2forge.pairing import COMPONENT_PAIRINGS, GRAM, LETTERS, MultiPoly, \
    _conjugate_letters, _eval_terms, _poly_terms, closed_p_poly, \
    component_polys, derive_gram_from_killing, first_principles_p_poly, \
    gram_entry, haar_average_check, haar_su3, idet_determinant_poly, \
    idet_display_poly, idet_poly, idet_report, interpolate_p_coefficients, \
    letter_values, monomial_inner, pairing_report, permanent, \
    sym_inner_poly
from g2forge.linalg import Matrix
from g2forge.scalars import GaussRational, ScalarError, \
    scalar_from_json
from g2forge.suites import MC_ELEMENTS

import reference


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
    assert p == 2 * (v1 * z1)
    assert (p - p) == MultiPoly(2)
    assert p.conjugate() == 2 * (v1 * MultiPoly.letter("zb1"))
    with pytest.raises(ScalarError):
        v1 + v1 * z1  # mixed degrees never add
    with pytest.raises(ScalarError):
        MultiPoly.letter("w9")


def test_multipoly_is_a_coefficient_ring():
    """Scalars multiply on either side, 0 adds on either side, the zero
    polynomial adds to any degree and equals 0, and an operand of any
    other type is left to its own operators."""
    v1, z1, zb1 = (MultiPoly.letter(n) for n in ("v1", "z1", "zb1"))
    p = v1 * z1 + 3 * (z1 * zb1)
    assert 0 + p is p and p + 0 is p
    assert sum([p, p, p]) == 3 * p
    assert 2 * p == p * 2 == p + p
    assert (Fraction(1, 3) * p).terms == {("v1", "z1"): Fraction(1, 3),
                                          ("z1", "zb1"): 1}
    assert (GaussRational(0, 1) * p).terms == {
        ("v1", "z1"): GaussRational(0, 1), ("z1", "zb1"): GaussRational(0, 3)}
    assert GaussRational(0, 1) * p == p * GaussRational(0, 1)
    assert -p == -1 * p and -p + p == 0
    assert p - p == 0 and p - p == MultiPoly(5) and not p - p
    assert not MultiPoly(3) and MultiPoly(3) == 0
    assert p and p != 0
    assert MultiPoly(3) + p is p and p + MultiPoly(1) is p
    with pytest.raises(ScalarError):
        v1 + p
    with pytest.raises(ScalarError):
        p + 1
    with pytest.raises(TypeError):
        p * 1.5
    # a Matrix is not a scalar: MultiPoly declines it, and so does Matrix
    with pytest.raises(TypeError):
        p * Matrix.diagonal([1, 2])


def test_multipoly_evaluate_matches_letters():
    rng = random.Random(11001)
    s3, sx2, sy2, rr = component_polys()
    for _ in range(10):
        xi = random_su3(rng)
        vals = letter_values(xi)
        got = reference.evaluate(s3, vals)
        s = Fraction(xi.v[0] + xi.v[1], 2)
        assert got == GaussRational(s ** 3, 0)
        assert reference.evaluate(sx2, vals).im == 0
        assert reference.evaluate(rr, vals).im == 0


def test_int_element_and_fraction_twin_agree():
    # an int element keeps int letters and an int i det; its Fraction
    # twin gives equal values and the same JSON bytes
    rng = random.Random(11002)
    for _ in range(10):
        twin = random_su3(rng)
        xi = Su3Element(tuple(map(int, twin.v)), tuple(map(int, twin.x)))
        assert type(xi.i_det()) is int
        assert xi.i_det() == twin.i_det()
        assert letter_values(xi) == letter_values(twin)
        assert json.dumps(xi.to_json()) == json.dumps(twin.to_json())


def _typed_terms(poly):
    """The terms of a polynomial with each coefficient's repr and type."""
    return sorted((mono, repr(c), type(c)) for mono, c in poly.terms.items())


def test_letter_values_match_the_hand_map():
    rng = random.Random(11006)
    for k in range(100):
        xi = random_su3(rng)
        if k % 2:
            xi = Su3Element(tuple(map(int, xi.v)), tuple(map(int, xi.x)))
        z = reference.z_letters(xi)
        want = {f"v{a}": xi.v[a - 1] for a in (1, 2, 3)}
        want.update({f"z{j}": z[j - 1] for j in (1, 2, 3)})
        want.update({f"zb{j}": z[j - 1].conjugate() for j in (1, 2, 3)})
        got = letter_values(xi)
        assert got == want
        assert [repr(got[n]) for n in LETTERS] == \
            [repr(want[n]) for n in LETTERS]


def test_letter_rows_match_the_hand_rows():
    rows = pairing._letter_rows()
    assert list(rows) == list(LETTERS)
    assert {n: list(r) for n, r in rows.items()} == reference.letter_rows()
    with pytest.raises(TypeError):
        rows["z1"] = rows["z2"]


def test_x_letter_polys_match_the_hand_table():
    got, want = pairing.x_letter_polys(), reference.x_letter_polys()
    assert list(got) == list(want)
    for name in want:
        assert _typed_terms(got[name]) == _typed_terms(want[name])


def test_multipoly_at_matches_evaluate():
    rng = random.Random(11007)
    for degree in (1, 2, 3):
        for _ in range(10):
            poly = su3_suites._random_poly(rng, degree)
            values = {n: GaussRational(Fraction(rng.randint(-5, 5),
                                                rng.randint(1, 3)),
                                       rng.randint(-5, 5)) for n in LETTERS}
            assert poly.at(values) == reference.evaluate(poly, values)


def test_wrong_letter_map_fails_checks(fresh_python):
    """With z1 and z2 swapped in the one letter map, the aw suite's i det
    display and the pairing suite's two routes to i det both fail, each
    recording its evidence: the failing element and both values, and the
    first differing monomial and both reduced polynomials.  Of the
    Monte-Carlo checks only the agreement with the prediction fails: the
    sampler reads no prediction.  A fresh interpreter, since the letter
    rows are cached per process."""
    code = (
        "import json\n"
        "from g2forge import pairing, suites\n"
        "pairing.Z_ENTRIES = ((0, 2), (2, 1), (1, 0))\n"
        "aw = suites.suite_aw(1, n_random=5, samples=10 ** 4)\n"
        "pr = suites.suite_pairing(1, n_random=5, samples=10 ** 4)\n"
        "print(json.dumps({c['id']: c for r in (aw, pr)\n"
        "                  for c in r['checks']}))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)
    assert {cid: checks[cid]["status"] for cid in (
        "aw.idet-two-routes", "pairing.idet-construction",
        "pairing.montecarlo-agreement", "pairing.montecarlo-deterministic",
        "pairing.montecarlo-scaling")} == {
        "aw.idet-two-routes": "fail", "pairing.idet-construction": "fail",
        "pairing.montecarlo-agreement": "fail",
        "pairing.montecarlo-deterministic": "pass",
        "pairing.montecarlo-scaling": "pass"}
    # the aw record names an element at which the right map gives i det,
    # and shows what the display gives there under the swapped map
    shown, element = checks["aw.idet-two-routes"]["actual"].split(" at ")
    xi = Su3Element(*(tuple(int(scalar_from_json(c))
                            for c in json.loads(element)[k])
                      for k in ("v", "x")))
    assert json.dumps(xi.to_json()) == element
    assert idet_display_poly().at(letter_values(xi)) == xi.i_det()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "Z_ENTRIES", ((0, 2), (2, 1), (1, 0)))
        missed = idet_display_poly().at(letter_values(xi))
        swapped = idet_determinant_poly().eliminate_v3()
    assert missed != xi.i_det()
    assert shown == f"display {missed}, i det {xi.i_det()}"
    # the display does not read the map; the determinant route does
    actual = checks["pairing.idet-construction"]["actual"]
    assert actual == (
        "at v1*z1*zb1 the display has -1 and the determinant 0; display "
        f"{idet_display_poly().eliminate_v3()!r}; determinant {swapped!r}")
    # the checks that read the pairing record name the check that holds
    # that evidence, and repeat no polynomial
    actual = checks["pairing.component-values"]["actual"]
    assert "pairing.idet-construction" in actual and "*" not in actual


def test_wrong_block_map_fails_checks(fresh_python):
    """With y2's sign flipped in aw.decompose, the aw suite's round trip
    and its two routes to P fail, and so do the pairing checks that read
    the pairing report: its component polynomials are aw's model row at
    the generic element, so R follows the block map, and the
    interpolated P no longer matches its fitted model.  P itself and the
    sampler are sound, so the checks of P's support and realness and of
    the Monte Carlo's determinism and scaling pass.  A fresh
    interpreter, since component_polys is cached per process; pairing
    imports decompose by name, so both names are patched."""
    code = (
        "import json\n"
        "from g2forge import aw, pairing, suites\n"
        "from g2forge.exterior import coords_of, vector_form\n"
        "right = aw.decompose\n"
        "def flipped(xi):\n"
        "    s, y, x = right(xi)\n"
        "    c = coords_of(y)\n"
        "    c[1] = -c[1]\n"
        "    return s, vector_form(c), x\n"
        "aw.decompose = pairing.decompose = flipped\n"
        "aw_rep = suites.suite_aw(1, n_random=5, samples=10 ** 4)\n"
        "pr = suites.suite_pairing(1, n_random=5, samples=10 ** 4)\n"
        "print(json.dumps(sorted(\n"
        "    c['id'] for r in (aw_rep, pr) for c in r['checks']\n"
        "    if c['status'] != 'pass' and c['id'] not in suites.AW_BY_DESIGN)))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "aw.decompose-roundtrip", "aw.value-two-routes",
        "pairing.closed-assembly", "pairing.component-values",
        "pairing.first-principles-nonzero", "pairing.idet-self",
        "pairing.montecarlo-agreement"]


def test_component_polys_match_the_hand_formulas():
    """aw's model row at the generic element gives the four component
    polynomials as the hand formulas write them, term by term, and at
    100 seeded elements each takes the model row's value there."""
    got, want = component_polys(), reference.component_polys()
    for g, w in zip(got, want):
        assert g.degree == w.degree == 3
        assert g.terms == w.terms
    rng = random.Random(11015)
    for _ in range(100):
        xi = random_su3(rng)
        vals = letter_values(xi)
        row = aw._model_row(aw.block_coords(*aw.decompose(xi)))
        for g, w, value in zip(got, want, row):
            assert g.at(vals) == w.at(vals) == value


def test_integer_kernels_run_on_the_ring():
    """The kernels, the block table's even/odd split and its numerator
    run unchanged on polynomial coefficients.  At the generic element,
    with comparison_form's formulas (D = M = 6, M as in aw._family_ints)
    for the block coordinates of U and W: the kernels' term-by-term
    expansion (reference.split_cubic) has the zero polynomial as its
    sqrt(10)-odd part, and it, the table's split and fp_numerator all
    give P, so the two routes of first_principles_value agree for
    every xi."""
    coords = pairing._coordinate_polys()
    v1, v2, x1, x2, x3, x4, x5, x6 = coords
    (half, half_y, my, mk), m = aw._family_ints()
    assert (half, half_y, my, mk, m) == (3, -5, -10, 1, 6)
    zu = [half * (v1 + v2), half_y * (v1 - v2), -my * x1, my * x2, 0, 0, 0, 0]
    zw = [0, 0, 0, 0, -mk * x4, mk * x3, -mk * x6, mk * x5]
    even, odd = reference.split_cubic(aw._on_basis(zu), aw._on_basis(zw))
    assert odd == 0
    assert Fraction(1, 2 * m ** 3) * even == first_principles_p_poly()
    tab = aw.block_tables()
    table_even, table_odd = tab.split(zu, zw)
    assert table_odd == 0
    assert Fraction(1, m ** 3) * table_even == first_principles_p_poly()
    generic = aw.block_coords(*aw.decompose(pairing._xi_from_coords(coords)))
    assert tab.fp_numerator(generic) == m ** 3 * first_principles_p_poly()


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
        out = MultiPoly(deg)
        for _ in range(6):
            term = MultiPoly.letter(rng.choice(letters))
            for _ in range(deg - 1):
                term = term * MultiPoly.letter(rng.choice(letters))
            out = out + GaussRational(rng.randint(-3, 3),
                                      rng.randint(-3, 3)) * term
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
    assert "z1 z2 z3" in rep["reading"]
    # the literal reading i (z1 z2 z3 + zb1 zb2 zb3) of the displayed
    # "2i re(z1 z2 z3)" is neither real nor the determinant
    literal = idet_display_poly() + GaussRational(0, 2) * (
        MultiPoly.letter("zb1") * MultiPoly.letter("zb2")
        * MultiPoly.letter("zb3"))
    assert not literal.is_real_on_su3()
    assert literal.eliminate_v3() != idet_determinant_poly().eliminate_v3()


def test_idet_poly_evaluates_to_idet():
    rng = random.Random(11004)
    poly = idet_poly()
    for _ in range(10):
        xi = random_su3(rng)
        assert reference.evaluate(poly, letter_values(xi)) == \
            GaussRational(xi.i_det(), 0)


def test_idet_self_pairing():
    assert pairing_report()["idet_self"] == Fraction(320, 9)


# -- the pairing --------------------------------------------------------------

def test_component_pairings():
    comps = pairing_report()["components"]
    assert comps["s3"] == Fraction(-4, 9)
    assert comps["sx2"] == Fraction(-8, 3)
    assert comps["sy2"] == Fraction(4)
    assert comps["R"] == Fraction(24)
    assert COMPONENT_PAIRINGS == comps
    for want, poly in zip(COMPONENT_PAIRINGS.values(), component_polys()):
        assert sym_inner_poly(poly, idet_poly()) == GaussRational(want, 0)


def test_closed_form_pairing():
    rep = pairing_report()
    assert rep["closed_form_pairing"] == Fraction(100, 3)
    assert rep["closed_form_assembly"] == Fraction(100, 3)
    assert sum(c * v for c, v in zip(CLOSED_DISPLAY,
                                     rep["components"].values())) == \
        Fraction(100, 3)
    assert sym_inner_poly(closed_p_poly(), idet_poly()) == \
        GaussRational(Fraction(100, 3), 0)


def test_first_principles_pairing():
    rep = pairing_report()
    assert rep["first_principles_pairing"] == Fraction(760, 3)
    assert rep["first_principles_assembly"] == Fraction(760, 3)
    assert sum(c * v for c, v in zip(first_principles_fit(),
                                     rep["components"].values())) == \
        Fraction(760, 3)
    assert sym_inner_poly(first_principles_p_poly(), idet_poly()) == \
        GaussRational(Fraction(760, 3), 0)


def test_pairing_report_computes_each_pairing_once(monkeypatch):
    # seven pairings from cold (both P sources, four components,
    # <i det, i det>), none warm, and none for the Monte-Carlo prediction
    calls = []
    inner = pairing.sym_inner_poly

    def counted(p, q):
        calls.append((p, q))
        return inner(p, q)

    monkeypatch.setattr(pairing, "sym_inner_poly", counted)
    pairing_report.cache_clear()
    try:
        first = pairing_report()
        assert len(calls) == 7
        assert pairing_report() is first
        assert len(calls) == 7
        haar_average_check(Su3Element(*MC_ELEMENTS[1]), samples=10 ** 4,
                           seed=5)
        assert len(calls) == 7
    finally:
        pairing_report.cache_clear()


def test_pairing_report_is_read_only():
    """Every caller shares the one cached record: writing to it or to
    its components raises, and the next caller gets the same record with
    the same values."""
    first = pairing_report()
    for record, key in ((first, "first_principles_pairing"),
                        (first["components"], "s3")):
        with pytest.raises(TypeError):
            record[key] = 0
        with pytest.raises(TypeError):
            del record[key]
    assert pairing_report() is first
    assert first["first_principles_pairing"] == Fraction(760, 3)
    assert first["components"] == COMPONENT_PAIRINGS
    assert str(first["components"]) == str(dict(COMPONENT_PAIRINGS))


def test_x_letter_polys_is_read_only():
    table = pairing.x_letter_polys()
    with pytest.raises(TypeError):
        table["x1"] = MultiPoly.letter("v1")
    assert pairing.x_letter_polys() is table
    assert sorted(table) == [f"x{k}" for k in range(1, 7)]


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
    fp = first_principles_p_poly()
    closed = closed_p_poly()
    assert fp.is_real_on_su3() and closed.is_real_on_su3()
    diag = Su3Element((1, 1, -2), (0,) * 6)
    vals = letter_values(diag)
    assert reference.evaluate(fp, vals) == GaussRational(Fraction(-210), 0)
    assert reference.evaluate(closed, vals) == GaussRational(Fraction(210), 0)
    for _ in range(5):
        xi = random_su3(rng, 2)
        assert reference.evaluate(fp, letter_values(xi)) == \
            GaussRational(first_principles_value(xi), 0)


def test_p_poly_and_its_model_are_v3_free():
    """first_principles_p_poly compares the interpolated P with the
    fitted four-term model as they are, with no v3 elimination: neither
    has a v3 letter, so both are already in the reduced form."""
    model = MultiPoly(3)
    for c, p in zip(first_principles_fit(), component_polys()):
        model = model + c * p
    for poly in (first_principles_p_poly(), model):
        assert poly.terms and all("v3" not in mono for mono in poly.terms)
        assert poly.eliminate_v3() == poly
    assert first_principles_p_poly() == model


def test_p_poly_pure_z_support():
    # the only pure-z monomials of P are z1 z2 z3 and its conjugate,
    # the same support i det has in that sector
    fp = first_principles_p_poly()
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

def _letter_columns(mats):
    """Reference letters: the nine letter columns of a batch of full
    skew-hermitian matrices, in LETTERS order."""
    import numpy as np
    cols = np.empty((mats.shape[0], 9), dtype=np.complex128)
    for a in range(3):
        cols[:, a] = mats[:, a, a].imag
    cols[:, 3] = mats[:, 2, 1]
    cols[:, 4] = mats[:, 0, 2]
    cols[:, 5] = mats[:, 1, 0]
    cols[:, 6:9] = cols[:, 3:6].conj()
    return cols


def _reference_p(poly, cols):
    """Reference P: every term gathered from the letter columns at once."""
    import numpy as np
    order = {name: k for k, name in enumerate(LETTERS)}
    items = sorted(poly.terms.items())
    idx = np.array([[order[name] for name in mono] for mono, _ in items])
    coefs = np.array([complex(c) for _, c in items])
    return (coefs * np.prod(cols[:, idx], axis=2)).sum(axis=1).real


def _xi_matrix(xi):
    import numpy as np
    return np.array([[complex(c) for c in row] for row in xi.matrix_entries()])


def _parity_elements():
    rng = random.Random(11011)
    return [Su3Element(v, x) for v, x in MC_ELEMENTS] + \
        [random_su3(rng) for _ in range(3)]


def test_conjugate_letters_and_p_match_full_conjugation():
    import numpy as np
    g = reference.haar_matrices(np.random.default_rng(11010), 1000)
    poly = first_principles_p_poly()
    for xi in _parity_elements():
        xi_mat = _xi_matrix(xi)
        ref = _letter_columns(g @ xi_mat @ g.conj().transpose(0, 2, 1))
        got = _conjugate_letters(g.transpose(2, 1, 0), xi_mat)
        scale = np.abs(ref).max()
        for k in range(9):
            assert np.abs(got[k] - ref[:, k]).max() <= 1e-12 * scale
        assert all(got[a].dtype == np.float64 for a in range(3))
        ref_p = _reference_p(poly, ref)
        got_p = _eval_terms(_poly_terms(poly), got)
        assert np.abs(got_p - ref_p).max() <= 1e-12 * np.abs(ref_p).max()


@pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 10 ** 5])
def test_haar_su3_matches_dense_route(count):
    """The chunked sampler's matrices, joined, are the dense route's bit
    for bit; each chunk is a contiguous column array of _CHUNK samples,
    the last one short."""
    import numpy as np
    chunks = list(haar_su3(np.random.default_rng([7, count]), count))
    assert [c.shape for c in chunks] == [
        (3, 3, min(pairing._CHUNK, count - lo))
        for lo in range(0, count, pairing._CHUNK)]
    assert all(c.flags.c_contiguous for c in chunks)
    g = reference.haar_matrices(np.random.default_rng([7, count]), count)
    assert g.shape == (count, 3, 3)
    assert np.array_equal(
        g, reference.haar_su3(np.random.default_rng([7, count]), count))


def test_haar_su3_draws_when_called():
    """The whole draw is taken from the stream when haar_su3 is called,
    before any chunk is read; the chunks only orthonormalize it."""
    import numpy as np
    rng, twin = np.random.default_rng(11014), np.random.default_rng(11014)
    chunks = haar_su3(rng, 20000)
    twin.standard_normal((4, 3, 20000))
    assert rng.standard_normal() == twin.standard_normal()
    assert sum(c.shape[2] for c in chunks) == 20000


def test_conjugate_letters_match_dense_route():
    """Letters and P of the chunked route against the dense product
    and einsum contraction, chunk by chunk, on the Monte-Carlo elements
    and three random elements, the all-zero element included."""
    import numpy as np
    g = reference.haar_matrices(np.random.default_rng(11013), 20000)
    cols = g.transpose(2, 1, 0)
    terms = _poly_terms(first_principles_p_poly())
    for xi in _parity_elements() + [Su3Element((0, 0, 0), (0,) * 6)]:
        xi_mat = _xi_matrix(xi)
        ref = reference.conjugate_letters(g, xi_mat)
        ref_p = _eval_terms(terms, ref)
        scale = max(max(np.abs(r).max() for r in ref), 1.0)
        p_scale = max(np.abs(ref_p).max(), 1.0)
        for lo in range(0, g.shape[0], pairing._CHUNK):
            sl = slice(lo, lo + pairing._CHUNK)
            got = _conjugate_letters(cols[:, :, sl], xi_mat)
            for r, q in zip(ref, got):
                assert np.abs(q - r[sl]).max() <= 1e-12 * scale
            got_p = _eval_terms(terms, got)
            assert np.abs(got_p - ref_p[sl]).max() <= 1e-12 * p_scale


@pytest.mark.parametrize("samples", [10 ** 4, 250000])
def test_haar_average_matches_dense_route(samples):
    """The estimate and its standard error on the three Monte-Carlo
    elements, one batch and three batches (the last one short), equal
    the dense route's bit for bit: their entries are integers, so the
    chunked conjugation rounds as the OpenBLAS product does."""
    for k, element in enumerate(MC_ELEMENTS):
        xi = Su3Element(*element)
        rep = haar_average_check(xi, samples, seed=4)
        empirical, std_error = reference.haar_average(xi, samples, seed=4)
        assert rep["batches"] == -(-samples // pairing.MC_BATCH)
        assert rep["empirical"] == empirical, k
        assert rep["std_error"] == std_error, k


@pytest.mark.parametrize("chunk", [1000, pairing.MC_BATCH])
def test_chunk_size_changes_no_result(monkeypatch, chunk):
    """Every step over a chunk is elementwise and the sums run over the
    whole batch, so any chunk size gives the same records, bit for bit;
    123457 samples make a short last batch and short last chunks."""
    xis = [Su3Element(*element) for element in MC_ELEMENTS]
    want = [haar_average_check(xi, 123457, seed=6) for xi in xis]
    monkeypatch.setattr(pairing, "_CHUNK", chunk)
    assert [haar_average_check(xi, 123457, seed=6) for xi in xis] == want


def test_haar_average_keeps_one_batch_resident():
    """A two-batch check holds one batch's draw (9.6 MB) and one chunk's
    working set at a time: no batch's column array is built whole (it
    would add 14.4 MB), and each batch's P values are freed before the
    next batch draws."""
    import tracemalloc
    xi = Su3Element(*MC_ELEMENTS[1])
    pairing_report()
    haar_average_check(xi, 10 ** 4, seed=5)
    tracemalloc.start()
    try:
        haar_average_check(xi, 2 * pairing.MC_BATCH, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 10 ** 6, peak


_COUNT_THREADS = (
    "import os\n"
    "from g2forge.aw import Su3Element\n"
    "from g2forge.pairing import haar_average_check\n"
    "from g2forge.suites import MC_ELEMENTS\n"
    "haar_average_check(Su3Element(*MC_ELEMENTS[1]), 10 ** 4, seed=5)\n"
    "print(len(os.listdir('/proc/self/task')),"
    " os.environ.get('OPENBLAS_NUM_THREADS'))\n")


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_monte_carlo_starts_no_blas_worker(fresh_python, given, expected):
    """With OPENBLAS_NUM_THREADS unset, a Monte-Carlo check leaves the
    process on one OS thread; a value the caller set is kept."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    done = fresh_python(_COUNT_THREADS, OPENBLAS_NUM_THREADS=given)
    assert done.returncode == 0, done.stderr
    tasks, value = done.stdout.split()
    if given is None:
        assert tasks == "1"
    assert value == expected


def test_haar_su3_moments():
    """Trace moments that tell SU(3) Haar apart from other unitary,
    det-1 or merely unitary laws: E[tr g] = 0, E[(tr g)^2] = 0 (SO(3)
    gives 1), E[|tr g|^2] = 1 and E[(tr g)^3] = 1 (U(3) gives 0)."""
    import numpy as np
    g = reference.haar_matrices(np.random.default_rng(11012), 200000)
    t = np.einsum("nii->n", g)
    n = t.shape[0]
    for name, x, expected in (("tr g", t, 0), ("(tr g)^2", t * t, 0),
                              ("|tr g|^2", (t * t.conj()).real, 1),
                              ("(tr g)^3", t * t * t, 1)):
        mean = x.mean()
        std_error = (np.abs(x - mean) ** 2).mean() ** 0.5 / n ** 0.5
        assert abs(mean - expected) <= 6 * std_error, (name, mean, std_error)


def test_haar_su3_unitary_determinant():
    import numpy as np
    rng = np.random.default_rng(11007)
    g = reference.haar_matrices(rng, 50)
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
