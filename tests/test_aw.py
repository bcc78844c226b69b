"""Tests for the reductive block frame, su(3) elements, and the block
expansion of the obstruction cubic."""

import contextlib
import itertools
import json
import random
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

from g2forge import aw, cubic, pairing, suites
from g2forge.aw import AWFrame, Su3Element, block_coords, block_products, \
    block_tables, CLOSED_DISPLAY, INTERMEDIATE_DISPLAY, c_direct, c_display, \
    c_of, \
    compose, decompose, first_principles_fit, first_principles_value, \
    fit_block_cubic, principal_lattice, r_value, \
    standard_aw_frame, tensor_displays, verify_block_products, \
    verify_tensor_displays
from g2forge.exterior import FormError, blade_mask, coords_of, norm_sq, \
    vector, vector_form, wedge
from g2forge.g2 import G2Frame, InternalConsistencyError, \
    TypeDecompositionError, standard_frame
from g2forge.linalg import Matrix
from g2forge.scalars import GaussRational, QuadExt, ScalarError

import reference
from reference import SQRT10


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


def blocks_of(z):
    """The blocks (s, y, x) as Forms at the block coordinates z, the
    inverse of block_coords, for the Form oracles of tests/reference.py."""
    return (z[0], vector_form([*z[1:4], 0, 0, 0, 0]),
            vector_form([0, 0, 0, *z[4:]]))


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


def test_r_value_rejects_y_outside_m3(awframe):
    with pytest.raises(FormError):
        r_value(vector(5), vector(4))
    with pytest.raises(FormError):
        r_value(vector(1) + vector(5), vector(4))
    # at y = e2, I_y is I2
    x = vector_form([0, 0, 0, 1, -2, 3, 1])
    xc = coords_of(x)
    assert r_value(vector(2), x) == sum(
        a * b for a, b in zip(awframe.J.apply(xc), awframe.I[1].apply(xc)))


def test_fresh_frame_constructs():
    fr = AWFrame()
    assert fr.Omega == standard_aw_frame().Omega


def test_standard_aw_frame_is_built_once():
    assert standard_aw_frame() is standard_aw_frame()
    assert standard_aw_frame().g2 is standard_frame()
    assert standard_aw_frame.cache_info().currsize == 1


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
        letters = pairing.letter_values(xi)
        z1, z2, z3 = (letters[f"z{j}"] for j in (1, 2, 3))
        v1, v2, v3 = (GaussRational(c, 0) for c in xi.v)
        display = (v1 * v2 * v3
                   - v1 * z1 * z1.conjugate()
                   - v2 * z2 * z2.conjugate()
                   - v3 * z3 * z3.conjugate()
                   + GaussRational(0, 1) * (z1 * z2 * z3
                                            - (z1 * z2 * z3).conjugate()))
        assert display == GaussRational(xi.i_det(), 0)


def test_idet_raise_names_the_imaginary_part_and_xi(monkeypatch):
    # a real 1 added to det makes i det gain the imaginary part 1
    det3 = aw.det3
    monkeypatch.setattr(aw, "det3", lambda m: det3(m) + GaussRational(1, 0))
    xi = Su3Element((1, 1, -2), (1, 0, 2, -1, 0, 1))
    with pytest.raises(InternalConsistencyError) as raised:
        xi.i_det()
    assert str(raised.value) == (
        f"i det is not real: imaginary part 1 at {json.dumps(xi.to_json())}")


def test_su3_to_json():
    # int and Fraction coordinates alike become exact rational records
    xi = Su3Element((1, Fraction(-7, 2), Fraction(5, 2)), (1, 0, -2, 5, 4, -1))
    assert xi.to_json() == {
        "v": [{"num": "1", "den": "1"}, {"num": "-7", "den": "2"},
              {"num": "5", "den": "2"}],
        "x": [{"num": str(c), "den": "1"} for c in (1, 0, -2, 5, 4, -1)]}


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
        a = reference.comparison_form(xi)
        p1, p7, p27 = awframe.g2.project3(a)
        assert p1.is_zero() and p7.is_zero() and p27 == a
    # elements with an m4 part pick up sqrt(10) coefficients: a nonzero W
    xi = Su3Element((0, 0, 0), (0, 0, 1, 0, 0, 0))
    a = reference.comparison_form(xi)
    assert any(isinstance(c, QuadExt) for c in a.terms.values())
    assert not aw.comparison_form(xi)[1].is_zero()


def test_first_principles_diagonal():
    assert first_principles_value(Su3Element((1, 1, -2), (0,) * 6)) == -210
    assert first_principles_value(Su3Element((2, 2, -4), (0,) * 6)) == -1680


def test_first_principles_routes():
    rng = random.Random(9006)
    for _ in range(3):
        xi = random_su3(rng, 2)
        exact = first_principles_value(xi)
        assert first_principles_value(xi, single_route=True) == exact


_SU3_KINDS = {
    "int": lambda rng: rng.randint(-4, 4),
    "fraction": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
    "mixed": lambda rng: rng.choice([rng.randint(-4, 4),
                                     Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 6))]),
}


def _su3_of_kind(rng, kind):
    draw = _SU3_KINDS[kind]
    v1, v2 = draw(rng), draw(rng)
    return Su3Element((v1, v2, -v1 - v2), tuple(draw(rng) for _ in range(6)))


@pytest.mark.parametrize("kind", sorted(_SU3_KINDS))
def test_comparison_form_numerators(kind):
    """The integer numerators (U, W, D) of A(xi) against the Q(sqrt(10))
    form of the reference: U + sqrt(10) W = D A(xi)."""
    rng = random.Random(9018)
    for _ in range(4):
        xi = _su3_of_kind(rng, kind)
        u, w, d, _, _ = aw.comparison_form(xi)
        assert type(d) is int and d >= 1
        assert all(type(c) is int
                   for c in [*u.terms.values(), *w.terms.values()])
        assert u + SQRT10 * w == d * reference.comparison_form(xi)


@pytest.mark.parametrize("kind", sorted(_SU3_KINDS))
def test_first_principles_matches_reference_kernels(g2frame, kind):
    """The composed numerator cubic against the scalar-generic reference
    kernels applied to the comparison form, each in its own type."""
    rng = random.Random(9013)
    for _ in range(4):
        xi = _su3_of_kind(rng, kind)
        a = reference.comparison_form(xi)
        ref = reference.sym_inner(reference.quadratic_form(a, a),
                                  reference.iso_i_inv(g2frame, a))
        if isinstance(ref, QuadExt):
            assert ref.irr == 0
            ref = ref.rat
        for single_route in (False, True):
            got = first_principles_value(xi, single_route=single_route)
            assert got == ref and type(got) is Fraction


def _xi_with_m4_part():
    return Su3Element((1, Fraction(-1, 2), Fraction(-1, 2)),
                      (1, -2, Fraction(3, 2), 0, -1, 2))


@contextlib.contextmanager
def patched_basis(monkeypatch):
    """A monkeypatch context that the block basis and the block table
    are rebuilt under: the cache of their builds is cleared on entry and
    again on exit, so the patches reach both and no patched build
    outlives the context."""
    with monkeypatch.context() as patch:
        aw._built.cache_clear()
        try:
            yield patch
        finally:
            aw._built.cache_clear()


def test_first_principles_c_constructions_checked(monkeypatch):
    with patched_basis(monkeypatch) as patch:
        patch.setattr(aw, "c_display", lambda x: 2 * c_direct(x))
        with pytest.raises(InternalConsistencyError,
                           match="the two constructions of C disagree"):
            first_principles_value(_xi_with_m4_part())


def test_c_raise_names_x_and_the_first_differing_blade(monkeypatch):
    monkeypatch.setattr(aw, "c_display", lambda x: 2 * c_direct(x))
    with pytest.raises(InternalConsistencyError) as raised:
        aw.c_of(vector(4) + 2 * vector(6))
    assert str(raised.value) == (
        "the two constructions of C disagree at x = (1, 0, 2, 0) on "
        "e4..e7, direct against displayed: e125 is 2, not 4")


def test_first_principles_type_gate(monkeypatch, awframe, g2frame):
    # a Lambda^3_7 part (<A, e_2 -| psi> != 0) in the C(e_i) of the basis,
    # which W reads, or in phitilde, which U reads, fails the one gate,
    # block_basis's, on both routes to P, at a tensor-display point, at
    # a solver point and in the table's build (patched_basis clears the
    # table's cache too, so that the build reruns under the patch)
    stray = g2frame.kappa[1]
    xi, z = _xi_with_m4_part(), (1, 1, -1, 2, 1, 0, 1, -1)
    calls = [lambda: first_principles_value(xi),
             lambda: first_principles_value(xi, single_route=True),
             lambda: tensor_displays(z), lambda: aw._solver_products(z),
             block_tables]
    for target, name, value in (
            (aw, "c_of", lambda x: c_direct(x) + stray),
            (awframe, "phi_tilde", awframe.phi_tilde + stray)):
        with patched_basis(monkeypatch) as patch:
            patch.setattr(target, name, value)
            for call in calls:
                with pytest.raises(TypeDecompositionError) as err:
                    call()
                assert str(err.value) == "block basis is not of pure 27 type"


def test_block_forms_pass_one_gate(monkeypatch):
    """The type-27 gate runs on the eight forms of the block basis and on
    no combination of them: once the basis is built, a two-route P, a
    tensor-display point and a solver point make no is_pure27 call, and
    a fresh basis makes 8."""
    xi, z = _xi_with_m4_part(), (1, 1, -1, 2, 1, 0, 1, -1)
    calls = (lambda: first_principles_value(xi), lambda: tensor_displays(z),
             lambda: aw._solver_products(z))
    # the basis, the block table and the phitilde displays are built here
    for call in calls:
        call()
    count = [0]
    is_pure27 = G2Frame.is_pure27

    def counted(self, b):
        count[0] += 1
        return is_pure27(self, b)

    monkeypatch.setattr(G2Frame, "is_pure27", counted)
    made = []
    for call in calls + (aw._built.cache_clear, aw.block_basis):
        count[0] = 0
        call()
        made.append(count[0])
    assert made == [0, 0, 0, 0, 8]


@pytest.mark.parametrize("route, bump, message", [
    ("split", (1, 0), "the two routes to P disagree"),
    ("split", (0, 1), "sqrt(10)-odd part of P does not vanish"),
    ("native", (0, 1), "P has a sqrt(10) component")],
    ids=["even", "odd", "native"])
def test_first_principles_split_route_checked(monkeypatch, route, bump,
                                              message):
    """Each raise of first_principles_value names the value of P on both
    routes, r + q sqrt(10) over 2 D^3, and xi as JSON; single_route
    checks only the native value.  The split route is the block
    table's, D^3 P, so a unit bump of its even or odd part moves P by
    2 over 2 D^3; the native route's bump is added to the (r, q) that
    _route_one reads off the digits."""
    xi = _xi_with_m4_part()
    _, _, d, zu, zw = aw.comparison_form(xi)
    den = 2 * d ** 3
    value = first_principles_value(xi)
    assert value == Fraction(2 * block_tables().split(zu, zw)[0], den)
    if route == "split":
        split = aw._BlockTables.split
        monkeypatch.setattr(aw._BlockTables, "split", lambda *t: tuple(
            x + b for x, b in zip(split(*t), bump)))
        native, routes = (value, 0), (value + Fraction(2 * bump[0], den),
                                      Fraction(2 * bump[1], den))
        assert first_principles_value(xi, single_route=True) == value
    else:
        route_one = aw._route_one
        monkeypatch.setattr(aw, "_route_one", lambda u, w: tuple(
            x + b for x, b in zip(route_one(u, w), bump)))
        native, routes = (value, Fraction(bump[1], den)), (value, 0)
    where = f"at {json.dumps(xi.to_json())}"
    with pytest.raises(InternalConsistencyError) as err:
        first_principles_value(xi)
    assert str(err.value) == (
        f"{message}: native {native[0]} + {native[1]} sqrt(10), "
        f"even/odd {routes[0]} + {routes[1]} sqrt(10) {where}")
    if route == "native":
        with pytest.raises(InternalConsistencyError) as err:
            first_principles_value(xi, single_route=True)
        assert str(err.value) == (
            f"{message}: native {native[0]} + {native[1]} sqrt(10) {where}")


def _route_one_oracle(g2frame, a):
    """The numerator cubic 2 <p(a, a), i^{-1}(a)> of a 3-form a over
    Q(sqrt(10)) on the scalar-generic reference kernels, as (r, q)."""
    value = 2 * reference.sym_inner(reference.quadratic_form(a, a),
                                    reference.iso_i_inv(g2frame, a))
    return reference.quad_parts(value)


def _route_one_elements() -> list:
    """The 36 points of the degree-2 lattice in the eight coordinates of
    xi, then seeded elements with int entries up to 10^6 in size and
    with Fraction entries whose denominators reach 997."""
    points = [pairing._xi_from_coords(p) for p in principal_lattice(8, 2)]
    rng = random.Random(9031)
    draws = (lambda: rng.randint(-10 ** 6, 10 ** 6),
             lambda: Fraction(rng.randint(-10 ** 6, 10 ** 6),
                              rng.randint(1, 997)))
    for draw in draws:
        points += [pairing._xi_from_coords([draw() for _ in range(8)])
                   for _ in range(4)]
    return points


def test_route_one_matches_quadext_oracle(g2frame):
    """Route one's (r, q) read off the digits of one int evaluation
    equals the numerator cubic of U + sqrt(10) W on the reference
    kernels over Q(sqrt(10)): at the comparison form of each element,
    D^3 times the cubic of the reference's A(xi), and, so that the
    sqrt(10) digits c1 and c3 are read too, at U of one element with W
    of the next (disjoint blades) and with U + W of the next (shared
    blades), whose q need not vanish."""
    elements = _route_one_elements()
    assert len(elements) == 36 + 8
    forms = [aw.comparison_form(xi) for xi in elements]
    for xi, (u, w, d, _, _) in zip(elements, forms):
        want = _route_one_oracle(g2frame, reference.comparison_form(xi))
        assert aw._route_one(u, w) == tuple(d ** 3 * x for x in want)
    odd = 0
    for (u, _, _, _, _), (u2, w2, _, _, _) in zip(forms, forms[1:]):
        for v in (w2, u2 + w2):
            got = aw._route_one(u, v)
            assert got == _route_one_oracle(g2frame, u + SQRT10 * v)
            odd += got[1] != 0
    assert odd == 23


@pytest.mark.parametrize("k", [2, 3, 5])
def test_digits_round_trip_at_their_bound(k):
    """Every digit pattern of +-(2^(k-1) - 1) and 0 packs into one int
    and unpacks to itself, the top digit taking the rest."""
    top = (1 << (k - 1)) - 1
    for digits in itertools.product((-top, 0, top), repeat=4):
        n = sum(c << (k * j) for j, c in enumerate(digits))
        assert aw._digits(n, k) == list(digits)
    assert aw._digits(-5 << (3 * k), k) == [0, 0, 0, -5]


_NARROW_DIGITS = """
import contextlib, io, json
from g2forge import aw, cli
# digits two bits wide: the cubic's coefficients overflow them
aw._digit_bits = lambda u, w: 2
xi = aw.Su3Element((1, -3, 2), (2, -1, 4, 0, -3, 1))
try:
    aw.first_principles_value(xi)
    raised = None
except aw.InternalConsistencyError as exc:
    raised = str(exc)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "aw", "--seed", "1", "--random", "1",
                     "--format", "json", "--output", "report.json"])
with open("report.json") as fh:
    checks = json.load(fh)["suites"][0]["checks"]
print(json.dumps({"raised": raised, "exit": code, "failed": {
    c["id"]: c["actual"] for c in checks if c["status"] == "fail"}}))
"""


def test_narrow_digits_fail_the_route_check(fresh_python):
    """Route one with the digit width forced to 2, in a fresh
    interpreter: the coefficients of the cubic overflow their digits,
    and the two-route call raises with the native value, which is not
    P, and the even/odd value, which is; the aw run records
    aw.value-two-routes as failed with that raise and exits 1."""
    proc = fresh_python(_NARROW_DIGITS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    where = json.dumps(Su3Element((1, -3, 2), (2, -1, 4, 0, -3, 1)).to_json())
    found = re.fullmatch(
        r"(P has a sqrt\(10\) component|the two routes to P disagree): "
        r"native (\S+) \+ (\S+) sqrt\(10\), even/odd -2645/9 \+ 0 "
        r"sqrt\(10\) at " + re.escape(where), out["raised"])
    assert found, out["raised"]
    assert (found[2], found[3]) != ("-2645/9", "0")
    assert out["exit"] == 1
    actual = out["failed"]["aw.value-two-routes"]
    assert actual.startswith("InternalConsistencyError: ")
    assert "native " in actual and "even/odd " in actual


def _split_oracle_elements() -> list:
    """The 120 interpolation points of P (pairing._coordinate_points:
    singles, pairs of both signs, triples), the three Monte-Carlo
    elements of the pairing suite and 100 seeded int elements with
    entries in [-4, 4], as the benchmark's su3 stream draws them."""
    singles, pairs, triples = pairing._coordinate_points()
    steps = ([{i: 1} for (i,) in singles]
             + [{i: 1, j: e} for i, j in pairs for e in (1, -1)]
             + [dict.fromkeys(t, 1) for t in triples])
    points = [pairing._xi_from_coords([step.get(i, 0) for i in range(8)])
              for step in steps]
    assert len(points) == 120
    rng = random.Random(9029)
    return (points + [Su3Element(*e) for e in suites.MC_ELEMENTS]
            + [_su3_of_kind(rng, "int") for _ in range(100)])


def test_split_cubic_matches_four_pass_expansion():
    """The block table's even/odd split, four table passes at the block
    coordinates of U and W that read the full symmetry of the trilinear
    form, against the term-by-term four-pass expansion on the kernels
    (reference.split_cubic), which needs only the symmetry of p: the
    table's even part is an int, half the kernels' even part, and the
    kernels' odd part vanishes."""
    tab = block_tables()
    for xi in _split_oracle_elements():
        u, w, _, zu, zw = aw.comparison_form(xi)
        even, odd = tab.split(zu, zw)
        assert type(even) is int and odd == 0
        assert reference.split_cubic(u, w) == (2 * even, 0)


def test_two_routes_catch_an_asymmetric_pair_table(monkeypatch):
    """One sign of the grade-3 pair table flipped (the second triple of
    e123) keeps p symmetric in its two arguments but breaks the full
    symmetry of the trilinear form T on the block basis: the block
    table refuses to build, so the two-route call, which reads the
    table, raises, while the native route, which reads T only on the
    diagonal, still returns on its own.  The table, or its failed
    build, is cached per process; the builder's cache is cleared under
    the flip and again after it."""
    xi = _xi_with_m4_part()
    want = first_principles_value(xi)
    table = cubic._pair_table(3)
    e123 = blade_mask((1, 2, 3))
    k, mm, sign = table[e123][1]
    monkeypatch.setitem(table, e123,
                        table[e123][:1] + ((k, mm, -sign),) + table[e123][2:])
    aw._built.cache_clear()
    try:
        first_principles_value(xi, single_route=True)
        with pytest.raises(InternalConsistencyError,
                           match="block trilinear table is not fully "
                                 "symmetric"):
            first_principles_value(xi)
    finally:
        monkeypatch.undo()
        aw._built.cache_clear()
    assert first_principles_value(xi) == want


_PAIR_TABLE_FLIP = """
import json, sys
sys.path.insert(0, sys.argv[2])
from g2forge import aw, cubic, suites
import workloads
# one sign of the grade-3 pair table flipped before anything reads it:
# the triple at index of the blade mask
mask, index = map(int, sys.argv[1].split(","))
table = cubic._pair_table(3)
k, mm, sign = table[mask][index]
table[mask] = table[mask][:index] + ((k, mm, -sign),) + table[mask][index + 1:]
_, elements = workloads.su3_inputs(1, 30)
two = []
for xi in elements:
    one = aw.first_principles_value(xi, single_route=True)
    try:
        two.append(str(aw.first_principles_value(xi) == one))
    except aw.InternalConsistencyError as exc:
        two.append(str(exc))
failed = []
if "--suites" in sys.argv:
    report = suites.run_suites(["cubic", "aw"], 1, n_random=5)
    failed = sorted(c["id"] for r in report["suites"] for c in r["checks"]
                    if c["status"] == "fail")
print(json.dumps({"two": two, "failed": failed}))
"""


_ASYMMETRIC = "block trilinear table is not fully symmetric: "


@pytest.mark.parametrize("flip, broken", [
    ((7, 1), "T(0, 5, 5) = 21, T(5, 5, 0) = 33"),
    ((42, 2), "T(0, 7, 7) = 27, T(7, 7, 0) = 33"),
    ((21, 10), "T(2, 4, 7) = 5, T(4, 7, 2) = 6"),
    ((52, 5), "T(0, 0, 1) = 1, T(0, 1, 0) = 0"),
    ((11, 9), None), ((13, 8), None)],
    ids=["7-1", "42-2", "21-10", "52-5", "11-9-symmetric", "13-8-symmetric"])
def test_pair_table_flips_on_the_su3_stream(fresh_python, flip, broken):
    """Each one-sign flip of the grade-3 pair table that notes/decisions.md
    tabulates, in a fresh interpreter (the block table is cached per
    process), on the first 30 elements of the benchmark's su3 stream at
    seed 1.  single_route returns at every element.  A flip that breaks
    the symmetry of T on the block basis makes every two-route call
    raise, since the table the even/odd split reads refuses to build,
    naming the first entry whose permutation differs and both entries;
    (52, 5) passed the split on the kernels at all 30.  A flip that
    keeps T symmetric leaves the two routes agreeing at all 30, and of
    the cubic and aw suites only the cubic suite catches it."""
    benchmark = str(Path(__file__).resolve().parents[1] / "perfbench")
    argv = ["%d,%d" % flip, benchmark] + (["--suites"] if broken is None
                                          else [])
    proc = fresh_python(_PAIR_TABLE_FLIP, *argv)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if broken is None:
        assert out["two"] == ["True"] * 30
        assert set(out["failed"]) == {
            "cubic.q-and-p-displays", "cubic.trilinear-routes",
            "cubic.trilinear-symmetry"} | suites.AW_BY_DESIGN
    else:
        assert out["two"] == [_ASYMMETRIC + broken] * 30


_FLIPPED_AW_RUN = """
import json
from g2forge import cubic, suites
table = cubic._pair_table(3)
k, mm, sign = table[7][1]
table[7] = table[7][:1] + ((k, mm, -sign),) + table[7][2:]
report = suites.suite_aw(1, n_random=5)
print(json.dumps({c["id"]: c["actual"] for c in report["checks"]
                  if c["status"] == "fail"}))
"""


def test_asymmetric_table_build_is_a_recorded_failure(fresh_python):
    """Pair-table flip (7, 1), in a fresh interpreter: every aw record
    that reads the block table records the build's raise, which names
    the first entry of T whose permutation differs and both values."""
    proc = fresh_python(_FLIPPED_AW_RUN)
    assert proc.returncode == 0, proc.stderr
    failed = json.loads(proc.stdout)
    raised = {cid for cid, actual in failed.items()
              if actual.startswith("InternalConsistencyError")}
    assert raised == {"aw.block-products", "aw.closed-display",
                      "aw.generic-sum-display", "aw.pairing-vs-displays",
                      "aw.revert-map", "aw.value-two-routes"}
    for cid in raised:
        assert failed[cid] == ("InternalConsistencyError: " + _ASYMMETRIC
                               + "T(0, 5, 5) = 21, T(5, 5, 0) = 33")


_FAILED_BUILD_KEPT = """
import json
from g2forge import aw, cubic
from g2forge.aw import Su3Element
builds = []
init = aw._BlockTables.__init__
def counted(self):
    builds.append(1)
    init(self)
aw._BlockTables.__init__ = counted
table = cubic._pair_table(3)
k, mm, sign = table[7][1]
table[7] = table[7][:1] + ((k, mm, -sign),) + table[7][2:]
raised = []
for v, x in (((1, 1, -2), (1, 0, 2, -1, 0, 1)),
             ((2, -1, -1), (0, 1, 1, 0, -2, 3)),
             ((0, 3, -3), (1, 1, 1, 1, 1, 1))):
    try:
        aw.first_principles_value(Su3Element(v, x))
    except aw.InternalConsistencyError as exc:
        raised.append(str(exc))
print(json.dumps({"builds": len(builds), "raised": raised}))
"""


def test_failed_table_build_runs_once(fresh_python):
    """Pair-table flip (7, 1), in a fresh interpreter: the block table's
    build fails once, and every later two-route call raises the build's
    text again without rebuilding the 36 pair products."""
    proc = fresh_python(_FAILED_BUILD_KEPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {"builds": 1, "raised": [
        _ASYMMETRIC + "T(0, 5, 5) = 21, T(5, 5, 0) = 33"] * 3}


def test_two_route_value_kernel_passes(monkeypatch):
    """One two-route evaluation runs one pair-table pass, in its one
    quadratic_upper call (p of U + sqrt(10) W), one i^{-1} scatter and
    one upper_inner, all on the native route, and four passes over the
    block table for the even/odd split."""
    xi = _xi_with_m4_part()
    first_principles_value(xi)
    calls = {"passes": 0, "quadratic_upper": 0, "iso_i_inv_upper": 0,
             "upper_inner": 0, "tri": 0}
    bilinear, quadratic, inverse, inner, tri = (
        cubic._bilinear, cubic.quadratic_upper, G2Frame.iso_i_inv_upper,
        cubic.upper_inner, aw._BlockTables.tri)

    def passes(table, pairs, count):
        calls["passes"] += len(pairs)
        return bilinear(table, pairs, count)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cubic, "_bilinear", passes)
    # aw imports quadratic_upper and upper_inner; count them there and
    # where p_numerator reads them
    for module in (cubic, aw):
        monkeypatch.setattr(module, "quadratic_upper",
                            counted("quadratic_upper", quadratic))
        monkeypatch.setattr(module, "upper_inner",
                            counted("upper_inner", inner))
    monkeypatch.setattr(G2Frame, "iso_i_inv_upper",
                        counted("iso_i_inv_upper", inverse))
    monkeypatch.setattr(aw._BlockTables, "tri", counted("tri", tri))
    first_principles_value(xi)
    assert calls == {"passes": 1, "quadratic_upper": 1, "iso_i_inv_upper": 1,
                     "upper_inner": 1, "tri": 4}


def test_first_principles_runs_each_block_once(monkeypatch):
    """A two-route evaluation builds A(xi) once, as one comparison_form
    on the cached block basis (no C(x) construction and no decompose),
    and stays on the numerator cores: no per-kernel entry point (each
    clears and rescales again) and no full type split runs."""
    xi = _xi_with_m4_part()
    want = block_tables().fp_value(block_coords(*decompose(xi)))
    calls = {"c_of": 0, "decompose": 0, "comparison_form": 0}

    def counted(name):
        fn = getattr(aw, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("a per-kernel entry point or a type split ran")

    for name in calls:
        monkeypatch.setattr(aw, name, counted(name))
    # aw does not import the per-kernel entry point; refuse it where it
    # lives
    monkeypatch.setattr(cubic, "quadratic_form", refuse)
    for name in ("project3", "iso_i_inv"):
        monkeypatch.setattr(G2Frame, name, refuse)
    assert first_principles_value(xi) == want
    assert calls == {"c_of": 0, "decompose": 0, "comparison_form": 1}


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
        assert model == reference.aw_block_products(s, y, x)[-1]


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
        z = block_coords(s, y, x)
        assert tab.tri(z, z, z) == reference.aw_block_products(s, y, x)[-1]
        # the six products against the solver route of block_products
        direct = [r["computed"] for r in
                  block_products(z, *aw._solver_products(z))[:6]]
        assert list(tab.products(z)) == direct
    for _ in range(3):
        xi = random_su3(rng, 3)
        assert tab.fp_value(block_coords(*decompose(xi))) == \
            first_principles_value(xi)


def test_fp_numerator_reads_the_table_symmetry(monkeypatch):
    """fp_numerator makes four table passes, one per term of the even/odd
    split, and equals the six-pass term-by-term expansion on the degree-3
    lattice and at seeded random blocks."""
    tab = block_tables()
    rng = random.Random(9016)
    points = [z for z, _ in aw._cubic_lattice()]
    points += [block_coords(*random_blocks(rng)) for _ in range(200)]
    for z in points:
        assert tab.fp_numerator(z) == reference.fp_numerator(tab, z)
    calls = []
    tri = aw._BlockTables.tri
    monkeypatch.setattr(aw._BlockTables, "tri",
                        lambda self, *z: calls.append(z) or tri(self, *z))
    tab.fp_numerator(points[-1])
    assert len(calls) == 4


def test_record_texts_state_the_family():
    """The aw records that state A(xi)'s coefficients keep their literal
    texts, so the report bytes stay; each text is the one FAMILY's
    (Y, K) gives, and the revert scale is revert_block_fit's."""
    y, k = aw.FAMILY
    assert k.numerator == 1
    blocks = f"(s, -({-y})y, (sqrt(10)/{k.denominator})x)"
    scale = ", ".join(map(str, aw.revert_block_fit((1, 1, 1, 1))))
    assert blocks == "(s, -(5/3)y, (sqrt(10)/6)x)"
    assert scale == "1, 5/18, 25/9, -25/54"
    records = {c["id"]: c for c in suites.suite_aw(0, n_random=1)["checks"]}
    assert records["aw.decompose-roundtrip"]["expected"].endswith(
        "A(xi) has block coordinates " + blocks)
    revert = records["aw.revert-map"]
    assert revert["expected"].startswith(
        "block fit pushed through y -> -(%s)y, x -> (sqrt(10)/%d)x "
        % (-y, k.denominator))
    assert revert["anchor"].startswith(f"model coefficients scale by {scale};")


@pytest.mark.parametrize("index", range(7))
def test_block_tables_probe_checks_each_product(monkeypatch, index):
    """The build compares the six products and the cubic the table
    assembles with the solver route at its probe points: one product
    (or the cubic) off by one there fails the build, and the raise
    names the probe point and both routes' six products and cubic."""
    solver = aw._solver_products
    z = (1, 1, 0, 0, 0, 1, 0, 0)
    values = [-210, 2, 33, 2, -5, 28, -120]
    assert solver(z) == (tuple(values[:6]), values[6])

    def bumped(z):
        six, full = solver(z)
        values = list(six) + [full]
        values[index] += 1
        return tuple(values[:6]), values[6]

    def shown(values):
        return (f"products ({', '.join(map(str, values[:6]))}), "
                f"cubic {values[6]}")

    monkeypatch.setattr(aw, "_solver_products", bumped)
    with pytest.raises(InternalConsistencyError) as err:
        aw._BlockTables()
    off = list(values)
    off[index] += 1
    assert str(err.value) == (
        f"table assembly disagrees with the direct route at z = {z}: "
        f"table {shown(values)}; solver {shown(off)}")


def test_block_table_symmetric_integer():
    terms = block_tables().terms
    assert len(terms) == 58
    table = {(u, v, w): c for u, v, w, c in terms}
    for key, c in table.items():
        assert type(c) is int
        for perm in itertools.permutations(key):
            assert table.get(perm) == c
    assert table[0, 0, 0] == -210
    assert table[0, 4, 4] == 33 and table[1, 4, 4] == -5


def test_compose_inverts_decompose():
    rng = random.Random(9014)
    for _ in range(10):
        xi = random_su3(rng)
        back = compose(block_coords(*decompose(xi)))
        assert (back.v, back.x) == (xi.v, xi.x)


def test_c_constructions_agree():
    rng = random.Random(9015)
    for _ in range(5):
        _, _, x = random_blocks(rng)
        assert c_direct(x) == c_display(x) == c_of(x)


def test_principal_lattice_counts():
    assert len(list(principal_lattice(8, 3))) == 120
    assert len(list(principal_lattice(8, 2))) == 36
    assert all(sum(p) == 3 for p in principal_lattice(8, 3))


# -- displays versus exact values --------------------------------------------

def test_block_routes_reject_misplaced_blocks():
    # block_coords, the one reader of block Forms, and r_value, which
    # reads through it, need y in the m3 block and x in the m4 block,
    # rather than dropping the misplaced part
    for y, x in ((vector(4), vector(5)), (vector(1), vector(2))):
        with pytest.raises(FormError, match="y must lie in span"):
            block_coords(0, y, x)
        with pytest.raises(FormError, match="y must lie in span"):
            r_value(y, x)


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
    z = block_coords(s, y, x)
    rows = block_products(z, *aw._solver_products(z))
    by_name = {r["product"]: r for r in rows}
    assert by_name["p(phitilde, phitilde)"]["computed"] == -210
    assert by_name["p(phitilde, C(x))"]["computed"] == 33
    total = by_name["sum with multiplicities"]
    assert total["computed"] == total["display"] == \
        reference.aw_block_products(s, y, x)[-1]


def _sweep_points(rng, n_random):
    """The 36 points of verify_tensor_displays' lattice, then seeded
    random points with int and with Fraction coordinates."""
    points = [blocks_of((0,) + p[1:])[1:] for p in principal_lattice(8, 2)]
    for _ in range(n_random):
        _, y, x = random_blocks(rng)
        points.append((y, x))
        points.append((y * Fraction(1, rng.randint(2, 5)),
                       x * Fraction(rng.randint(1, 4), rng.randint(2, 5))))
    return points


def _suite_points(n=50):
    """The random points of the aw suite's tensor-display sweep at seed
    1, drawn from that check's stream after its lattice."""
    rng = suites.check_rng(1, "aw.tensor-displays")
    return [blocks_of([rng.randint(-4, 4) for _ in range(8)])[1:]
            for _ in range(n)]


def test_tensor_displays_match_fraction_oracle():
    """The int-triangle sweep gives the records of the Fraction route, at
    every lattice point of the sweep, at random points and at the suite's
    own random points at seed 1."""
    points = _sweep_points(random.Random(9016), 6) + _suite_points()
    assert len(points) == 36 + 12 + 50
    for y, x in points:
        assert tensor_displays(block_coords(0, y, x)) == \
            reference.aw_tensor_displays(y, x)


def test_display_sides_match_reference():
    """Each display side assembled from the int tables equals its Matrix
    and SymTensor formula in tests/reference.py (twice e_a . I_a x, y . Jx
    and the mix, as _outer2 scales them), and R's metric route equals
    g(Jx, I_y x) from two dense applies: at the sweep's lattice points,
    at random int and Fraction points and at the suite's points."""
    tables = aw.display_tables()
    points = _sweep_points(random.Random(9018), 6) + _suite_points(10)
    for y, x in points:
        yc, xc = coords_of(y), coords_of(x)
        got = tables.sides(yc[:3], xc[3:])
        jiy, ia, yjx, mix, cc = reference.aw_display_tensors(y, x)
        want = [jiy, ia.scale(2), yjx.scale(2), mix.scale(2), cc]
        assert list(got) == [t.upper for t in want]
        assert tables.r_metric(yc, xc) == reference.r_metric(y, x)


def test_display_tables_need_symmetric_j_ia(monkeypatch, awframe):
    """The build checks each J I_a symmetric, the check SymTensor made
    at every point before."""
    bent = types.SimpleNamespace(I=awframe.I, J=Matrix.diagonal(
        [0, 0, 0, 1, 2, 3, 4]))
    monkeypatch.setattr(aw, "standard_aw_frame", lambda: bent)
    with pytest.raises(InternalConsistencyError, match="J I_a") as err:
        aw._DisplayTables()
    assert str(err.value) == ("J I_a is not symmetric at a = 1, "
                              "J I_a = (J I_a)^T fails: entry (3, 4) is -1, "
                              "not 2")


def _doubled(fn):
    return lambda *args: 2 * fn(*args)


def _negated(fn):
    return lambda *args: -fn(*args)


@pytest.mark.parametrize("name, patch, text", [
    ("vector", _doubled(aw.vector),
     "phi = vol3 + sum_a e^a ^ omega_a: e145 is 2, not 1"),
    ("hodge_m4", lambda a: a, "*omega_1 = -omega_1: e45 is 1, not -1"),
    ("two_form_endo", _negated(aw.two_form_endo),
     "I1 I2 = -I3: entry (3, 6) is 1, not -1"),
], ids=["rebuild-phi", "anti-self-dual", "quaternions"])
def test_block_frame_raises_name_what_failed(monkeypatch, name, patch, text):
    monkeypatch.setattr(aw, name, patch)
    with pytest.raises(InternalConsistencyError) as err:
        AWFrame()
    assert str(err.value) == "the block frame fails " + text


def test_degenerate_probe_points_name_the_kernel(monkeypatch):
    # R's column zeroed: the four probe rows span three dimensions.  The
    # lattice the sweep caches is not reached
    model_row = aw._model_row
    monkeypatch.setattr(aw, "_model_row", lambda z: model_row(z)[:3] + (0,))
    with pytest.raises(InternalConsistencyError) as err:
        aw.fit_model(lambda z: 0)
    assert str(err.value) == \
        "cubic probe points are degenerate: kernel dimension 1"


def test_block_products_match_fraction_oracle():
    """The solver route of block_products on integer numerators gives the
    six products, their weighted sum and the full cubic of the Fraction
    route; the type stays Fraction."""
    rng = random.Random(9017)
    points = [random_blocks(rng) for _ in range(4)]
    points += [(s * Fraction(1, 3), y * Fraction(2, 5), x * Fraction(1, 2))
               for s, y, x in points[:2]]
    points += [blocks_of(p) for p in
               itertools.islice(principal_lattice(8, 3), 0, 120, 30)]
    for s, y, x in points:
        z = block_coords(s, y, x)
        rows = block_products(z, *aw._solver_products(z))
        got = [r["computed"] for r in rows] + [rows[-1]["display"]]
        assert got == reference.aw_block_products(s, y, x)
        assert all(type(v) is Fraction for v in got)


_COUNT_AW_RUN = """
import contextlib, io, json
from g2forge import exterior, linalg
counts = {"quadratic_form": 0, "Matrix.apply": 0, "Matrix.__mul__": 0,
          "vector_form": 0, "coords_of": 0, "norm_sq": 0, "numerators": 0}
entered = {}
depth = [0]


def inside_only(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += depth[0] > 0
        return fn(*args, **kwargs)
    return wrapper


# patched before the modules that could import them by name load
for name in ("apply", "__mul__"):
    setattr(linalg.Matrix, name,
            inside_only("Matrix." + name, getattr(linalg.Matrix, name)))
# the block Form helpers, in exterior before any module binds them
for name in ("vector_form", "coords_of", "norm_sq", "numerators"):
    setattr(exterior, name, inside_only(name, getattr(exterior, name)))
from g2forge import cubic
cubic.quadratic_form = inside_only("quadratic_form", cubic.quadratic_form)
from g2forge import aw, cli


def window(name, fn, counted=True):
    def wrapper(*args, **kwargs):
        entered[name] = entered.get(name, 0) + 1
        outer = depth[0]
        depth[0] = outer + 1 if counted else 0
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] = outer
    return wrapper


for name in ("verify_tensor_displays", "verify_block_products",
             "fit_block_cubic", "direct_p_fit", "fit_model"):
    setattr(aw, name, window(name, getattr(aw, name)))
aw._BlockTables.__init__ = window("block_tables", aw._BlockTables.__init__)
# the display tables are built once, with Matrix code, wherever R or a
# display side is first read; the sweeps' own work is what is counted
aw._DisplayTables.__init__ = window(
    "display_tables", aw._DisplayTables.__init__, counted=False)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "aw", "--seed", "1", "--random", "1"])
print(json.dumps({"exit": code, "counts": counts, "entered": entered}))
"""


def test_aw_run_counts(fresh_python):
    """One aw run fits twice (the block cubic, and P through its table),
    and its sweeps, block products and block-table build run on int
    triangles: no quadratic_form, whose Fraction results they used to
    compare.  The display sides and R come from
    the display tables, built once: the sweeps make no Matrix product
    and no Matrix.apply.  The sweeps, the fits and the table build read
    the eight block coordinates and build no block Form: no
    vector_form, coords_of, norm_sq or numerators call (774, 1860, 596
    and 86 when each point went through (s, y, x) vector Forms)."""
    proc = fresh_python(_COUNT_AW_RUN)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == 1
    # fit_block_cubic and direct_p_fit are cached: three and two reads,
    # two fits
    assert out["entered"] == {"block_tables": 1, "verify_tensor_displays": 1,
                              "verify_block_products": 1,
                              "fit_block_cubic": 3, "direct_p_fit": 2,
                              "fit_model": 2, "display_tables": 1}
    assert out["counts"] == {"quadratic_form": 0, "Matrix.apply": 0,
                             "Matrix.__mul__": 0, "vector_form": 0,
                             "coords_of": 0, "norm_sq": 0, "numerators": 0}


_AW_MUTANT = """
import contextlib, io, json, sys
from g2forge import aw, cli
tables = aw.display_tables()
if sys.argv[1] == "ia2":
    # the first entry of ia2(e4) with its sign flipped
    (k, c), *rest = tables.ia2[0]
    tables.ia2[0] = ((k, -c), *rest)
else:
    # the first entry of I1 in R's metric route with its sign flipped
    (i, j, c), *rest = tables.i[0]
    tables.i[0] = ((i, j, -c), *rest)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "aw", "--seed", "1", "--random", "1",
                     "--format", "json", "--output", "report.json"])
with open("report.json") as fh:
    checks = json.load(fh)["suites"][0]["checks"]
print(json.dumps({"exit": code, "failed": {
    c["id"]: c["actual"] for c in checks if c["status"] == "fail"}}))
"""


def test_flipped_ia2_entry_fails_the_pinned_displays(fresh_python):
    """One sign of the ia2 table flipped, in a fresh interpreter: of the
    tensor displays, exactly the three by-design ids and the corrected
    twins of the two displays that read ia2 fail, and every other
    failing check is in the ledger."""
    proc = fresh_python(_AW_MUTANT, "ia2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == 1
    failed = set(out["failed"])
    displays = {cid for cid in failed
                if cid.startswith("aw.tensor-display.")}
    assert displays == {
        "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a",
        "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a.corrected",
        "aw.tensor-display.p(y^Omega,C(x))=6y.Jx",
        "aw.tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax",
        "aw.tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax.corrected"}
    assert failed - displays == {cid for cid in suites.AW_BY_DESIGN
                                 if cid not in displays}


def test_flipped_r_entry_is_a_recorded_failure(fresh_python):
    """One sign of I1's entries in R's metric route flipped, in a fresh
    interpreter: R's two routes disagree, and the run records that as
    the failed aw.block-products sweep, with the exception, both values
    and the point as its actual, rather than crashing."""
    proc = fresh_python(_AW_MUTANT, "r")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == 1
    # the first lattice point whose R reads I1, with both routes' values:
    # the display y1 (x3^2 + x4^2 - x5^2 - x6^2) is 0 there
    assert out["failed"]["aw.block-products"] == (
        "InternalConsistencyError: R display disagrees with g(Jx, I_y x): "
        "metric -2, display 0 at y = (1, 0, 0) on e1..e3 and "
        "x = (0, 1, 0, 1) on e4..e7")


_FAMILY_MUTANT = """
import json
from fractions import Fraction
from g2forge import aw, pairing, suites
aw.FAMILY = (Fraction(-4, 3), aw.FAMILY[1])
report = suites.suite_aw(1, n_random=5)
print(json.dumps({
    "failed": [c["id"] for c in report["checks"] if c["status"] != "pass"],
    "pairing": str(pairing.pairing_report()["first_principles_pairing"]),
    "ints": aw._family_ints()}))
"""


def test_family_owner_moves_every_reader(fresh_python):
    """Y = -5/3 -> -4/3 at the owner alone, in a fresh interpreter:
    comparison_form, fp_numerator, revert_block_fit and the round-trip
    check all move with it, so every two-route check still agrees and
    the aw suite fails exactly its ledger ids, while <P, i det> moves
    from 760/3 to 196.  A reader that kept its own copy of the
    coefficients would fail a check here."""
    proc = fresh_python(_FAMILY_MUTANT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out["failed"]) == sorted(suites.AW_BY_DESIGN)
    assert out["pairing"] == "196"
    assert out["ints"] == [[3, -4, -8, 1], 6]


_BLOCK_COORDS_MUTANT = """
import json
from g2forge import aw, pairing, suites
right = aw.block_coords


def swapped(s, y, x):
    z = right(s, y, x)
    z[5], z[6] = z[6], z[5]
    return z


aw.block_coords = pairing.block_coords = swapped
aw_rep = suites.suite_aw(1, n_random=5, samples=10 ** 4)
pr = suites.suite_pairing(1, n_random=5, samples=10 ** 4)
print(json.dumps(sorted(
    c["id"] for r in (aw_rep, pr) for c in r["checks"]
    if c["status"] != "pass" and c["id"] not in suites.AW_BY_DESIGN)))
"""


def test_swapped_block_coords_fail_checks(fresh_python):
    """block_coords with x5 and x6 swapped, in a fresh interpreter (the
    component polynomials are cached per process; pairing imports
    block_coords by name, so both names are patched): the round trip and
    the two routes to P of the aw suite fail, and so do the pairing
    checks that read the component polynomials, whose R follows the
    converter, while the sweeps and fits, which take block coordinates
    directly, pass."""
    proc = fresh_python(_BLOCK_COORDS_MUTANT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "aw.decompose-roundtrip", "aw.value-two-routes",
        "pairing.closed-assembly", "pairing.component-values",
        "pairing.first-principles-nonzero", "pairing.idet-self",
        "pairing.montecarlo-agreement"]


_BASIS_MUTANT = """
import inspect, json, sys
from g2forge import aw, g2, suites
if sys.argv[1] == "stray-kappa":
    # a Lambda^3_7 part, kappa_2 = e_2 -| psi, in each C(e_i) of the basis
    c_of, stray = aw.c_of, g2.standard_frame().kappa[1]
    aw.c_of = lambda x: c_of(x) + stray
else:
    # _on_basis overwriting a blade's coefficient instead of adding to it
    source = inspect.getsource(aw._on_basis)
    old = "terms[m] = terms.get(m, 0) + c * t"
    assert source.count(old) == 1
    exec(source.replace(old, "terms[m] = c * t"), vars(aw))
failed = [c for r in (suites.suite_aw(1, n_random=5),
                      suites.suite_pairing(1, n_random=5, samples=10 ** 4))
          for c in r["checks"]
          if c["status"] != "pass" and c["id"] not in suites.AW_BY_DESIGN]
print(json.dumps([[c["id"] for c in failed], failed[0]["actual"]]))
"""

# the pairing checks that read P, all of which a raising P fails
_P_READERS = ["pairing.closed-assembly", "pairing.component-values",
              "pairing.first-principles-nonzero", "pairing.idet-self",
              "pairing.montecarlo-agreement", "pairing.montecarlo-deterministic",
              "pairing.montecarlo-scaling", "pairing.p-poly-real",
              "pairing.pure-z-support"]


@pytest.mark.parametrize("mutant, aw_failed, first", [
    ("stray-kappa",
     ["aw.block-products", "aw.decompose-roundtrip", "aw.revert-map",
      "aw.tensor-displays", "aw.value-two-routes"],
     "TypeDecompositionError: block basis is not of pure 27 type"),
    ("overwriting-on-basis",
     ["aw.block-products", "aw.decompose-roundtrip", "aw.revert-map",
      "aw.value-two-routes"],
     "InternalConsistencyError: recovered tensor is not traceless: trace 8"),
], ids=["stray-kappa", "overwriting-on-basis"])
def test_block_basis_mutants_fail_the_pinned_checks(fresh_python, mutant,
                                                    aw_failed, first):
    """Two defects of the block forms, in a fresh interpreter, against the
    aw and pairing suites at seed 1 with five random points and 10^4
    samples: a stray 7-part in each C(e_i), which the one gate at
    block_basis catches, and _on_basis overwriting where blades of the
    basis overlap (phitilde with the e_a ^ Omega), whose combinations
    iso_i_inv_upper's trace check catches.  Exactly the pinned checks
    fail besides the ledger ids, the first with the pinned actual."""
    proc = fresh_python(_BASIS_MUTANT, mutant)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [aw_failed + _P_READERS, first]


_FAILED_BASIS_KEPT = """
from g2forge import aw, g2, suites
c_of, stray = aw.c_of, g2.standard_frame().kappa[1]
aw.c_of = lambda x: c_of(x) + stray
builds = []
gate = g2.G2Frame.require_pure27
def counted(self, message, *forms):
    if message == "block basis is not of pure 27 type":
        builds.append(1)
    return gate(self, message, *forms)
g2.G2Frame.require_pure27 = counted
suites.suite_aw(1, n_random=5)
suites.suite_pairing(1, n_random=5, samples=10 ** 4)
print(len(builds))
"""


def test_failed_basis_build_runs_once(fresh_python):
    """A stray 7-part in each C(e_i), in a fresh interpreter: the block
    basis fails its gate once, and the aw and pairing suites at seed 1,
    whose every reader of the basis then raises, never build it again
    (17 builds when a failed build was not kept)."""
    proc = fresh_python(_FAILED_BASIS_KEPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


_FIT_MUTANT = """
import contextlib, io, json, sys
from g2forge import aw, cli
if sys.argv[1] == "native":
    # the native route to P off by one in its numerator cubic
    numerator = aw.p_numerator
    aw.p_numerator = lambda n, inv: numerator(n, inv) + 1
else:
    # the block fit pushed through the reparametrization, R doubled
    revert = aw.revert_block_fit
    aw.revert_block_fit = lambda c: revert(c[:3] + (2 * c[3],))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "aw", "--seed", "1", "--random", "1",
                     "--format", "json", "--output", "report.json"])
with open("report.json") as fh:
    checks = json.load(fh)["suites"][0]["checks"]
print(json.dumps({"exit": code, "failed": {
    c["id"]: c["actual"] for c in checks if c["status"] == "fail"}}))
"""


@pytest.mark.parametrize("route", ["native", "revert"])
def test_broken_fit_route_is_a_recorded_failure(fresh_python, route):
    """One route of P's fit broken, in a fresh interpreter: the raise of
    direct_p_fit (the native route off by one) or of first_principles_fit
    (the pushed block fit with R doubled) becomes the failed
    aw.closed-display record, and its actual names both values and the
    input: the table's and the evaluator's P and xi, or the two fits."""
    proc = fresh_python(_FIT_MUTANT, route)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == 1
    if route == "native":
        z = (1, 1, -1, 2, 1, 0, 1, -1)
        xi = compose(z)
        table = block_tables().fp_value(z)
        d = aw.comparison_form(xi)[2]
        want = ("assembled P disagrees with the full evaluator: table "
                f"{table}, evaluator {table + Fraction(1, 2 * d ** 3)} at "
                f"{json.dumps(xi.to_json())}")
    else:
        direct = first_principles_fit()
        pushed = direct[:3] + (2 * direct[3],)
        want = ("reverted block fit and direct fit of P disagree: reverted "
                "(%s, %s, %s, %s), direct (%s, %s, %s, %s)" % (pushed + direct))
    assert out["failed"]["aw.closed-display"] == \
        "InternalConsistencyError: " + want


def test_block_fits_name_both_values(monkeypatch):
    """The raises of the table route name both values and the blocks:
    fp_numerator's odd part, as P = even + odd sqrt(10), and fit_model's
    span check, as the fitted model's value and the cubic's, at the
    first lattice point where they differ."""
    tab = block_tables()
    z = (1, 1, -1, 2, 1, 0, 1, -1)
    p = tab.fp_value(z)
    # an odd part of 216 = M^3 is 1 sqrt(10) in P
    split = aw._BlockTables.split
    monkeypatch.setattr(aw._BlockTables, "split",
                        lambda *t: (split(*t)[0], 216))
    with pytest.raises(InternalConsistencyError) as err:
        tab.fp_numerator(z)
    assert str(err.value) == (
        f"sqrt(10)-odd part of P does not vanish: P = {p} + 1 sqrt(10) at "
        "s = 1, y = (1, -1, 2) on e1..e3 and x = (1, 0, 1, -1) on e4..e7")
    monkeypatch.undo()

    def cubic_plus_y3_cubed(z):
        # y3^3 lies outside the model and vanishes at the four probes
        return tab.tri(z, z, z) + z[3] ** 3

    z, model = next((z, m) for z, m in aw._cubic_lattice() if z[3])
    with pytest.raises(InternalConsistencyError) as err:
        aw.fit_model(cubic_plus_y3_cubed)
    fitted = sum(c * m for c, m in zip(fit_block_cubic(), model))
    assert str(err.value) == (
        "block cubic is not spanned by s^3, s|x|^2, s|y|^2, R: model "
        f"{fitted}, cubic {cubic_plus_y3_cubed(z)} at s = {z[0]}, "
        f"y = ({', '.join(map(str, z[1:4]))}) on e1..e3 and "
        f"x = ({', '.join(map(str, z[4:]))}) on e4..e7")


_COUNT_QUAD = """
from g2forge import scalars
calls = [0]
element = scalars._element


def counted(cls, rational, irrational):
    calls[0] += cls is scalars.QuadExt
    return element(cls, rational, irrational)


scalars._element = counted
from g2forge.aw import Su3Element, first_principles_value
xi = Su3Element((1, -3, 2), (2, -1, 4, 0, -3, 1))
first_principles_value(xi)
calls[0] = 0
value = first_principles_value(xi)
print(calls[0], value)
"""


def test_two_route_value_quadext_count(fresh_python):
    """One two-route first_principles_value at a fixed element, after a
    first call has built the frame and the tables, builds no QuadExt
    through scalars._element, which builds every field element an
    operation returns: route one runs the int kernels once on
    U + 2^k W and reads r + q sqrt(10) off the digits, and route two
    splits the block table's passes in ints."""
    proc = fresh_python(_COUNT_QUAD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "-2645/9"]


def test_intermediate_display_report():
    fitted = fit_block_cubic()
    assert fitted != INTERMEDIATE_DISPLAY
    # s^3 and s|y|^2 as displayed; s|x|^2 and R differ
    assert fitted[0] == INTERMEDIATE_DISPLAY[0]
    assert fitted[2] == INTERMEDIATE_DISPLAY[2]
    assert (INTERMEDIATE_DISPLAY[1], fitted[1]) == (39, 99)
    assert (INTERMEDIATE_DISPLAY[3], fitted[3]) == (-8, -15)


def test_closed_form_report():
    fitted = first_principles_fit()
    assert fitted != CLOSED_DISPLAY
    assert pairing.pairing_report()["sign_resolution"] == \
        "intermediate-display"
    assert fitted[0] != CLOSED_DISPLAY[0]  # computed -210 against displayed +210
    assert fitted[0] == -210
    assert fitted[2] == CLOSED_DISPLAY[2]  # 50/3 survives the reversion
    assert fitted[1] != CLOSED_DISPLAY[1] and fitted[3] != CLOSED_DISPLAY[3]
