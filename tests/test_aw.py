"""Tests for the reductive block frame, su(3) elements, and the block
expansion of the obstruction cubic."""

import itertools
import json
import random
import types
from fractions import Fraction

import pytest

from g2forge import aw, cubic, g2, pairing, suites
from g2forge.aw import AWFrame, Su3Element, block_coords, block_products, \
    block_tables, CLOSED_DISPLAY, INTERMEDIATE_DISPLAY, c_direct, c_display, \
    c_of, \
    compose, decompose, first_principles_fit, first_principles_value, \
    fit_block_cubic, r_value, standard_aw_frame, tensor_displays, \
    verify_block_products, verify_tensor_displays
from g2forge.exterior import FormError, blade_mask, coords_of, norm_sq, \
    vector, vector_form, wedge
from g2forge.g2 import G2Frame, InternalConsistencyError, \
    TypeDecompositionError, standard_frame
from g2forge.scalars import GaussRational, QuadExt, ScalarError

import reference
from reference import SQRT10, principal_lattice


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
    """The metric duals of the frame's forms, as matrices written entry
    by entry (reference.two_form_endo), form a quaternionic triple that
    commutes with J."""
    J, I = reference.block_endos()
    product = reference.product

    def minus(M):
        return reference.matrix_combination((-1, M))
    assert product(I[0], I[1]) == minus(I[2])
    assert product(I[1], I[2]) == minus(I[0])
    assert product(I[2], I[0]) == minus(I[1])
    for Ia in I:
        assert product(J, Ia) == product(Ia, J)


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
    J, I = reference.block_endos()
    assert r_value(vector(2), x) == sum(
        a * b for a, b in zip(J.apply(xc), I[1].apply(xc)))


def test_fresh_frame_constructs():
    fr = AWFrame()
    assert fr.Omega == standard_aw_frame().Omega


def test_standard_aw_frame_is_built_once():
    assert standard_aw_frame() is standard_aw_frame()
    assert standard_aw_frame().g2 is standard_frame()
    # the one value the failed-build cache keeps for its build
    assert g2._built(standard_aw_frame.__wrapped__) is standard_aw_frame()


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
    # the norm carries the block factor |C(x)|^2 = 12 |x|^2
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


def test_first_principles_c_constructions_checked(rebuilt, monkeypatch):
    """The two constructions of C are compared once, by
    verify_c_constructions (aw.dual-constructions): a broken c_display
    fails that comparison, and P, which reads C through c_of (c_direct)
    alone, keeps its value."""
    xi = _xi_with_m4_part()
    value = first_principles_value(xi)
    assert aw.verify_c_constructions() is None
    rebuilt()
    monkeypatch.setattr(aw, "c_display", lambda x: 2 * c_direct(x))
    assert aw.verify_c_constructions() is not None
    assert first_principles_value(xi) == value


def test_c_raise_names_x_and_the_first_differing_blade(monkeypatch):
    """At the symbolic x = (0, 0, 0, x4..x7) the comparison names the
    first blade where the two constructions differ, as a polynomial in
    the coordinates of x; c_of does not compare and returns c_direct."""
    monkeypatch.setattr(aw, "c_display", lambda x: 2 * c_direct(x))
    assert aw.verify_c_constructions() == "e124 is (-1)*x7, not (-2)*x7"
    x = vector(4) + 2 * vector(6)
    assert aw.c_of(x) == c_direct(x)


def test_first_principles_type_gate(rebuilt, monkeypatch, awframe, g2frame):
    # a Lambda^3_7 part (<A, e_2 -| psi> != 0) in the C(e_i) of the basis,
    # which W reads, or in phitilde, which U reads, fails the one gate,
    # block_basis's, on both routes to P, at a tensor-display point, at
    # a solver point and in the table's build (every kept build is reset
    # before each patch, the table's too, so that the build reruns under
    # the patch, and the frame's, so phitilde is patched on the frame
    # built after the reset)
    stray = g2frame.kappa[1]
    xi, z = _xi_with_m4_part(), (1, 1, -1, 2, 1, 0, 1, -1)
    calls = [lambda: first_principles_value(xi),
             lambda: first_principles_value(xi, single_route=True),
             lambda: tensor_displays(z), lambda: aw._solver_products(z),
             block_tables]
    for target, name, value in (
            (lambda: aw, "c_of", lambda x: c_direct(x) + stray),
            (standard_aw_frame, "phi_tilde", awframe.phi_tilde + stray)):
        rebuilt()
        with monkeypatch.context() as patch:
            patch.setattr(target(), name, value)
            for call in calls:
                with pytest.raises(TypeDecompositionError) as err:
                    call()
                assert str(err.value) == "block basis is not of pure 27 type"


def test_block_forms_pass_one_gate(rebuilt, monkeypatch):
    """The type-27 gate runs on the eight forms of the block basis and on
    no combination of them: once the basis is built, a two-route P, a
    tensor-display point and a solver point make no is_pure27 call, and
    a fresh basis makes 8."""
    xi, z = _xi_with_m4_part(), (1, 1, -1, 2, 1, 0, 1, -1)
    calls = (lambda: first_principles_value(xi), lambda: tensor_displays(z),
             lambda: aw._solver_products(z))
    # the basis and the block table are built here
    for call in calls:
        call()
    count = [0]
    is_pure27 = G2Frame.is_pure27

    def counted(self, b):
        count[0] += 1
        return is_pure27(self, b)

    monkeypatch.setattr(G2Frame, "is_pure27", counted)
    made = []
    for call in calls + (rebuilt, aw.block_basis):
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


def _split_oracle_elements() -> list:
    """The 120 interpolation points of P (aw.cubic_points: singles,
    pairs of both signs, triples), the three Monte-Carlo elements of the
    pairing suite and 100 seeded int elements with entries in [-4, 4],
    as the benchmark's su3 stream draws them."""
    points = [pairing._xi_from_coords(c) for c in aw.cubic_points()]
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


def test_two_routes_catch_an_asymmetric_pair_table(monkeypatch, rebuilt):
    """One sign of the grade-3 pair table flipped (the second triple of
    e123) keeps p symmetric in its two arguments but breaks the full
    symmetry of the trilinear form T on the block basis: the block
    table refuses to build, so the two-route call, which reads the
    table, raises, while the native route, which reads T only on the
    diagonal, still returns on its own.  The table, or its failed
    build, is kept per process; the kept builds are reset under the
    flip and again after it."""
    xi = _xi_with_m4_part()
    want = first_principles_value(xi)
    table = cubic._pair_table(3)
    e123 = blade_mask((1, 2, 3))
    k, mm, sign = table[e123][1]
    monkeypatch.setitem(table, e123,
                        table[e123][:1] + ((k, mm, -sign),) + table[e123][2:])
    rebuilt()
    first_principles_value(xi, single_route=True)
    with pytest.raises(InternalConsistencyError,
                       match="block trilinear table is not fully symmetric"):
        first_principles_value(xi)
    monkeypatch.undo()
    rebuilt()
    assert first_principles_value(xi) == want


_ASYMMETRIC = "block trilinear table is not fully symmetric: "


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
    # x -> (sqrt(10)/6)x gives the same fit (aw.revert-map records it)
    assert aw.revert_block_fit(fit_block_cubic()) == fitted
    # spot check the model
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
    points = list(principal_lattice(8, 3))
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
    """verify_block_products compares the six products and the cubic of
    both routes, the table's and the solver's, with their displays: one
    product (or the cubic) doubled on the solver route fails that
    product's record (its corrected value where it has one) and the
    weighted sum's, and leaves every other record as it was."""
    solver = aw._solver_products
    z = (1, 1, 0, 0, 0, 1, 0, 0)
    values = [-210, 2, 33, 2, -5, 28, -120]
    assert solver(z) == (tuple(values[:6]), values[6])
    before = verify_block_products()
    assert all(row.get("corrected_matches", row["matches"])
               for row in before)

    def doubled(z):
        six, full = solver(z)
        values = list(six) + [full]
        values[index] *= 2
        return tuple(values[:6]), values[6]

    monkeypatch.setattr(aw, "_solver_products", doubled)
    after = verify_block_products()
    assert [row["product"] for row in after] == [
        row["product"] for row in before]
    broken = {index, 6}
    for i, (was, now) in enumerate(zip(before, after)):
        if i not in broken:
            assert now == was
        elif "corrected_matches" in was:
            assert now == dict(was, corrected_matches=False)
        else:
            assert now == dict(was, matches=False)


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
    rows = verify_tensor_displays()
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
    rows = verify_block_products()
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
    """The 36 points of (y, x) with coordinate sum <= 2, then seeded
    random points with int and with Fraction coordinates."""
    points = [blocks_of((0,) + p[1:])[1:] for p in principal_lattice(8, 2)]
    for _ in range(n_random):
        _, y, x = random_blocks(rng)
        points.append((y, x))
        points.append((y * Fraction(1, rng.randint(2, 5)),
                       x * Fraction(rng.randint(1, 4), rng.randint(2, 5))))
    return points


def _suite_points(n=50):
    """Seeded points from the stream of the aw suite's tensor-display
    sweep at seed 1, as its random points were drawn."""
    rng = suites.check_rng(1, "aw.tensor-displays")
    return [blocks_of([rng.randint(-4, 4) for _ in range(8)])[1:]
            for _ in range(n)]


def test_tensor_displays_match_fraction_oracle():
    """tensor_displays on flat triangles gives the records of the
    Fraction route at the 36 points of (y, x) with coordinate sum <= 2,
    at random int and Fraction points and at seeded points of the
    suite's stream."""
    points = _sweep_points(random.Random(9016), 6) + _suite_points()
    assert len(points) == 36 + 12 + 50
    for y, x in points:
        assert tensor_displays(block_coords(0, y, x)) == \
            reference.aw_tensor_displays(y, x)


def test_display_sides_match_reference():
    """Each display side from its formula equals its Matrix and SymTensor
    formula in tests/reference.py (twice e_a . I_a x, y . Jx and the mix,
    as _outer2 scales them), and R's metric route on the nonzero entries
    of J and the I_a equals g(Jx, I_y x) from two dense applies: at the
    36 points of (y, x) with coordinate sum <= 2, at random int and
    Fraction points and at seeded points of the suite's stream."""
    points = _sweep_points(random.Random(9018), 6) + _suite_points(10)
    for y, x in points:
        z = block_coords(0, y, x)
        jiy, ia, yjx, mix, cc = reference.aw_display_tensors(y, x)
        want = [jiy, ia.scale(2), yjx.scale(2), mix.scale(2), cc]
        assert list(aw._display_sides(z)) == [t.upper for t in want]
        assert aw._r(z) == reference.r_metric(y, x)


def test_display_sides_need_symmetric_j_ia(monkeypatch, awframe):
    """The display sides check each J I_a symmetric, the check SymTensor
    made at every point before, and name the first upper-triangle entry
    where J I_a and its transpose differ."""
    # J = I1 commutes with I1, not with I2: J I2 = I1 I2 = -I3 is skew
    bent = types.SimpleNamespace(omega=awframe.omega, Omega=awframe.omega[0])
    monkeypatch.setattr(aw, "standard_aw_frame", lambda: bent)
    with pytest.raises(InternalConsistencyError, match="J I_a") as err:
        aw._display_sides(aw._symbolic_point())
    assert str(err.value) == ("J I_a is not symmetric at a = 2, "
                              "J I_a = (J I_a)^T fails: entry (3, 6) is 1, "
                              "not -1")


def _doubled(fn):
    return lambda *args: 2 * fn(*args)


def _negated(fn):
    return lambda *args: -fn(*args)


@pytest.mark.parametrize("name, patch, text", [
    ("vector", _doubled(aw.vector),
     "phi = vol3 + sum_a e^a ^ omega_a: e145 is 2, not 1"),
    ("hodge_m4", lambda a: a, "*omega_1 = -omega_1: e45 is 1, not -1"),
    ("contract", _negated(aw.contract),
     "I1 I2 = -I3 on e4: e7 is -1, not 1"),
], ids=["rebuild-phi", "anti-self-dual", "quaternions"])
def test_block_frame_raises_name_what_failed(monkeypatch, name, patch, text):
    monkeypatch.setattr(aw, name, patch)
    with pytest.raises(InternalConsistencyError) as err:
        AWFrame()
    assert str(err.value) == "the block frame fails " + text


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
counts = {"quadratic_form": 0, "Matrix.apply": 0, "contract": 0,
          "vector_form": 0, "coords_of": 0, "norm_sq": 0, "numerators": 0}
entered = {}
depth = [0]


def inside_only(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += depth[0] > 0
        return fn(*args, **kwargs)
    return wrapper


# patched before the modules that could import them by name load
linalg.Matrix.apply = inside_only("Matrix.apply", linalg.Matrix.apply)
# the block Form helpers, in exterior before any module binds them
for name in ("contract", "vector_form", "coords_of", "norm_sq",
             "numerators"):
    setattr(exterior, name, inside_only(name, getattr(exterior, name)))
from g2forge import cubic
cubic.quadratic_form = inside_only("quadratic_form", cubic.quadratic_form)
from g2forge import aw, cli


def window(name, fn):
    def wrapper(*args, **kwargs):
        entered[name] = entered.get(name, 0) + 1
        outer = depth[0]
        depth[0] = outer + 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] = outer
    return wrapper


for name in ("verify_tensor_displays", "verify_block_products",
             "fit_block_cubic", "first_principles_fit", "fit_model"):
    setattr(aw, name, window(name, getattr(aw, name)))
aw._BlockTables.__init__ = window("block_tables", aw._BlockTables.__init__)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "aw", "--seed", "1", "--random", "1"])
print(json.dumps({"exit": code, "counts": counts, "entered": entered}))
"""


def test_aw_run_counts(fresh_python):
    """One aw run fits twice (the block cubic, and P through its table),
    and its sweeps, block products and block-table build run on flat
    triangles: no quadratic_form, whose Fraction results they used to
    compare.  Every I_a and J is a contraction with its form, so no
    Matrix.apply runs (eight ran when the frame kept matrices, with
    three Matrix products J I_a).  The display sides come from their
    formulas once, at the symbolic point: 50 contractions (42 for the
    columns (e_j -| omega_a) -| Omega of the three J I_a, three I_a x,
    one Jx, and Jx and the three I_a Jx for the mix), and R makes four,
    Jx and the three I_a x, at each of its four calls (the two routes
    of the block products and the two fits).  The sweeps, the fits and
    the table build read the eight block coordinates: the one vector
    Form is x, built by vector_form for the contractions (once per
    display side and per R call, 6) and read back by coords_of (21
    columns, three I_a x, Jx and three I_a Jx, 28), and no norm_sq or
    numerators call runs (vector_form, coords_of, norm_sq and numerators
    ran 774, 1860, 596 and 86 times when each point went through
    (s, y, x) vector Forms)."""
    proc = fresh_python(_COUNT_AW_RUN)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == 1
    # fit_block_cubic and first_principles_fit are cached, two fits: the
    # block fit read by its record and aw.revert-map, the fit of P by
    # aw.closed-display, the pairing report and aw.revert-map
    assert out["entered"] == {"block_tables": 1, "verify_tensor_displays": 1,
                              "verify_block_products": 1,
                              "fit_block_cubic": 2,
                              "first_principles_fit": 3, "fit_model": 2}
    assert out["counts"] == {"quadratic_form": 0, "Matrix.apply": 0,
                             "contract": 66, "vector_form": 6,
                             "coords_of": 28, "norm_sq": 0, "numerators": 0}


def test_fit_and_interpolation_counts(monkeypatch, rebuilt):
    """Each fit makes one polynomial call at the symbolic point: the block
    fit one tri(z, z, z) and the direct fit one fp_numerator (120 and 121,
    with a certification point, when each read its cubic through the
    120-point interpolation map), and each fit reads the model terms
    there, one _r call (120 when the model's coefficients were
    interpolated too).  Interpolating P still makes 120 single-route
    first_principles_value calls."""
    calls = {"_r": [], "tri": [], "fp_numerator": [], "value": []}
    block_tables()
    z = aw._symbolic_point()
    r = aw._r
    monkeypatch.setattr(aw, "_r", lambda z: calls["_r"].append(z) or r(z))
    tri, numerator = aw._BlockTables.tri, aw._BlockTables.fp_numerator
    monkeypatch.setattr(aw._BlockTables, "tri",
                        lambda self, *z: calls["tri"].append(z)
                        or tri(self, *z))
    fit_block_cubic()
    monkeypatch.setattr(aw._BlockTables, "tri", tri)
    monkeypatch.setattr(aw._BlockTables, "fp_numerator",
                        lambda self, z: calls["fp_numerator"].append(z)
                        or numerator(self, z))
    first_principles_fit()
    value = pairing.first_principles_value
    monkeypatch.setattr(pairing, "first_principles_value",
                        lambda xi, **kw: calls["value"].append(kw)
                        or value(xi, **kw))
    pairing.interpolate_p_coefficients()
    assert calls["_r"] == [z, z]
    assert calls["tri"] == [(z, z, z)]
    assert calls["fp_numerator"] == [z]
    assert calls["value"] == [{"single_route": True}] * 120
    assert len(set(aw.cubic_points())) == 120


def test_cubic_coefficients_recover_a_seeded_cubic():
    """cubic_coefficients reads a cubic with Fraction coefficients back
    exactly, on each monomial shape iii, iij, ijj and ijk: the keys are
    sorted index triples, and a zero coefficient has no key."""
    rng = random.Random(9031)
    monomials = list(itertools.combinations_with_replacement(range(8), 3))
    cubic = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for m in rng.sample(monomials, 30)}
    cubic.update({(2, 2, 2): Fraction(-3, 7), (1, 1, 5): Fraction(5, 2),
                  (0, 6, 6): Fraction(1, 3), (3, 4, 7): Fraction(-4, 5),
                  (0, 0, 0): Fraction(0)})
    want = {m: c for m, c in cubic.items() if c}

    def f(z):
        return sum(c * z[i] * z[j] * z[k] for (i, j, k), c in cubic.items())

    got = aw.cubic_coefficients(f)
    assert got == want and (0, 0, 0) not in got
    assert all(type(c) is Fraction for c in got.values())


def test_symbolic_sweeps_and_fits_match_the_point_routes():
    """The sweeps at the symbolic point give the summaries of the numeric
    route over the 36 points of (y, x) with coordinate sum <= 2 and the
    120 points of coordinate sum 3 (each lattice unisolvent for its
    degrees) plus seeded random int points, and the symbolic fits equal
    fit_model over the coefficients that cubic_coefficients interpolates
    from the table, with the model's coefficients interpolated too."""
    tensors, products = reference.point_sweeps(random.Random(9032), 20)
    assert verify_tensor_displays() == tensors
    assert verify_block_products() == products
    tab = block_tables()
    m3 = aw._family_ints()[1] ** 3
    assert fit_block_cubic() == reference.fit_coefficients(
        aw.cubic_coefficients(lambda z: tab.tri(z, z, z)))
    direct = reference.fit_coefficients(
        aw.cubic_coefficients(tab.fp_numerator))
    assert first_principles_fit() == tuple(c / m3 for c in direct)


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


_FAILED_FRAME_KEPT = """
import sys
from g2forge import aw, suites
builds = []


def failing(*args):
    builds.append(1)
    raise aw.InternalConsistencyError("the build fails")


setattr(getattr(aw, sys.argv[1]), sys.argv[2], failing)
suites.suite_aw(1, n_random=5)
print(len(builds))
"""


@pytest.mark.parametrize("owner, step", [("AWFrame", "_check_structure"),
                                         ("_BlockTables", "__init__")])
def test_failed_frame_and_table_builds_run_once(fresh_python, owner, step):
    """The block frame's structure check or the block table's build
    raising, in a fresh interpreter: the build fails once, and the aw
    suite at seed 1, whose every reader of it then raises, never runs
    it again (4 frame builds when a failed build was not kept)."""
    proc = fresh_python(_FAILED_FRAME_KEPT, owner, step)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_block_fits_name_both_values(monkeypatch):
    """The raises of the table route name both values and the blocks:
    fp_numerator's odd part, as P = even + odd sqrt(10), and fit_model's
    span check, as the fitted model's coefficient and the cubic's, at the
    first monomial where they differ."""
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

    # s y1^2 added: c3 is read off s*y1*y1 as 6 + 1, and the model then
    # misses the cubic at s*y2*y2, the first monomial where they differ;
    # y3^3 added lies outside the model, which is 0 there
    z = aw._symbolic_point()
    for extra, text in ((z[0] * z[1] * z[1], "model 7, cubic 6 at s*y2*y2"),
                        (z[3] * z[3] * z[3], "model 0, cubic 1 at y3*y3*y3")):
        with pytest.raises(InternalConsistencyError) as err:
            aw.fit_model(tab.tri(z, z, z) + extra)
        assert str(err.value) == (
            "block cubic is not spanned by s^3, s|x|^2, s|y|^2, R: " + text)


def test_symbolic_odd_part_raise_names_a_monomial(monkeypatch, rebuilt):
    """A nonzero odd part at the symbolic point, and there only, raises
    an InternalConsistencyError naming the odd part's first monomial and
    P's sqrt(10) coefficient there; first_principles_fit raises it from
    its fit and keeps it: a second read raises the same text without
    reading the table again."""
    z = aw._symbolic_point()
    split = aw._BlockTables.split
    calls = []

    def odd(self, zu, zw):
        calls.append(1)
        even, odd = split(self, zu, zw)
        if hasattr(even, "terms"):
            odd = 432 * z[0] * z[4] * z[4] + 216 * z[1] * z[1] * z[2]
        return even, odd

    monkeypatch.setattr(aw._BlockTables, "split", odd)
    text = ("sqrt(10)-odd part of P does not vanish: 2 sqrt(10) at s*x4*x4, "
            "the first monomial of P's odd part")
    with pytest.raises(InternalConsistencyError) as err:
        block_tables().fp_numerator(z)
    assert str(err.value) == text
    for _ in range(2):
        with pytest.raises(InternalConsistencyError) as err:
            first_principles_fit()
        assert str(err.value) == text
    # the call above, and the fit's one at the symbolic point
    assert len(calls) == 2


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
