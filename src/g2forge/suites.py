"""Named verification suites over the whole package.

Each suite runs a list of checks with stable ids and returns a report
dict: {"suite", "seed", "passed", "checks"} where every check carries
(id, status, expected, actual, anchor).  The anchor is the identity or
construction the check certifies, stated mathematically.

Randomized checks draw from per-check streams derived from the run
seed and the check id, so reports are byte-identical under a fixed
seed no matter how checks are scheduled.  Wall time is never part of
a report; runners print it to the diagnostic stream instead.

A suite passes iff all its checks pass.  An exception that escapes a
suite becomes its one failed check <suite>.exception, naming the class,
the message and the seed, so the run still writes a report.  The
reproduction suite (aw) contains checks that compare exact results
against tabulated closed forms that do not hold as stated; those fail
by design and sit next to passing checks certifying the corrected
forms.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from . import DEFAULT_RANDOM, DEFAULT_SAMPLES, SUITE_NAMES
from . import cubic as cubicmod
from . import exterior as ext
from .exterior import blade, contract, coords_of, hodge, inner, norm_sq, \
    vector, vector_form, vol_coefficient, wedge
from .g2 import random_traceless, standard_frame, star_action
from .linalg import Matrix, SymTensor, rank, sym_inner
from .scalars import GaussRational


def derived_seed(seed: int, check_id: str) -> int:
    """A stable integer sub-seed for one named check."""
    digest = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_rng(seed: int, check_id: str) -> random.Random:
    return random.Random(derived_seed(seed, check_id))


def _record(checks: list, cid: str, ok: bool, expected, actual, anchor: str):
    checks.append({
        "id": cid,
        "status": "pass" if ok else "fail",
        "expected": str(expected),
        "actual": str(actual),
        "anchor": anchor,
    })
    return ok


def _report(name: str, seed: int, checks: list, extra: dict | None = None) -> dict:
    checks = sorted(checks, key=lambda c: c["id"])
    rep = {
        "suite": name,
        "seed": seed,
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }
    if extra:
        rep.update(extra)
    return rep


def _random_form(rng: random.Random, grade: int, bound: int = 5) -> ext.Form:
    # one draw per blade in mask order; Form drops the zero draws
    return ext.Form(grade, {m: rng.randint(-bound, bound)
                            for m in range(128) if m.bit_count() == grade})


def _traceless_basis() -> list[SymTensor]:
    """The 27 standard traceless symmetric tensors: 21 off-diagonal
    symmetrized pairs and 6 consecutive diagonal differences."""
    basis = []
    for i in range(7):
        for j in range(i + 1, 7):
            ei = coords_of(vector(i + 1))
            ej = coords_of(vector(j + 1))
            basis.append(SymTensor.sym_outer(ei, ej))
    for i in range(6):
        diag = [0] * 7
        diag[i], diag[i + 1] = 1, -1
        basis.append(SymTensor.diag(diag))
    return basis


# -- exterior ---------------------------------------------------------------

def suite_exterior(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    checks: list = []
    fr = standard_frame()
    vol = blade(range(1, 8))

    _record(checks, "exterior.hodge-phi",
            hodge(fr.phi) == fr.psi and hodge(fr.psi) == fr.phi,
            "*phi = psi and *psi = phi", "as computed",
            "the 4-form dual to the structure 3-form")
    _record(checks, "exterior.structure-norms",
            norm_sq(fr.phi) == 7 and norm_sq(fr.psi) == 7
            and wedge(fr.phi, fr.psi) == 7 * vol,
            "<phi,phi> = <psi,psi> = 7, phi ^ psi = 7 vol", "as computed",
            "normalization of the structure forms")
    ok = True
    for m in range(128):
        k = bin(m).count("1")
        b = ext.Form(k, {m: Fraction(1)})
        ok = ok and hodge(hodge(b)) == b
    _record(checks, "exterior.hodge-involution", ok,
            "** = id on all 128 basis blades", "as computed",
            "in 7 dimensions * has sign (-1)^{k(7-k)} = +1 on every grade")

    metric = fr.metric_from_structure()
    ok = all(metric.at(i, j) == (1 if i == j else 0)
             for i in range(7) for j in range(7))
    _record(checks, "exterior.metric-recovery", ok,
            "g = id from all 49 pairs", "as computed",
            "(v -| phi) ^ (w -| phi) ^ phi = -6 g(v, w) vol")

    rng = check_rng(seed, "exterior.wedge-algebra")
    ok = True
    for _ in range(n_random):
        ka, kb, kc = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
        a, b, c = (_random_form(rng, k, 3) for k in (ka, kb, kc))
        ok = ok and wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        sign = (-1) ** (ka * kb)
        ok = ok and wedge(a, b) == sign * wedge(b, a)
        ok = ok and wedge(a + a, b) == 2 * wedge(a, b)
    _record(checks, "exterior.wedge-algebra", ok,
            "associative, graded-commutative, bilinear", "as computed",
            f"{n_random} random triples of forms")

    rng = check_rng(seed, "exterior.contraction-antiderivation")
    ok = True
    for _ in range(n_random):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a, b = _random_form(rng, ka, 3), _random_form(rng, kb, 3)
        v = vector_form([rng.randint(-3, 3) for _ in range(7)])
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + (-1) ** ka * wedge(a, contract(v, b))
        ok = ok and lhs == rhs
    _record(checks, "exterior.contraction-antiderivation", ok,
            "v -| (a ^ b) = (v -| a) ^ b + (-1)^|a| a ^ (v -| b)",
            "as computed", f"{n_random} random instances")

    rng = check_rng(seed, "exterior.json-roundtrip")
    ok = True
    for _ in range(20):
        a = _random_form(rng, rng.randint(0, 7), 4)
        ok = ok and ext.form_from_json(ext.form_to_json(a)) == a
    _record(checks, "exterior.json-roundtrip", ok,
            "form -> JSON -> form is the identity", "as computed",
            "serialization codec")
    return _report("exterior", seed, checks)


# -- g2 ---------------------------------------------------------------------

def suite_g2(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    checks: list = []
    fr = standard_frame()

    def part_ranks(split, grade):
        # the rank of each part of the split, applied to the basis blades
        images = [split(ext.Form(grade, {m: 1}))
                  for m in ext.BLADES_BY_GRADE[grade]]
        return [rank(Matrix.from_rows([ext.form_to_coords(p[k])
                                       for p in images]))
                for k in range(len(images[0]))]

    dims = part_ranks(fr.project2, 2)
    dims3 = part_ranks(fr.project3, 3)
    dims4 = part_ranks(fr.project4, 4)
    ok = dims == [7, 14] and dims3 == [1, 7, 27] and dims4 == [1, 7, 27]
    _record(checks, "g2.type-dimensions", ok,
            "2-forms split 7+14; 3- and 4-forms split 1+7+27",
            f"{dims} {dims3} {dims4}",
            "irreducible pieces of the form spaces under the structure group")

    rng = check_rng(seed, "g2.projector-algebra")
    ok = True
    for _ in range(n_random // 2):
        a3 = _random_form(rng, 3, 3)
        parts = fr.project3(a3)
        ok = ok and sum(parts, ext.Form.zero(3)) == a3
        for p in parts:
            ok = ok and fr.project3(p) in [
                tuple(p if k == i else ext.Form.zero(3) for k in range(3))
                for i in range(3)]
        a4 = _random_form(rng, 4, 3)
        parts4 = fr.project4(a4)
        ok = ok and sum(parts4, ext.Form.zero(4)) == a4
    _record(checks, "g2.projector-algebra", ok,
            "projections sum to the identity and are idempotent",
            "as computed", f"{n_random // 2} random 3- and 4-forms")

    ok = True
    count = 0
    for m in range(128):
        if bin(m).count("1") != 4:
            continue
        b = ext.Form(4, {m: Fraction(1)})
        h = fr.hat(b)
        for j in range(1, 8):
            v = vector(j)
            count += 1
            ok = ok and (wedge(h, contract(v, fr.psi))
                         + wedge(fr.phi, contract(v, b))).is_zero()
    _record(checks, "g2.hat-defining-identity", ok,
            "hat(a) ^ (v -| psi) + phi ^ (v -| a) = 0, all 245 cases",
            f"{count} identities checked",
            "the hat operator on 4-forms, checked on every basis blade and vector")

    _record(checks, "g2.hat-of-psi", fr.hat(fr.psi) == -fr.phi,
            "hat(psi) = -phi", "as computed",
            "hat acts as -* on the singlet type")

    def iso_identities(S):
        # S * psi by the derived action, independent of the table behind i
        b = fr.iso_i(S)
        return hodge(star_action(S.to_matrix(), fr.psi)) == -b \
            and norm_sq(b) == 2 * sym_inner(S, S)

    ok = all(iso_identities(S) for S in _traceless_basis())
    rng = check_rng(seed, "g2.iso-identities")
    for _ in range(n_random):
        ok = ok and iso_identities(random_traceless(rng))
    _record(checks, "g2.iso-identities", ok,
            "*(S * psi) = -(S * phi) and |i(S)|^2 = 2|S|^2",
            "as computed",
            f"27 basis tensors plus {n_random} random traceless S")

    rng = check_rng(seed, "g2.iso-inner-product")
    ok = True
    for _ in range(n_random):
        S = random_traceless(rng)
        v = vector_form([rng.randint(-4, 4) for _ in range(7)])
        w = vector_form([rng.randint(-4, 4) for _ in range(7)])
        Sv = vector_form(S.apply(coords_of(v)))
        lhs = vol_coefficient(wedge(wedge(fr.iso_i(S), contract(v, fr.psi)), w))
        ok = ok and lhs == 2 * inner(Sv, w)
    _record(checks, "g2.iso-inner-product", ok,
            "i(S) ^ (v -| psi) ^ w = 2 g(Sv, w) vol", "as computed",
            f"{n_random} random triples (S, v, w)")

    pairing_rank = rank(fr.pairing_matrix())
    _record(checks, "g2.pairing-rank", pairing_rank == 35, "rank 35",
            str(pairing_rank),
            "gamma |-> (gamma ^ (e_j -| psi))_j is injective on 3-forms")

    rng = check_rng(seed, "g2.vector-extraction")
    ok = True
    for _ in range(n_random):
        v = vector_form([rng.randint(-4, 4) for _ in range(7)])
        ok = ok and fr.extract_v7(wedge(v, fr.phi)) == v
    _record(checks, "g2.vector-extraction", ok,
            "extract(V ^ phi) = V", "as computed",
            f"{n_random} random vectors")
    return _report("g2", seed, checks)


# -- cubic ------------------------------------------------------------------

def suite_cubic(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    checks: list = []
    fr = standard_frame()
    n_pairs = max(10, n_random // 2)

    rng = check_rng(seed, "cubic.b2-solve")
    ok = True
    for _ in range(n_pairs):
        a1 = fr.iso_i_psi(random_traceless(rng))
        a2 = fr.iso_i_psi(random_traceless(rng))
        g12 = cubicmod.b2(a1, a2, fr)
        ok = ok and g12 == cubicmod.b2(a2, a1, fr)
        a3 = fr.iso_i_psi(random_traceless(rng))
        ok = ok and cubicmod.b2(a1 + a3, a2, fr) == g12 + cubicmod.b2(a3, a2, fr)
    _record(checks, "cubic.b2-solve", ok,
            "b2 exists, is unique, symmetric, bilinear", "as computed",
            f"{n_pairs} random pairs; the 49 x 35 solve has full column rank")

    rng = check_rng(seed, "cubic.q2-closed-form")
    ok = True
    for _ in range(n_pairs):
        a = fr.iso_i_psi(random_traceless(rng))
        q = cubicmod.q2(a, fr)
        p1, p7, _ = fr.project3(q)
        ok = ok and p7.is_zero()
    _record(checks, "cubic.q2-closed-form", ok,
            "Q2(a) = -i(q0(a,a)) + (2/7)|a|^2 phi agrees with the solve; "
            "no 7-part", "as computed",
            f"{n_pairs} random 27-type 4-forms, exact agreement enforced")

    rng = check_rng(seed, "cubic.q-and-p-displays")
    ok = True
    for _ in range(n_pairs):
        S = random_traceless(rng)
        b = fr.iso_i(S)
        ok = ok and cubicmod.p_value(b, fr) == cubicmod.q_value(hodge(b), fr)
    _record(checks, "cubic.q-and-p-displays", ok,
            "Q(a) vol = Q2(a) ^ a, Q(a) = -2<q(a,a), i^{-1}(*a)>, "
            "P(b) = 2<p(b,b), i^{-1}(b)> = Q(*b)", "as computed",
            f"{n_pairs} random instances; each call cross-checks both routes")

    rng = check_rng(seed, "cubic.trilinear-symmetry")
    ok = True
    n_tri = max(10, n_random // 2)
    for _ in range(n_tri):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        base = cubicmod.trilinear_direct(S1, S2, S3, fr)
        for perm in itertools.permutations((S1, S2, S3)):
            ok = ok and cubicmod.trilinear_direct(*perm, fr) == base
    _record(checks, "cubic.trilinear-symmetry", ok,
            "T(S1,S2,S3) = <p(i(S1), i(S2)), S3> is S3-symmetric",
            "as computed",
            f"{n_tri} random triples, all 6 permutations each")

    rng = check_rng(seed, "cubic.trilinear-routes")
    ok = True
    for _ in range(10):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        direct = cubicmod.trilinear_direct(S1, S2, S3, fr)
        ok = ok and cubicmod.trilinear(S1, S2, S3, fr) == 2 * direct
        ok = ok and cubicmod.trilinear_star_route(S1, S2, S3, fr) == 2 * direct
    _record(checks, "cubic.trilinear-routes", ok,
            "cocycle route and derived-action route both equal "
            "2 <p(i(S1), i(S2)), S3>", "as computed",
            "10 random triples across all three constructions")
    return _report("cubic", seed, checks)


# -- aw ---------------------------------------------------------------------
# aw and pairing are imported by the functions that use them, so a run of
# the exterior, g2 or cubic suite never compiles either module

def _random_su3(rng: random.Random, bound: int = 4) -> awmod.Su3Element:
    from . import aw as awmod
    v1, v2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return awmod.Su3Element(
        (v1, v2, -v1 - v2),
        tuple(rng.randint(-bound, bound) for _ in range(6)))


# the aw checks that fail by design: each compares with a tabulated
# closed form that does not hold as stated; notes/decisions.md gives
# the display, its corrected form and the evidence for each
AW_BY_DESIGN = frozenset({
    "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a",
    "aw.tensor-display.p(y^Omega,C(x))=6y.Jx",
    "aw.tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax",
    "aw.block-product.p(phitilde,C(x))",
    "aw.block-product.p(y^Omega,C(x))",
    "aw.generic-sum-display",
    "aw.closed-display",
    "aw.pairing-vs-displays",
})


def _aw_dual_constructions(seed: int) -> tuple[bool, str]:
    from . import aw as awmod
    rng = check_rng(seed, "aw.dual-constructions")
    xs = [vector(i) for i in range(4, 8)]
    xs += [vector_form([0, 0, 0] + [rng.randint(-4, 4) for _ in range(4)])
           for _ in range(20)]
    agree = sum(awmod.c_direct(x) == awmod.c_display(x) for x in xs)
    return agree == len(xs), f"agree on {agree} of {len(xs)} vectors"


def _aw_decompose_roundtrip(seed: int, n_random: int) -> tuple[bool, str]:
    from . import aw as awmod
    rng = check_rng(seed, "aw.decompose-roundtrip")
    basis = awmod.block_basis()
    k = awmod.SQRT10_OVER_6
    good = 0
    for _ in range(n_random):
        xi = _random_su3(rng)
        s, y, x = awmod.decompose(xi)
        back = awmod.compose(s, y, x)
        a = awmod.comparison_form(xi)
        want = ([s] + [Fraction(-5, 3) * c for c in coords_of(y)[:3]]
                + [k * c for c in coords_of(x)[3:]])
        read = all(inner(a, b) == norm_sq(b) * w for b, w in zip(basis, want))
        good += ((back.v, back.x) == (xi.v, xi.x) and read
                 and coords_of(y)[3:] == [0] * 4
                 and coords_of(x)[:3] == [0] * 3)
    return good == n_random, f"{good} of {n_random} elements round-trip"


def _aw_revert_map() -> tuple[bool, str]:
    from . import aw as awmod
    pushed = awmod.revert_block_fit(awmod.fit_block_cubic())
    direct = awmod.fit_model(awmod.block_tables().fp_value)
    return pushed == direct, ("pushed (%s, %s, %s, %s); direct (%s, %s, %s, %s)"
                              % (pushed + direct))


def suite_aw(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    from . import aw as awmod
    from . import pairing as pairmod
    checks: list = []
    fr = awmod.standard_aw_frame()

    I1, I2, I3, J = fr.I[0], fr.I[1], fr.I[2], fr.J
    prod = I1 * I2
    ok = all(prod.at(i, j) == -I3.at(i, j)
             for i in range(7) for j in range(7))
    for Ia in fr.I:
        ok = ok and all((J * Ia).at(i, j) == (Ia * J).at(i, j)
                        for i in range(7) for j in range(7))
    _record(checks, "aw.quaternionic-relations", ok,
            "I1 I2 = -I3 and J commutes with each I_a", "as computed",
            "endomorphisms of the 4-block induced by the anti-self-dual "
            "2-forms and the self-dual Omega")

    ok, actual = _aw_dual_constructions(seed)
    _record(checks, "aw.dual-constructions", ok,
            "x -| (4 vol4 - psi) equals the omega-expansion of C(x)",
            actual, "the two constructions compared on e4..e7 and 20 "
            "random x in the 4-block")

    rng = check_rng(seed, "aw.idet-two-routes")
    ok = True
    for _ in range(n_random):
        xi = _random_su3(rng)
        letters = pairmod.letter_values(xi)
        v = [letters["v1"], letters["v2"], letters["v3"]]
        z = [letters["z1"], letters["z2"], letters["z3"]]
        zb = [letters["zb1"], letters["zb2"], letters["zb3"]]
        display = (v[0] * v[1] * v[2]
                   - sum(v[j] * (z[j] * zb[j]) for j in range(3))
                   + GaussRational(0, 1) * (z[0] * z[1] * z[2]
                                            - zb[0] * zb[1] * zb[2]))
        ok = ok and display == GaussRational(xi.i_det(), 0)
    _record(checks, "aw.idet-two-routes", ok,
            "v1 v2 v3 - sum v_j |z_j|^2 - 2 Im(z1 z2 z3) = i det(xi)",
            "as computed", f"{n_random} random exact elements")

    ok, actual = _aw_decompose_roundtrip(seed, n_random)
    _record(checks, "aw.decompose-roundtrip", ok,
            "compose(decompose(xi)) = xi; A(xi) has block coordinates "
            "(s, -(5/3)y, (sqrt(10)/6)x)", actual,
            f"{n_random} random elements; A(xi) is read on the orthogonal "
            "block basis (phitilde, e_a ^ Omega, C(e_i))")

    rng = check_rng(seed, "aw.value-two-routes")
    ok = True
    tables = awmod.block_tables()
    for _ in range(10):
        xi = _random_su3(rng, 3)
        value = awmod.first_principles_value(xi)
        ok = ok and value == tables.fp_value(*awmod.decompose(xi))
    _record(checks, "aw.value-two-routes", ok,
            "native Q(sqrt(10)) value of P equals its assembly from the "
            "block tables", "as computed",
            "10 random elements; the native call also cross-checks the "
            "even/odd split in sqrt(10)")

    rng = check_rng(seed, "aw.tensor-displays")
    rows = awmod.verify_tensor_displays(rng, max(50, n_random // 2))
    for row in rows:
        cid = "aw.tensor-display." + row["identity"].replace(" ", "")
        if "corrected_matches" in row:
            _record(checks, cid, row["matches"], "display holds as stated",
                    "fails at basis points; corrected form "
                    + ("verified" if row["corrected_matches"] else "also fails"),
                    "the tabulated closed form; see the corrected-form check")
            _record(checks, cid + ".corrected", row["corrected_matches"],
                    "corrected closed form holds",
                    "holds" if row["corrected_matches"] else "fails",
                    "replacement closed form certified on the same sweep")
        else:
            _record(checks, cid, row["matches"], "identity holds",
                    "holds" if row["matches"] else "fails",
                    "display verified on the lattice and random points")

    rng = check_rng(seed, "aw.block-products")
    rows = awmod.verify_block_products(rng, max(50, n_random // 2))
    for row in rows:
        cid = "aw.block-product." + row["product"].replace(" ", "")
        if "corrected_matches" in row:
            _record(checks, cid, row["matches"], "display value",
                    "differs; corrected value "
                    + ("verified" if row["corrected_matches"] else "fails"),
                    "tabulated scalar product; see the corrected-value check")
            _record(checks, cid + ".corrected", row["corrected_matches"],
                    "corrected value holds",
                    "holds" if row["corrected_matches"] else "fails",
                    "value forced by full symmetry of the trilinear form")
        else:
            _record(checks, cid, row["matches"], "display value",
                    "matches" if row["matches"] else "differs",
                    "tabulated scalar product over lattice and random points")

    fitted = awmod.fit_block_cubic()
    _record(checks, "aw.generic-sum-display",
            fitted == awmod.INTERMEDIATE_DISPLAY,
            "-210 s^3 + s(39|x|^2 + 6|y|^2) - 8R",
            "%s s^3 + %s s|x|^2 + %s s|y|^2 + %s R" % tuple(fitted),
            "the tabulated sum of the six weighted products; the fitted "
            "coefficients are certified exactly on the cubic lattice")

    cfit = awmod.first_principles_fit()
    rep = pairmod.pairing_report()
    _record(checks, "aw.closed-display", cfit == awmod.CLOSED_DISPLAY,
            "210 s^3 + (65/6) s|x|^2 + (50/3) s|y|^2 + (100/27) R",
            "%s s^3 + %s s|x|^2 + %s s|y|^2 + %s R" % tuple(cfit),
            "the final tabulated P; sign resolution: " + rep["sign_resolution"])

    fp = rep["first_principles_pairing"]
    closed = rep["closed_form_pairing"]
    flip = rep["sign_flip_only_assembly"]
    _record(checks, "aw.pairing-vs-displays", fp in (closed, Fraction(flip)),
            f"first-principles pairing equals {closed} or {flip}",
            str(fp),
            "neither documented display assembly reproduces the exact "
            "pairing; the corrected coefficient list does")

    ok, actual = _aw_revert_map()
    _record(checks, "aw.revert-map", ok,
            "block fit pushed through y -> -(5/3)y, x -> (sqrt(10)/6)x "
            "equals the direct fit of P", actual,
            "model coefficients scale by 1, 5/18, 25/9, -25/54; the "
            "direct fit runs P's table assembly over the cubic lattice")
    return _report("aw", seed, checks)


# -- pairing ----------------------------------------------------------------

MC_ELEMENTS = (
    ((1, 1, -2), (0, 0, 0, 0, 0, 0)),
    ((1, -2, 1), (1, 0, 0, 1, 0, 1)),
    ((2, -1, -1), (1, 1, -1, 0, 1, 1)),
)


def suite_pairing(seed: int, n_random: int = DEFAULT_RANDOM,
                  samples: int = DEFAULT_SAMPLES) -> dict:
    from . import aw as awmod
    from . import pairing as pairmod
    checks: list = []

    derived = pairmod.derive_gram_from_killing()
    ok = all(pairmod.gram_entry(a, b) == derived.get((a, b), Fraction(0))
             for a in pairmod.LETTERS for b in pairmod.LETTERS)
    _record(checks, "pairing.gram-from-killing", ok,
            "<v_a,v_a> = 4/3, <v_a,v_b> = -2/3, <z_j,zb_k> = 2 d_jk",
            "as computed",
            "letter Gram induced by b(xi,xi) = -(1/2) tr(xi^2)")

    vblock = Matrix.from_rows([[pairmod.gram_entry(a, b)
                                for b in ("v1", "v2", "v3")]
                               for a in ("v1", "v2", "v3")])
    _record(checks, "pairing.gram-v-rank", rank(vblock) == 2,
            "rank 2", str(rank(vblock)),
            "the three v letters satisfy exactly one linear relation")

    ok = pairmod.permanent([[Fraction(1)]]) == 1 \
        and pairmod.permanent([[1, 2], [3, 4]]) == 10 \
        and pairmod.permanent([[Fraction(4, 3)] * 3] * 3) == Fraction(128, 9)
    _record(checks, "pairing.permanent-examples", ok,
            "perm[[1,2],[3,4]] = 10; perm of all-4/3 3x3 = 128/9",
            "as computed", "definition sum over permutations")

    rng = check_rng(seed, "pairing.sym-inner-symmetric")
    ok = True
    for _ in range(max(10, n_random // 5)):
        p = _random_poly(rng, 3)
        q = _random_poly(rng, 3)
        ok = ok and pairmod.sym_inner_poly(p, q) == pairmod.sym_inner_poly(q, p)
        pr = _random_poly(rng, 3, real=True)
        qr = _random_poly(rng, 3, real=True)
        ok = ok and pairmod.sym_inner_poly(pr, qr).im == 0
    _record(checks, "pairing.sym-inner-symmetric", ok,
            "<.,.> on cubics is symmetric; real on real polynomials",
            "as computed", "permanent-based extension over monomial pairs")

    idr = pairmod.idet_report()
    _record(checks, "pairing.idet-construction",
            idr["matches"] and idr["display_is_real"],
            "three-letter display equals i det of the matrix "
            "with v3 eliminated", "as computed",
            "reading of the cross term: " + idr["reading"])

    rep = pairmod.pairing_report()
    comp = rep["components"]
    _record(checks, "pairing.component-values",
            comp == pairmod.COMPONENT_PAIRINGS,
            "<s^3, idet> = -4/9; <s|x|^2, idet> = -8/3; "
            "<s|y|^2, idet> = 4; <R, idet> = 24",
            "; ".join(str(v) for v in comp.values()),
            "the four tabulated component pairings")

    closed = rep["closed_form_pairing"]
    _record(checks, "pairing.closed-assembly", closed == Fraction(100, 3),
            "100/3", str(closed),
            "210(-4/9) + (65/6)(-8/3) + (50/3)(4) + (100/27)(24) = 100/3")

    fp = rep["first_principles_pairing"]
    ok = fp != 0 and fp == rep["first_principles_assembly"]
    _record(checks, "pairing.first-principles-nonzero", ok,
            "nonzero; monomial-by-monomial equals the component assembly",
            str(fp),
            "the invariant pairing from the interpolated exact polynomial")

    poly = pairmod.first_principles_p_poly()
    purez = sorted(m for m in poly.terms
                   if all(l[0] == "z" for l in m))
    ok = purez == [("z1", "z2", "z3"), ("zb1", "zb2", "zb3")]
    _record(checks, "pairing.pure-z-support", ok,
            "z1 z2 z3 and zb1 zb2 zb3 only", str(purez),
            "the only invariant-relevant pure-z cubics")

    _record(checks, "pairing.p-poly-real", poly.is_real_on_su3(),
            "conjugation-symmetric coefficients", "as computed",
            "P takes real values on su(3)")

    idet_self = rep["idet_self"]
    _record(checks, "pairing.idet-self", idet_self > 0,
            "positive rational", str(idet_self),
            "<i det, i det>, the Monte-Carlo normalization")

    mc_reports = []
    ok_mc = True
    ok_det = True
    for k, (v, x) in enumerate(MC_ELEMENTS):
        xi = awmod.Su3Element(v, x)
        sub = pairmod.haar_average_check(
            xi, samples=samples, seed=derived_seed(seed, f"pairing.mc.{k}"))
        if k == 0:
            again = pairmod.haar_average_check(
                xi, samples=samples, seed=derived_seed(seed, "pairing.mc.0"))
            ok_det = again == sub
        gap = abs(sub["empirical"] - sub["predicted"])
        sub["sigma_gap"] = gap / sub["std_error"] if sub["std_error"] else 0.0
        ok_mc = ok_mc and gap <= 6 * sub["std_error"]
        mc_reports.append(sub)
    _record(checks, "pairing.montecarlo-agreement", ok_mc,
            "empirical Haar average within 6 standard errors of "
            "(<P, idet>/<idet, idet>) idet(xi)",
            "; ".join("%.4g sigma" % s["sigma_gap"] for s in mc_reports),
            f"{samples} samples for 3 fixed elements")
    _record(checks, "pairing.montecarlo-deterministic", ok_det,
            "bit-identical report under a fixed seed", "as computed",
            "per-batch derived streams are schedule-independent")

    lo = pairmod.haar_average_check(
        awmod.Su3Element(*MC_ELEMENTS[2]), samples=10 ** 4,
        seed=derived_seed(seed, "pairing.mc-scaling"))
    hi = pairmod.haar_average_check(
        awmod.Su3Element(*MC_ELEMENTS[2]), samples=16 * 10 ** 4,
        seed=derived_seed(seed, "pairing.mc-scaling"))
    ratio = lo["std_error"] / hi["std_error"]
    ok = 2.0 <= ratio <= 8.0
    _record(checks, "pairing.montecarlo-scaling", ok,
            "standard error shrinks like samples^(-1/2): ratio near 4",
            "%.3f" % ratio,
            "fluctuation scaling between 10^4 and 16 x 10^4 samples")

    extra = {
        "pairing": str(closed),
        "first_principles_pairing": str(fp),
        "components": {k: str(v) for k, v in rep["components"].items()},
        "sign_resolution": rep["sign_resolution"],
        "montecarlo": [
            {k: (v if not isinstance(v, float) else round(v, 12))
             for k, v in sub.items()} for sub in mc_reports
        ],
    }
    return _report("pairing", seed, checks, extra)


def _random_poly(rng: random.Random, degree: int,
                 real: bool = False) -> pairmod.MultiPoly:
    from . import pairing as pairmod
    poly = pairmod.MultiPoly.zero(degree)
    for _ in range(4):
        mono = tuple(sorted(rng.choice(pairmod.LETTERS)
                            for _ in range(degree)))
        re = Fraction(rng.randint(-3, 3))
        im = Fraction(0) if real else Fraction(rng.randint(-3, 3))
        poly = poly + pairmod.MultiPoly(degree, {mono: GaussRational(re, im)})
    if real:
        half = pairmod.MultiPoly(
            degree, {m: c * GaussRational(Fraction(1, 2), 0)
                     for m, c in poly.terms.items()})
        poly = half + half.conjugate()
    return poly


SUITE_RUNNERS = {
    "exterior": suite_exterior,
    "g2": suite_g2,
    "cubic": suite_cubic,
    "aw": suite_aw,
    "pairing": suite_pairing,
}


def _run_suite(name: str, seed: int, n_random: int, samples: int) -> dict:
    """One suite's report; an exception escaping the runner becomes one
    failed check <suite>.exception, so a report is still written."""
    try:
        return SUITE_RUNNERS[name](seed, n_random=n_random, samples=samples)
    except Exception as exc:
        checks: list = []
        _record(checks, f"{name}.exception", False, "no exception",
                f"{type(exc).__name__}: {exc}",
                f"raised by suite {name} at seed {seed} with "
                f"--random {n_random}; rerun it to reproduce")
        return _report(name, seed, checks)


def run_suites(names, seed: int, n_random: int = DEFAULT_RANDOM,
               samples: int = DEFAULT_SAMPLES) -> dict:
    """Run the named suites in canonical order and combine the reports."""
    reports = [_run_suite(n, seed, n_random, samples)
               for n in SUITE_NAMES if n in names]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
