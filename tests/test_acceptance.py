"""The acceptance gate: one test per criterion, each printing a single
pass/fail line and enforcing its stated tolerance and time budget.

Two criteria (8 and 9) compare exact computations against tabulated
closed forms, some of which do not hold as stated.  They assert the
documented outcome: exactly the listed displays fail, each failing
display's corrected form certifies, and the exact pairing is the
corrected 760/3 rather than either displayed assembly.  The corrected
forms and the evidence for them are laid out in notes/decisions.md; a
new failure, or a listed display that starts to hold, fails the test.
"""

import random
import time
from fractions import Fraction

import pytest

from g2forge import aw, cubic, exterior as ext, pairing, suites
from g2forge.exterior import blade, contract, hodge, inner, norm_sq, \
    vector, vector_form, vol_coefficient, wedge
from g2forge.g2 import random_traceless, star_action
from g2forge.linalg import Matrix, SymTensor, rank

import reference

LEDGER = "see notes/decisions.md"


def announce(capsys, num: int, ok: bool, detail: str, elapsed: float):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {num:2d}] {status} ({elapsed:.2f} s): {detail}")


def test_criterion_01_hodge_frame(g2frame, capsys):
    started = time.monotonic()
    fr = g2frame
    ok = hodge(fr.phi) == fr.psi
    ok = ok and norm_sq(fr.phi) == 7 and norm_sq(fr.psi) == 7
    for m in range(128):
        k = bin(m).count("1")
        b = ext.Form(k, {m: Fraction(1)})
        ok = ok and hodge(hodge(b)) == b
    elapsed = time.monotonic() - started
    announce(capsys, 1, ok and elapsed < 1.0,
             "*phi = psi, <phi,phi> = <psi,psi> = 7, ** = id on 128 blades",
             elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_metric_recovery(g2frame, capsys):
    started = time.monotonic()
    g = g2frame.metric_from_structure()
    ok = all(g.at(i, j) == (1 if i == j else 0)
             for i in range(7) for j in range(7))
    elapsed = time.monotonic() - started
    announce(capsys, 2, ok and elapsed < 1.0,
             "(v -| phi) ^ (w -| phi) ^ phi = -6 g(v,w) vol on all 49 pairs",
             elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_03_hat_map(g2frame, capsys):
    started = time.monotonic()
    fr = g2frame
    count = 0
    ok = True
    for m in range(128):
        if bin(m).count("1") != 4:
            continue
        b = ext.Form(4, {m: Fraction(1)})
        h = fr.hat(b)
        for j in range(7):
            count += 1
            ok = ok and (wedge(h, fr.kappa[j])
                         + wedge(fr.phi, contract(vector(j + 1), b))).is_zero()
    # the typewise formula equals the unique solution of the defining
    # equation: solve the 49 x 35 system for three sample 4-forms
    for probe in (fr.psi, wedge(vector(1), fr.phi),
                  fr.iso_i_psi(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))):
        rhs = [-wedge(fr.phi, contract(vector(j + 1), probe))
               for j in range(7)]
        ok = ok and fr.solve_three_form(rhs) == fr.hat(probe)
    elapsed = time.monotonic() - started
    announce(capsys, 3, ok and count == 245 and elapsed < 1.0,
             "hat defining identity, 245 cases; typewise formula is the "
             "unique solution", elapsed)
    assert ok and count == 245
    assert elapsed < 1.0


def iso_identities_hold(fr, tensors) -> bool:
    """*(S * psi) = -(S * phi), S * psi by the derived action and so
    independent of the table behind i, and |i(S)|^2 = 2|S|^2."""
    return all(hodge(star_action(S.to_matrix(), fr.psi)) == -fr.iso_i(S)
               and norm_sq(fr.iso_i(S)) == 2 * reference.sym_inner(S, S)
               for S in tensors)


def test_criterion_04_iso_identities(g2frame, capsys):
    started = time.monotonic()
    fr = g2frame
    basis = []
    for i in range(7):
        for j in range(i + 1, 7):
            basis.append(SymTensor.sym_outer(
                ext.coords_of(vector(i + 1)), ext.coords_of(vector(j + 1))))
    for i in range(6):
        d = [0] * 7
        d[i], d[i + 1] = 1, -1
        basis.append(SymTensor.diag(d))
    rng = random.Random(20260814)
    tensors = basis + [random_traceless(rng) for _ in range(100)]
    ok = len(basis) == 27 and iso_identities_hold(fr, tensors)
    for _ in range(100):
        S = random_traceless(rng)
        v = vector_form([Fraction(rng.randint(-4, 4)) for _ in range(7)])
        w = vector_form([Fraction(rng.randint(-4, 4)) for _ in range(7)])
        Sv = vector_form(S.apply(ext.coords_of(v)))
        lhs = vol_coefficient(
            wedge(wedge(fr.iso_i(S), contract(v, fr.psi)), w))
        ok = ok and lhs == 2 * inner(Sv, w)
    elapsed = time.monotonic() - started
    announce(capsys, 4, ok and elapsed < 5.0,
             "*(S * psi) = -(S * phi), |i(S)|^2 = 2|S|^2 on 27-basis + 100 "
             "random; i(S) ^ (v -| psi) ^ w = 2 g(Sv,w) vol on 100 triples",
             elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_05_pairing_rank(g2frame, capsys):
    started = time.monotonic()
    r = rank(g2frame.pairing_matrix())
    elapsed = time.monotonic() - started
    announce(capsys, 5, r == 35 and elapsed < 1.0,
             f"rank of the 49 x 35 wedge matrix = {r}", elapsed)
    assert r == 35
    assert elapsed < 1.0


def test_criterion_06_cocycle(g2frame, capsys):
    started = time.monotonic()
    fr = g2frame
    rng = random.Random(1123)
    ok = rank(fr.pairing_matrix()) == 35  # kernel 0: solutions are unique
    for _ in range(50):
        a1 = fr.iso_i_psi(random_traceless(rng))
        a2 = fr.iso_i_psi(random_traceless(rng))
        g12 = cubic.b2(a1, a2, fr)          # existence: the solve succeeds
        ok = ok and g12 == cubic.b2(a2, a1, fr)
    for _ in range(50):
        beta = fr.iso_i(random_traceless(rng))
        a = hodge(beta)
        q = cubic.q2(a, fr)                 # closed form vs solve, internal
        _, p7, _ = fr.project3(q)
        ok = ok and p7.is_zero()            # no 7-part
        # both Q displays and P(beta) = Q(*beta), cross-checked inside
        ok = ok and cubic.p_value(beta, fr) == cubic.q_value(a, fr)
    elapsed = time.monotonic() - started
    announce(capsys, 6, ok and elapsed < 30.0,
             "b2 exists/unique/symmetric on 50 pairs; closed Q2 agrees; "
             "no 7-part; both Q displays; P = Q on duals, 50 random",
             elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_07_trilinear_symmetry(g2frame, capsys):
    started = time.monotonic()
    rng = random.Random(515)
    ok = True
    import itertools
    for _ in range(50):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        base = cubic.trilinear_direct(S1, S2, S3)
        for perm in itertools.permutations((S1, S2, S3)):
            ok = ok and cubic.trilinear_direct(*perm) == base
    for _ in range(10):
        S1, S2, S3 = (random_traceless(rng, 3) for _ in range(3))
        direct = cubic.trilinear_direct(S1, S2, S3)
        ok = ok and cubic.trilinear(S1, S2, S3) == 2 * direct
        ok = ok and cubic.trilinear_star_route(S1, S2, S3) == 2 * direct
    elapsed = time.monotonic() - started
    announce(capsys, 7, ok and elapsed < 10.0,
             "S3-symmetry of the trilinear form on 50 random triples "
             "(all 6 permutations) plus the cocycle/derived-action routes",
             elapsed)
    assert ok
    assert elapsed < 10.0


# the tabulated displays that fail as printed; each has a corrected
# closed form that certifies on the same sweep
FAILING_TENSOR_DISPLAYS = {
    "p(phitilde, C(x)) = -4 I_a x . e_a",
    "p(y^Omega, C(x)) = 6 y . Jx",
    "i^{-1}(C(x)) = -(1/2) e_a . I_a x",
}
FAILING_PRODUCTS = {"p(phitilde, C(x))", "p(y^Omega, C(x))"}


def test_criterion_08_tabulated_formulas(awframe, capsys):
    started = time.monotonic()
    tensor_rows = aw.verify_tensor_displays()
    product_rows = aw.verify_block_products()
    bad_tensors = {r["identity"] for r in tensor_rows if not r["matches"]}
    bad_products = {r["product"] for r in product_rows if not r["matches"]}
    failing = [r for r in tensor_rows + product_rows if not r["matches"]]
    corrected_ok = all(r.get("corrected_matches", False) for r in failing)
    holding = len(tensor_rows) + len(product_rows) - len(failing)
    ok = (bad_tensors == FAILING_TENSOR_DISPLAYS
          and bad_products == FAILING_PRODUCTS
          and len(tensor_rows) == 8 and len(product_rows) == 7)
    elapsed = time.monotonic() - started
    announce(capsys, 8, ok and corrected_ok and elapsed < 10.0,
             f"{holding} tabulated block tensors/products hold as displayed; "
             f"failing as documented, corrected forms certified: "
             f"{sorted(bad_tensors) + sorted(bad_products)}", elapsed)
    assert elapsed < 10.0
    assert len(tensor_rows) == 8 and len(product_rows) == 7, (
        "expected 8 tensor displays and 6 products plus their weighted sum")
    assert bad_tensors == FAILING_TENSOR_DISPLAYS, (
        f"failing tensor displays {sorted(bad_tensors)} differ from the "
        f"documented {sorted(FAILING_TENSOR_DISPLAYS)}; {LEDGER}")
    assert bad_products == FAILING_PRODUCTS, (
        f"failing block products {sorted(bad_products)} differ from the "
        f"documented {sorted(FAILING_PRODUCTS)}; {LEDGER}")
    assert corrected_ok, (
        "every failing display's corrected closed form must certify; "
        f"{LEDGER}")


def test_criterion_09_invariant_pairing(awframe, capsys):
    started = time.monotonic()
    report = pairing.pairing_report()
    closed = report["closed_form_pairing"]
    fp = report["first_principles_pairing"]
    flip = report["sign_flip_only_assembly"]
    nonzero = fp != 0
    fp_ok = fp == report["first_principles_assembly"] == Fraction(760, 3)
    closed_ok = closed == report["closed_form_assembly"] == Fraction(100, 3)
    flip_ok = flip == 220 and fp not in (closed, flip)
    vindicated = report["sign_resolution"]
    components_ok = (report["components"] == {
        "s3": Fraction(-4, 9), "sx2": Fraction(-8, 3), "sy2": 4, "R": 24}
        and report["idet_self"] == Fraction(320, 9))
    elapsed = time.monotonic() - started
    announce(capsys, 9,
             nonzero and fp_ok and closed_ok and flip_ok
             and vindicated == "intermediate-display" and components_ok
             and elapsed < 10.0,
             f"pairing nonzero ({fp}); display assembly {closed}; "
             f"s^3 sign vindicated: {vindicated}; "
             f"sign-flip-only assembly {flip}", elapsed)
    assert nonzero, "the invariant pairing must be nonzero"
    assert closed_ok, "assembly of the final display must give 100/3"
    assert elapsed < 10.0
    assert fp_ok, (
        f"the first-principles pairing is {fp} (assembly "
        f"{report['first_principles_assembly']}); the corrected polynomial "
        f"-210 s^3 + (55/2) s|x|^2 + (50/3) s|y|^2 + (125/18) R pairs to "
        f"760/3; {LEDGER}")
    assert flip_ok, (
        f"the sign-flip-only assembly is {flip}, expected 220, and the "
        f"first-principles pairing must differ from both displayed "
        f"assemblies; {LEDGER}")
    assert vindicated == "intermediate-display", (
        "the exact s^3 coefficient carries the intermediate display's sign")
    assert components_ok, (
        f"component pairings {report['components']} and <i det, i det> = "
        f"{report['idet_self']} must be -4/9, -8/3, 4, 24 and 320/9")


MC_SEED = 1


def test_criterion_10_montecarlo(awframe, capsys):
    started = time.monotonic()
    elements = [aw.Su3Element(v, x) for v, x in suites.MC_ELEMENTS]
    ok = True
    errors = []
    # one seed per element, derived as the pairing suite derives them, so
    # the three elements are conjugated by independent Haar samples
    seeds = [suites.derived_seed(MC_SEED, f"pairing.mc.{k}")
             for k in range(len(elements))]
    for xi, seed in zip(elements, seeds):
        rep = pairing.haar_average_check(xi, samples=10 ** 6, seed=seed)
        errors.append(rep["relative_error"])
        ok = ok and rep["relative_error"] < 0.01
    again = pairing.haar_average_check(elements[0], samples=10 ** 6,
                                       seed=seeds[0])
    first = pairing.haar_average_check(elements[0], samples=10 ** 6,
                                       seed=seeds[0])
    ok = ok and again == first
    elapsed = time.monotonic() - started
    announce(capsys, 10, ok and elapsed < 60.0,
             "Haar average of P(g xi g^{-1}) vs projection prediction, "
             "10^6 samples, 3 elements; rel. errors "
             + ", ".join("%.2e" % e for e in errors), elapsed)
    assert ok
    assert elapsed < 60.0
