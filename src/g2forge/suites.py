"""Named verification suites over the whole package.

Each suite runs a list of checks with stable ids and returns a report
dict: {"suite", "seed", "passed", "checks"} where every check carries
(id, status, expected, actual, anchor).  The anchor is the identity or
construction the check certifies, stated mathematically.

Randomized checks draw from per-check streams derived from the run
seed and the check id, so reports are byte-identical under a fixed
seed no matter how checks are scheduled.  Wall time is never part of
a report; runners print it to the diagnostic stream instead.

Every check is one block, _SuiteRun.check, that states its id,
expected value and anchor once and records itself.  Every statement
that can raise, frame builds included, runs inside some check.  An
exception raised in a check becomes that check's failed record, naming
the class, the message and the seed; the other checks still run, so a
broken construction fails exactly the checks that reach it and the run
still writes a report.  An interrupt is not caught.

A suite passes iff all its checks pass.  The reproduction suite (aw)
contains checks that compare exact results against tabulated closed
forms that do not hold as stated; those fail by design and sit next to
passing checks certifying the corrected forms.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

from . import DEFAULT_RANDOM, DEFAULT_SAMPLES, SUITE_NAMES
from . import cubic as cubicmod
from . import exterior as ext
from .exterior import blade, contract, coords_of, hodge, inner, norm_sq, \
    vector, vector_form, vol_coefficient, wedge
from .g2 import random_traceless, standard_frame, star_action
from .linalg import Matrix, SymTensor, rank, sym_inner
from .scalars import GaussRational, clear_denominators


def derived_seed(seed: int, check_id: str) -> int:
    """A stable integer sub-seed for one named check."""
    digest = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_rng(seed: int, check_id: str) -> random.Random:
    return random.Random(derived_seed(seed, check_id))


class _SuiteRun:
    """The checks of one suite run, each recorded by its own block."""

    def __init__(self, name: str, seed: int, n_random: int):
        self.name, self.seed, self.n_random = name, seed, n_random
        self.checks: list = []

    @contextlib.contextmanager
    def check(self, cid: str, expected: str, anchor: str,
              samples: int | None = None):
        """One check.  The block sets c.ok and, where it has a value to
        show, c.actual; it may restate c.expected or c.anchor from what
        it computed, and it draws from c.rng, the stream of cid.  An
        Exception raised in the block fails the check with the class,
        the message, the seed and --random, and --samples for a
        Monte-Carlo check, which passes its sample count.  A block that
        runs other checks inside it records only such an exception of
        its own."""
        c = SimpleNamespace(ok=True, expected=expected, actual="as computed",
                            anchor=anchor, rng=check_rng(self.seed, cid))
        before = len(self.checks)
        try:
            yield c
        except Exception as exc:
            c.ok, c.actual = False, f"{type(exc).__name__}: {exc}"
            flags = f"--random {self.n_random}"
            if samples is not None:
                flags += f" --samples {samples}"
            c.anchor += (f"; raised at seed {self.seed} with {flags}, "
                         "rerun it to reproduce")
        else:
            if len(self.checks) > before:
                return
        self.checks.append({"id": cid, "status": "pass" if c.ok else "fail",
                            "expected": c.expected, "actual": str(c.actual),
                            "anchor": c.anchor})

    def report(self, extra: dict | None = None) -> dict:
        return {"suite": self.name, "seed": self.seed,
                "passed": all(c["status"] == "pass" for c in self.checks),
                "checks": sorted(self.checks, key=lambda c: c["id"]),
                **(extra or {})}


def _random_form(rng: random.Random, grade: int, bound: int) -> ext.Form:
    # one draw per blade in mask order; Form drops the zero draws
    return ext.Form(grade, {m: rng.randint(-bound, bound)
                            for m in range(128) if m.bit_count() == grade})


def _int_traceless(rng: random.Random, bound: int = 6) -> SymTensor:
    """random_traceless(rng, bound) with its int draws kept as ints: the
    same values from the same draws, so the g2 and cubic checks run
    their tensors in int arithmetic."""
    upper = random_traceless(rng, bound).upper
    return SymTensor.from_upper([[x.numerator for x in row] for row in upper])


@functools.cache
def _traceless_basis() -> tuple[SymTensor, ...]:
    """The 27 standard traceless symmetric tensors: 21 off-diagonal
    symmetrized pairs and 6 consecutive diagonal differences, built once
    per process for the two g2 checks that read them."""
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
    return tuple(basis)


# -- exterior ---------------------------------------------------------------

def suite_exterior(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    run = _SuiteRun("exterior", seed, n_random)
    with run.check("exterior.hodge-phi", "*phi = psi and *psi = phi",
                   "the 4-form dual to the structure 3-form") as c:
        fr = standard_frame()
        c.ok = hodge(fr.phi) == fr.psi and hodge(fr.psi) == fr.phi

    with run.check("exterior.structure-norms",
                   "<phi,phi> = <psi,psi> = 7, phi ^ psi = 7 vol",
                   "normalization of the structure forms") as c:
        fr = standard_frame()
        c.ok = norm_sq(fr.phi) == 7 and norm_sq(fr.psi) == 7 \
            and wedge(fr.phi, fr.psi) == 7 * blade(range(1, 8))

    with run.check("exterior.hodge-involution",
                   "** = id on all 128 basis blades",
                   "in 7 dimensions * has sign (-1)^{k(7-k)} = +1 on every grade") as c:
        for m in range(128):
            b = ext.Form(m.bit_count(), {m: 1})
            c.ok = c.ok and hodge(hodge(b)) == b

    with run.check("exterior.metric-recovery", "g = id from all 49 pairs",
                   "(v -| phi) ^ (w -| phi) ^ phi = -6 g(v, w) vol") as c:
        metric = standard_frame().metric_from_structure()
        c.ok = all(metric.at(i, j) == (1 if i == j else 0)
                   for i in range(7) for j in range(7))

    with run.check("exterior.wedge-algebra",
                   "associative, graded-commutative, bilinear",
                   f"{n_random} random triples of forms") as c:
        for _ in range(n_random):
            ka, kb, kc = c.rng.randint(0, 2), c.rng.randint(0, 2), c.rng.randint(0, 3)
            a, b, d = (_random_form(c.rng, k, 3) for k in (ka, kb, kc))
            c.ok = c.ok and wedge(wedge(a, b), d) == wedge(a, wedge(b, d))
            c.ok = c.ok and wedge(a, b) == (-1) ** (ka * kb) * wedge(b, a)
            c.ok = c.ok and wedge(a + a, b) == 2 * wedge(a, b)

    with run.check("exterior.contraction-antiderivation",
                   "v -| (a ^ b) = (v -| a) ^ b + (-1)^|a| a ^ (v -| b)",
                   f"{n_random} random instances") as c:
        for _ in range(n_random):
            ka, kb = c.rng.randint(1, 3), c.rng.randint(1, 3)
            a, b = _random_form(c.rng, ka, 3), _random_form(c.rng, kb, 3)
            v = vector_form([c.rng.randint(-3, 3) for _ in range(7)])
            lhs = contract(v, wedge(a, b))
            rhs = wedge(contract(v, a), b) + (-1) ** ka * wedge(a, contract(v, b))
            c.ok = c.ok and lhs == rhs

    with run.check("exterior.json-roundtrip",
                   "form -> JSON -> form is the identity",
                   "serialization codec") as c:
        for _ in range(20):
            a = _random_form(c.rng, c.rng.randint(0, 7), 4)
            c.ok = c.ok and ext.form_from_json(ext.form_to_json(a)) == a
    return run.report()


# -- g2 ---------------------------------------------------------------------

def suite_g2(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    run = _SuiteRun("g2", seed, n_random)

    def part_ranks(split, grade):
        # the rank of each part of the split, applied to the basis blades
        images = [split(ext.Form(grade, {m: 1}))
                  for m in ext.BLADES_BY_GRADE[grade]]
        return [rank(Matrix.from_rows([ext.form_to_coords(p[k])
                                       for p in images]))
                for k in range(len(images[0]))]

    with run.check("g2.type-dimensions",
                   "2-forms split 7+14; 3- and 4-forms split 1+7+27",
                   "irreducible pieces of the form spaces under the structure group") as c:
        fr = standard_frame()
        dims = part_ranks(fr.project2, 2)
        dims3 = part_ranks(fr.project3, 3)
        dims4 = part_ranks(fr.project4, 4)
        c.ok = dims == [7, 14] and dims3 == [1, 7, 27] and dims4 == [1, 7, 27]
        c.actual = f"{dims} {dims3} {dims4}"

    with run.check("g2.projector-algebra",
                   "projections sum to the identity and are idempotent",
                   f"{n_random // 2} random 3- and 4-forms") as c:
        fr = standard_frame()
        for _ in range(n_random // 2):
            a3 = _random_form(c.rng, 3, 3)
            parts = fr.project3(a3)
            c.ok = c.ok and sum(parts, ext.Form.zero(3)) == a3
            for p in parts:
                c.ok = c.ok and fr.project3(p) in [
                    tuple(p if k == i else ext.Form.zero(3) for k in range(3))
                    for i in range(3)]
            a4 = _random_form(c.rng, 4, 3)
            c.ok = c.ok and sum(fr.project4(a4), ext.Form.zero(4)) == a4

    with run.check("g2.hat-defining-identity",
                   "hat(a) ^ (v -| psi) + phi ^ (v -| a) = 0, all 245 cases",
                   "the hat operator on 4-forms, checked on every basis blade and vector") as c:
        fr = standard_frame()
        count = 0
        for m in ext.BLADES_BY_GRADE[4]:
            b = ext.Form(4, {m: 1})
            h = fr.hat(b)
            for j in range(1, 8):
                v = vector(j)
                count += 1
                c.ok = c.ok and (wedge(h, contract(v, fr.psi))
                                 + wedge(fr.phi, contract(v, b))).is_zero()
        c.actual = f"{count} identities checked"

    with run.check("g2.hat-of-psi", "hat(psi) = -phi",
                   "hat acts as -* on the singlet type") as c:
        fr = standard_frame()
        c.ok = fr.hat(fr.psi) == -fr.phi

    with run.check("g2.iso-identities",
                   "*(S * psi) = -(S * phi) and |i(S)|^2 = 2|S|^2",
                   f"27 basis tensors plus {n_random} random traceless S") as c:
        fr = standard_frame()

        def iso_identities(S):
            # S * psi by the derived action, independent of the table behind i
            b = fr.iso_i(S)
            return hodge(star_action(S.to_matrix(), fr.psi)) == -b \
                and norm_sq(b) == 2 * sym_inner(S, S)

        c.ok = all(iso_identities(S) for S in _traceless_basis())
        for _ in range(n_random):
            c.ok = c.ok and iso_identities(_int_traceless(c.rng))

    with run.check("g2.iso-inverse-roundtrip",
                   "i^{-1}(i(B)) = B for all 27 basis tensors",
                   "the inverse table read back on i(d B), d B the int "
                   "multiple of each basis tensor B") as c:
        fr = standard_frame()
        hits = 0
        for B in _traceless_basis():
            ints = iter(clear_denominators([x for row in B.upper
                                            for x in row])[0])
            T = SymTensor.from_upper([[next(ints) for _ in range(i, 7)]
                                      for i in range(7)])
            # iso_i_inv_upper gives 2 i^{-1}
            b = fr.iso_i(T)
            hits += fr.is_pure27(b) and fr.iso_i_inv_upper(b) == \
                [[2 * x for x in row] for row in T.upper]
        c.ok = hits == 27
        c.actual = f"{hits} of 27 round-trip"

    with run.check("g2.iso-inner-product",
                   "i(S) ^ (v -| psi) ^ w = 2 g(Sv, w) vol",
                   f"{n_random} random triples (S, v, w)") as c:
        fr = standard_frame()
        for _ in range(n_random):
            S = _int_traceless(c.rng)
            v = vector_form([c.rng.randint(-4, 4) for _ in range(7)])
            w = vector_form([c.rng.randint(-4, 4) for _ in range(7)])
            Sv = vector_form(S.apply(coords_of(v)))
            lhs = vol_coefficient(wedge(wedge(fr.iso_i(S), contract(v, fr.psi)), w))
            c.ok = c.ok and lhs == 2 * inner(Sv, w)

    with run.check("g2.pairing-rank", "rank 35",
                   "gamma |-> (gamma ^ (e_j -| psi))_j is injective on 3-forms") as c:
        c.actual = rank(standard_frame().pairing_matrix())
        c.ok = c.actual == 35

    with run.check("g2.vector-extraction", "extract(V ^ phi) = V",
                   f"{n_random} random vectors") as c:
        fr = standard_frame()
        for _ in range(n_random):
            v = vector_form([c.rng.randint(-4, 4) for _ in range(7)])
            c.ok = c.ok and fr.extract_v7(wedge(v, fr.phi)) == v
    return run.report()


# -- cubic ------------------------------------------------------------------

def suite_cubic(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    run = _SuiteRun("cubic", seed, n_random)
    n_pairs = max(10, n_random // 2)

    with run.check("cubic.b2-solve",
                   "b2 exists, is unique, symmetric, bilinear",
                   f"{n_pairs} random pairs; the 49 x 35 solve has full column rank") as c:
        fr = standard_frame()
        for _ in range(n_pairs):
            a1 = fr.iso_i_psi(_int_traceless(c.rng))
            a2 = fr.iso_i_psi(_int_traceless(c.rng))
            g12 = cubicmod.b2(a1, a2, fr)
            c.ok = c.ok and g12 == cubicmod.b2(a2, a1, fr)
            a3 = fr.iso_i_psi(_int_traceless(c.rng))
            c.ok = c.ok and cubicmod.b2(a1 + a3, a2, fr) == g12 + cubicmod.b2(a3, a2, fr)

    with run.check("cubic.q2-closed-form",
                   "Q2(a) = -i(q0(a,a)) + (2/7)|a|^2 phi agrees with the solve; "
                   "no 7-part",
                   f"{n_pairs} random 27-type 4-forms, exact agreement enforced") as c:
        fr = standard_frame()
        for _ in range(n_pairs):
            a = fr.iso_i_psi(_int_traceless(c.rng))
            c.ok = c.ok and fr.project3(cubicmod.q2(a, fr))[1].is_zero()

    with run.check("cubic.q-and-p-displays",
                   "Q(a) vol = Q2(a) ^ a, Q(a) = -2<q(a,a), i^{-1}(*a)>, "
                   "P(b) = 2<p(b,b), i^{-1}(b)> = Q(*b)",
                   f"{n_pairs} random instances; each call cross-checks both routes") as c:
        fr = standard_frame()
        for _ in range(n_pairs):
            b = fr.iso_i(_int_traceless(c.rng))
            c.ok = c.ok and cubicmod.p_value(b, fr) == cubicmod.q_value(hodge(b), fr)

    with run.check("cubic.trilinear-symmetry",
                   "T(S1,S2,S3) = <p(i(S1), i(S2)), S3> is S3-symmetric",
                   f"{n_pairs} random triples, all 6 permutations each") as c:
        for _ in range(n_pairs):
            S1, S2, S3 = (_int_traceless(c.rng, 3) for _ in range(3))
            base = cubicmod.trilinear_direct(S1, S2, S3)
            for perm in itertools.permutations((S1, S2, S3)):
                c.ok = c.ok and cubicmod.trilinear_direct(*perm) == base

    with run.check("cubic.trilinear-routes",
                   "cocycle route and derived-action route both equal "
                   "2 <p(i(S1), i(S2)), S3>",
                   "10 random triples across all three constructions") as c:
        for _ in range(10):
            S1, S2, S3 = (_int_traceless(c.rng, 3) for _ in range(3))
            direct = cubicmod.trilinear_direct(S1, S2, S3)
            c.ok = c.ok and cubicmod.trilinear(S1, S2, S3) == 2 * direct
            c.ok = c.ok and cubicmod.trilinear_star_route(S1, S2, S3) == 2 * direct
    return run.report()


# -- aw ---------------------------------------------------------------------
# aw and pairing are imported by the functions that use them, so a run of
# the exterior, g2 or cubic suite never compiles either module

def _random_su3(rng: random.Random, bound: int = 4):
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

# the records of the display sweeps, per id prefix: (expected, actual
# when it holds, actual when not, anchor) for a display that holds as
# stated, for one with a corrected form (the actual says whether the
# correction holds) and for that correction's ".corrected" twin
_SWEEP_TEXTS = {
    "aw.tensor-display.": (
        ("identity holds", "holds", "fails",
         "display verified on the lattice and random points"),
        ("display holds as stated",
         "fails at basis points; corrected form verified",
         "fails at basis points; corrected form also fails",
         "the tabulated closed form; see the corrected-form check"),
        ("corrected closed form holds", "holds", "fails",
         "replacement closed form certified on the same sweep")),
    "aw.block-product.": (
        ("display value", "matches", "differs",
         "tabulated scalar product over lattice and random points"),
        ("display value", "differs; corrected value verified",
         "differs; corrected value fails",
         "tabulated scalar product; see the corrected-value check"),
        ("corrected value holds", "holds", "fails",
         "value forced by full symmetry of the trilinear form")),
}


def suite_aw(seed: int, n_random: int = DEFAULT_RANDOM, samples=None) -> dict:
    from . import aw as awmod
    from . import pairing as pairmod
    run = _SuiteRun("aw", seed, n_random)

    with run.check("aw.quaternionic-relations",
                   "I1 I2 = -I3 and J commutes with each I_a",
                   "endomorphisms of the 4-block induced by the anti-self-dual "
                   "2-forms and the self-dual Omega") as c:
        fr = awmod.standard_aw_frame()
        I1, I2, I3 = fr.I
        c.ok = I1 * I2 == -I3 and all(fr.J * Ia == Ia * fr.J for Ia in fr.I)

    with run.check("aw.dual-constructions",
                   "x -| (4 vol4 - psi) equals the omega-expansion of C(x)",
                   "the two constructions compared on e4..e7 and 20 "
                   "random x in the 4-block") as c:
        xs = [vector(i) for i in range(4, 8)]
        xs += [vector_form([0, 0, 0] + [c.rng.randint(-4, 4) for _ in range(4)])
               for _ in range(20)]
        agree = sum(awmod.c_direct(x) == awmod.c_display(x) for x in xs)
        c.ok, c.actual = agree == len(xs), f"agree on {agree} of {len(xs)} vectors"

    with run.check("aw.idet-two-routes",
                   "v1 v2 v3 - sum v_j |z_j|^2 - 2 Im(z1 z2 z3) = i det(xi)",
                   f"{n_random} random exact elements") as c:
        display = pairmod.idet_display_poly()
        for _ in range(n_random):
            xi = _random_su3(c.rng)
            got = display.at(pairmod.letter_values(xi))
            if c.ok and got != xi.i_det():
                c.ok, c.actual = False, (f"display {got}, i det {xi.i_det()} "
                                         f"at {json.dumps(xi.to_json())}")

    with run.check("aw.decompose-roundtrip",
                   "compose(decompose(xi)) = xi; A(xi) has block coordinates "
                   "(s, -(5/3)y, (sqrt(10)/6)x)",
                   f"{n_random} random elements; A(xi) is read on the orthogonal "
                   "block basis (phitilde, e_a ^ Omega, C(e_i))") as c:
        basis = awmod.block_basis()
        norms = [norm_sq(b) for b in basis]
        good = 0
        for _ in range(n_random):
            xi = _random_su3(c.rng)
            s, y, x = awmod.decompose(xi)
            back = awmod.compose(s, y, x)
            # D A(xi) = U + sqrt(10) W: U carries D (s, -(5/3) y) and W
            # carries (D/6) x, since 1 and sqrt(10) are independent over Q
            u, w, d = awmod.comparison_form(xi)
            want_u = [d * s] + [Fraction(-5 * d, 3) * t
                                for t in coords_of(y)[:3]] + [0] * 4
            want_w = [0] * 4 + [Fraction(d, 6) * t for t in coords_of(x)[3:]]
            read = all(inner(u, b) == n * wu and inner(w, b) == n * ww
                       for b, n, wu, ww in zip(basis, norms, want_u, want_w))
            good += ((back.v, back.x) == (xi.v, xi.x) and read
                     and coords_of(y)[3:] == [0] * 4
                     and coords_of(x)[:3] == [0] * 3)
        c.ok, c.actual = good == n_random, f"{good} of {n_random} elements round-trip"

    with run.check("aw.value-two-routes",
                   "native Q(sqrt(10)) value of P equals its assembly from the "
                   "block tables",
                   "10 random elements; the native call also cross-checks the "
                   "even/odd split in sqrt(10)") as c:
        tables = awmod.block_tables()
        for _ in range(10):
            xi = _random_su3(c.rng, 3)
            value = awmod.first_principles_value(xi)
            c.ok = c.ok and value == tables.fp_value(*awmod.decompose(xi))

    # each sweep's rows become checks; a sweep that raises is one record
    for stream, verify, key, prefix in (
            ("aw.tensor-displays", awmod.verify_tensor_displays, "identity",
             "aw.tensor-display."),
            ("aw.block-products", awmod.verify_block_products, "product",
             "aw.block-product.")):
        with run.check(stream, "every display evaluates on the sweep",
                       "lattice and random points of the block coordinates") as sweep:
            holds, corrected, twin = _SWEEP_TEXTS[prefix]
            for row in verify(sweep.rng, max(50, n_random // 2)):
                cid = prefix + row[key].replace(" ", "")
                fixed = row.get("corrected_matches")
                if fixed is None:
                    records = [(cid, row["matches"], row["matches"], holds)]
                else:
                    records = [(cid, row["matches"], fixed, corrected),
                               (cid + ".corrected", fixed, fixed, twin)]
                # the actual shows `shown`: the row's own result, or for a
                # display with a correction whether the correction holds
                for rid, ok, shown, (expected, yes, no, anchor) in records:
                    with run.check(rid, expected, anchor) as c:
                        c.ok, c.actual = ok, yes if shown else no

    with run.check("aw.generic-sum-display",
                   "-210 s^3 + s(39|x|^2 + 6|y|^2) - 8R",
                   "the tabulated sum of the six weighted products; the fitted "
                   "coefficients are certified exactly on the cubic lattice") as c:
        fitted = awmod.fit_block_cubic()
        c.ok = fitted == awmod.INTERMEDIATE_DISPLAY
        c.actual = "%s s^3 + %s s|x|^2 + %s s|y|^2 + %s R" % tuple(fitted)

    with run.check("aw.closed-display",
                   "210 s^3 + (65/6) s|x|^2 + (50/3) s|y|^2 + (100/27) R",
                   "the final tabulated P") as c:
        cfit = awmod.first_principles_fit()
        c.anchor += "; sign resolution: " + awmod.sign_resolution(cfit)
        c.ok = cfit == awmod.CLOSED_DISPLAY
        c.actual = "%s s^3 + %s s|x|^2 + %s s|y|^2 + %s R" % tuple(cfit)

    with run.check("aw.pairing-vs-displays",
                   "first-principles pairing equals a display assembly",
                   "neither documented display assembly reproduces the exact "
                   "pairing; the corrected coefficient list does") as c:
        rep = pairmod.pairing_report()
        closed, flip = rep["closed_form_pairing"], rep["sign_flip_only_assembly"]
        c.expected = f"first-principles pairing equals {closed} or {flip}"
        c.actual = rep["first_principles_pairing"]
        c.ok = c.actual in (closed, flip)

    with run.check("aw.revert-map",
                   "block fit pushed through y -> -(5/3)y, x -> (sqrt(10)/6)x "
                   "equals the direct fit of P",
                   "model coefficients scale by 1, 5/18, 25/9, -25/54; the "
                   "direct fit runs P's table assembly over the cubic lattice") as c:
        pushed = awmod.revert_block_fit(awmod.fit_block_cubic())
        direct = awmod.direct_p_fit()
        c.ok = pushed == direct
        c.actual = ("pushed (%s, %s, %s, %s); direct (%s, %s, %s, %s)"
                    % (pushed + direct))
    return run.report()


# -- pairing ----------------------------------------------------------------

MC_ELEMENTS = (
    ((1, 1, -2), (0, 0, 0, 0, 0, 0)),
    ((1, -2, 1), (1, 0, 0, 1, 0, 1)),
    ((2, -1, -1), (1, 1, -1, 0, 1, 1)),
)


def _random_poly(rng: random.Random, degree: int, real: bool = False):
    from . import pairing as pairmod
    poly = pairmod.MultiPoly(degree)
    for _ in range(4):
        mono = tuple(sorted(rng.choice(pairmod.LETTERS)
                            for _ in range(degree)))
        re = rng.randint(-3, 3)
        im = 0 if real else rng.randint(-3, 3)
        poly = poly + pairmod.MultiPoly(degree, {mono: GaussRational(re, im)})
    if real:
        half = Fraction(1, 2) * poly
        poly = half + half.conjugate()
    return poly


def suite_pairing(seed: int, n_random: int = DEFAULT_RANDOM,
                  samples: int = DEFAULT_SAMPLES) -> dict:
    from . import aw as awmod
    from . import pairing as pairmod
    run = _SuiteRun("pairing", seed, n_random)
    # the report's pairing fields, each set by the check that computes
    # its input, so a field whose input raised is left out
    extra: dict = {}

    with run.check("pairing.gram-from-killing",
                   "<v_a,v_a> = 4/3, <v_a,v_b> = -2/3, <z_j,zb_k> = 2 d_jk",
                   "letter Gram induced by b(xi,xi) = -(1/2) tr(xi^2)") as c:
        derived = pairmod.derive_gram_from_killing()
        c.ok = all(pairmod.gram_entry(a, b) == derived.get((a, b), 0)
                   for a in pairmod.LETTERS for b in pairmod.LETTERS)

    with run.check("pairing.gram-v-rank", "rank 2",
                   "the three v letters satisfy exactly one linear relation") as c:
        c.actual = rank(Matrix.from_rows([[pairmod.gram_entry(a, b)
                                           for b in ("v1", "v2", "v3")]
                                          for a in ("v1", "v2", "v3")]))
        c.ok = c.actual == 2

    with run.check("pairing.permanent-examples",
                   "perm[[1,2],[3,4]] = 10; perm of all-4/3 3x3 = 128/9",
                   "definition sum over permutations") as c:
        c.ok = pairmod.permanent([[1]]) == 1 \
            and pairmod.permanent([[1, 2], [3, 4]]) == 10 \
            and pairmod.permanent([[Fraction(4, 3)] * 3] * 3) == Fraction(128, 9)

    with run.check("pairing.sym-inner-symmetric",
                   "<.,.> on cubics is symmetric; real on real polynomials",
                   "permanent-based extension over monomial pairs") as c:
        for _ in range(max(10, n_random // 5)):
            p = _random_poly(c.rng, 3)
            q = _random_poly(c.rng, 3)
            c.ok = c.ok and pairmod.sym_inner_poly(p, q) == pairmod.sym_inner_poly(q, p)
            pr = _random_poly(c.rng, 3, real=True)
            qr = _random_poly(c.rng, 3, real=True)
            c.ok = c.ok and pairmod.sym_inner_poly(pr, qr).im == 0

    with run.check("pairing.idet-construction",
                   "three-letter display equals i det of the matrix "
                   "with v3 eliminated", "reading of the cross term") as c:
        idr = pairmod.idet_report()
        c.ok = idr["matches"] and idr["display_is_real"]
        c.anchor += ": " + idr["reading"]
        if not c.ok:
            c.actual = idr.get("difference", "the display is not real")

    with run.check("pairing.component-values",
                   "<s^3, idet> = -4/9; <s|x|^2, idet> = -8/3; "
                   "<s|y|^2, idet> = 4; <R, idet> = 24",
                   "the four tabulated component pairings") as c:
        rep = pairmod.pairing_report()
        extra.update(pairing=str(rep["closed_form_pairing"]),
                     first_principles_pairing=str(rep["first_principles_pairing"]),
                     components={k: str(v) for k, v in rep["components"].items()},
                     sign_resolution=rep["sign_resolution"])
        c.ok = rep["components"] == pairmod.COMPONENT_PAIRINGS
        c.actual = "; ".join(str(v) for v in rep["components"].values())

    with run.check("pairing.closed-assembly", "100/3",
                   "210(-4/9) + (65/6)(-8/3) + (50/3)(4) + (100/27)(24) = 100/3") as c:
        c.actual = pairmod.pairing_report()["closed_form_pairing"]
        c.ok = c.actual == Fraction(100, 3)

    with run.check("pairing.first-principles-nonzero",
                   "nonzero; monomial-by-monomial equals the component assembly",
                   "the invariant pairing from the interpolated exact polynomial") as c:
        rep = pairmod.pairing_report()
        c.actual = rep["first_principles_pairing"]
        c.ok = c.actual != 0 and c.actual == rep["first_principles_assembly"]

    with run.check("pairing.pure-z-support", "z1 z2 z3 and zb1 zb2 zb3 only",
                   "the only invariant-relevant pure-z cubics") as c:
        c.actual = sorted(m for m in pairmod.first_principles_p_poly().terms
                          if all(l[0] == "z" for l in m))
        c.ok = c.actual == [("z1", "z2", "z3"), ("zb1", "zb2", "zb3")]

    with run.check("pairing.p-poly-real", "conjugation-symmetric coefficients",
                   "P takes real values on su(3)") as c:
        c.ok = pairmod.first_principles_p_poly().is_real_on_su3()

    with run.check("pairing.idet-self", "positive rational",
                   "<i det, i det>, the Monte-Carlo normalization") as c:
        c.actual = pairmod.pairing_report()["idet_self"]
        c.ok = c.actual > 0

    @functools.cache
    def haar(k):
        # the sampler's record of MC_ELEMENTS[k] on its own stream: the
        # agreement check adds the prediction, the determinism check reruns it
        return pairmod.haar_average(
            awmod.Su3Element(*MC_ELEMENTS[k]), samples=samples,
            seed=derived_seed(seed, f"pairing.mc.{k}"))

    with run.check("pairing.montecarlo-agreement",
                   "empirical Haar average within 6 standard errors of "
                   "(<P, idet>/<idet, idet>) idet(xi)",
                   f"{samples} samples for 3 fixed elements",
                   samples=samples) as c:
        mc_reports = []
        for k, element in enumerate(MC_ELEMENTS):
            sub = pairmod.with_prediction(awmod.Su3Element(*element), haar(k))
            gap = abs(sub["empirical"] - sub["predicted"])
            c.ok = c.ok and gap <= 6 * sub["std_error"]
            mc_reports.append(dict(sub, sigma_gap=gap / sub["std_error"]
                                   if sub["std_error"] else 0.0))
        c.actual = "; ".join("%.4g sigma" % s["sigma_gap"] for s in mc_reports)
        extra["montecarlo"] = [
            {k: (v if not isinstance(v, float) else round(v, 12))
             for k, v in sub.items()} for sub in mc_reports]

    with run.check("pairing.montecarlo-deterministic",
                   "bit-identical report under a fixed seed",
                   "per-batch derived streams are schedule-independent",
                   samples=samples) as c:
        # a second, uncached run on the same stream
        c.ok = haar.__wrapped__(0) == haar(0)

    with run.check("pairing.montecarlo-scaling",
                   "standard error shrinks like samples^(-1/2): ratio near 4",
                   "fluctuation scaling between 10^4 and 16 x 10^4 samples",
                   samples=samples) as c:
        lo, hi = (pairmod.haar_average(
            awmod.Su3Element(*MC_ELEMENTS[2]), samples=n,
            seed=derived_seed(seed, "pairing.mc-scaling"))
            for n in (10 ** 4, 16 * 10 ** 4))
        ratio = lo["std_error"] / hi["std_error"]
        c.ok, c.actual = 2.0 <= ratio <= 8.0, "%.3f" % ratio
    return run.report(extra)


SUITE_RUNNERS = {
    "exterior": suite_exterior,
    "g2": suite_g2,
    "cubic": suite_cubic,
    "aw": suite_aw,
    "pairing": suite_pairing,
}


def run_suites(names, seed: int, n_random: int = DEFAULT_RANDOM,
               samples: int = DEFAULT_SAMPLES) -> dict:
    """Run the named suites in canonical order and combine the reports."""
    reports = [SUITE_RUNNERS[n](seed, n_random=n_random, samples=samples)
               for n in SUITE_NAMES if n in names]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
