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
passing checks certifying the corrected forms.  The checks of the aw
and pairing suites live in su3_suites, imported when one of them runs.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from types import SimpleNamespace

from . import DEFAULT_RANDOM, DEFAULT_SAMPLES, SUITE_NAMES
from . import exterior as ext
from .exterior import blade, contract, coords_of, hodge, inner, norm_sq, \
    vector, vector_form, vol_coefficient, wedge
from .g2 import OUTSIDE_27, TypeDecompositionError, once, standard_frame, \
    star_action, traceless_draw
from .linalg import TRIANGLE, Matrix, SymTensor, rank, upper_inner
from .scalars import clear_denominators

# sha256 from the builtin SHA-2 module, as random takes its sha512: the
# hashlib import loads OpenSSL, a few ms of every suite process
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def derived_seed(seed: int, check_id: str) -> int:
    """A stable integer sub-seed for one named check."""
    digest = sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def check_rng(seed: int, check_id: str) -> random.Random:
    return random.Random(derived_seed(seed, check_id))


class _SuiteRun:
    """The checks of one suite run, each recorded by its own block, and
    with a timings dict each block's wall time in seconds under its id,
    never in the report."""

    def __init__(self, name: str, seed: int, n_random: int,
                 timings: dict | None = None):
        self.name, self.seed, self.n_random = name, seed, n_random
        self.checks: list = []
        self.timings = timings

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
        started = time.perf_counter()
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
        finally:
            if self.timings is not None:
                self.timings[cid] = time.perf_counter() - started
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
    """random_traceless(rng, bound) with its draws as ints: the same
    values from the same draws, so the g2 and cubic checks run their
    tensors in int arithmetic and make no Fraction to draw them."""
    return SymTensor.from_upper(traceless_draw(rng, bound))


@once
def _traceless_basis() -> tuple[SymTensor, ...]:
    """The 27 standard traceless symmetric tensors: 21 off-diagonal
    symmetrized pairs, in linalg.TRIANGLE's order, and 6 consecutive
    diagonal differences, built once per process for the two g2 checks
    that read them."""
    e = [coords_of(vector(k)) for k in range(1, 8)]
    basis = [SymTensor.sym_outer(e[i], e[j]) for i, j in TRIANGLE if i != j]
    for i in range(6):
        diag = [0] * 7
        diag[i], diag[i + 1] = 1, -1
        basis.append(SymTensor.diag(diag))
    return tuple(basis)


# -- exterior ---------------------------------------------------------------

def suite_exterior(seed: int, n_random: int = DEFAULT_RANDOM, samples=None,
                   timings: dict | None = None) -> dict:
    run = _SuiteRun("exterior", seed, n_random, timings)
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

def suite_g2(seed: int, n_random: int = DEFAULT_RANDOM, samples=None,
             timings: dict | None = None) -> dict:
    run = _SuiteRun("g2", seed, n_random, timings)

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
        # the seven e_j -| psi by contraction, not read off the frame's tables
        kappa = [contract(vector(j), fr.psi) for j in range(1, 8)]
        count = 0
        for m in ext.BLADES_BY_GRADE[4]:
            b = ext.Form(4, {m: 1})
            h = fr.hat(b)
            for j, k in enumerate(kappa, 1):
                count += 1
                c.ok = c.ok and (wedge(h, k)
                                 + wedge(fr.phi, contract(vector(j), b))).is_zero()
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
            # |S|^2 on the numerators n / e of S, an int pairing for the
            # halves of the basis tensors
            n, e = clear_denominators(S.upper)
            return hodge(star_action(S.to_matrix(), fr.psi)) == -b \
                and e * e * norm_sq(b) == 2 * upper_inner(n, n)

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
            T = SymTensor.from_upper(clear_denominators(B.upper)[0])
            # iso_i_inv_upper gives 2 i^{-1}
            b = fr.iso_i(T)
            hits += fr.is_pure27(b) and fr.iso_i_inv_upper(b) == \
                [2 * x for x in T.upper]
        c.ok = hits == 27
        c.actual = f"{hits} of 27 round-trip"

    with run.check("g2.type-gate",
                   "is_pure27 rejects phi and the seven e_j -| psi, and "
                   "require_pure27 raises on each",
                   "phi spans Lambda^3_1 and the e_j -| psi span "
                   "Lambda^3_7, which meet Lambda^3_27 in 0") as c:
        fr = standard_frame()
        rejected = raised = 0
        for b in [fr.phi] + [contract(vector(j), fr.psi) for j in range(1, 8)]:
            rejected += not fr.is_pure27(b)
            try:
                fr.require_pure27(OUTSIDE_27, b)
            except TypeDecompositionError:
                raised += 1
        c.ok = rejected == raised == 8
        c.actual = f"{rejected} of 8 rejected, {raised} of 8 raise"

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

def suite_cubic(seed: int, n_random: int = DEFAULT_RANDOM, samples=None,
                timings: dict | None = None) -> dict:
    from . import cubic as cubicmod
    run = _SuiteRun("cubic", seed, n_random, timings)
    n_pairs = max(10, n_random // 2)

    with run.check("cubic.b2-solve",
                   "b2 exists, is unique, symmetric, bilinear",
                   f"{n_pairs} random pairs; the 49 x 35 solve has full column rank") as c:
        fr = standard_frame()
        for k in range(n_pairs):
            # the first pair generic, so the solve meets a 7-part
            a1, a2 = (fr.iso_i_psi(_int_traceless(c.rng)) if k
                      else _random_form(c.rng, 4, 3) for _ in range(2))
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


# -- aw and pairing ---------------------------------------------------------
# cubic is imported by suite_cubic, and the aw and pairing suites live in
# su3_suites, imported when one of them runs: a run of the exterior or g2
# suite compiles none of cubic, aw, pairing and su3_suites, and a run of
# the cubic suite only cubic

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

# the elements of the pairing suite's Monte-Carlo checks, which the
# benchmark reads too
MC_ELEMENTS = (
    ((1, 1, -2), (0, 0, 0, 0, 0, 0)),
    ((1, -2, 1), (1, 0, 0, 1, 0, 1)),
    ((2, -1, -1), (1, 1, -1, 0, 1, 1)),
)


def suite_aw(seed: int, n_random: int = DEFAULT_RANDOM, samples=None,
             timings: dict | None = None) -> dict:
    """The aw suite, su3_suites.suite_aw."""
    from . import su3_suites
    return su3_suites.suite_aw(seed, n_random, samples, timings)


def suite_pairing(seed: int, n_random: int = DEFAULT_RANDOM,
                  samples: int = DEFAULT_SAMPLES,
                  timings: dict | None = None) -> dict:
    """The pairing suite, su3_suites.suite_pairing."""
    from . import su3_suites
    return su3_suites.suite_pairing(seed, n_random, samples, timings)


SUITE_RUNNERS = {
    "exterior": suite_exterior,
    "g2": suite_g2,
    "cubic": suite_cubic,
    "aw": suite_aw,
    "pairing": suite_pairing,
}


def run_suites(names, seed: int, n_random: int = DEFAULT_RANDOM,
               samples: int = DEFAULT_SAMPLES,
               timings: dict | None = None) -> dict:
    """Run the named suites in canonical order and combine the reports;
    with a timings dict, each check block's wall time in seconds goes
    into it under the block's id."""
    reports = [SUITE_RUNNERS[n](seed, n_random=n_random, samples=samples,
                                timings=timings)
               for n in SUITE_NAMES if n in names]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
