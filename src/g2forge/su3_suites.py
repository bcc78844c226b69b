"""The aw and pairing suites, the two that run the su(3) layer.

suites runs them through suite_aw and suite_pairing, which import this
module when one of the two runs, so a run of the exterior, g2 or cubic
suite never compiles it, nor the aw and pairing modules it imports.
The ledger of by-design failures (AW_BY_DESIGN) and the Monte-Carlo
elements (MC_ELEMENTS) stay in suites, where the command line and the
benchmark read them.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

from . import DEFAULT_RANDOM, DEFAULT_SAMPLES
from . import aw as awmod
from . import pairing as pairmod
from .exterior import contract, inner, norm_sq, vector
from .g2 import InternalConsistencyError
from .linalg import Matrix, rank
from .poly import _CONJUGATE
from .scalars import GaussRational
from .suites import MC_ELEMENTS, _SuiteRun, derived_seed


def _random_su3(rng: random.Random, bound: int = 4):
    v1, v2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return awmod.Su3Element(
        (v1, v2, -v1 - v2),
        tuple(rng.randint(-bound, bound) for _ in range(6)))


# the records of the display sweeps, per id prefix: (expected, actual
# when it holds, actual when not, anchor) for a display that holds as
# stated, for one with a corrected form (the actual says whether the
# correction holds) and for that correction's ".corrected" twin
_SWEEP_TEXTS = {
    "aw.tensor-display.": (
        ("identity holds", "holds", "fails",
         "display verified as a polynomial identity in the block "
         "coordinates"),
        ("display holds as stated",
         "fails at basis points; corrected form verified",
         "fails at basis points; corrected form also fails",
         "the tabulated closed form; see the corrected-form check"),
        ("corrected closed form holds", "holds", "fails",
         "replacement closed form certified on the same sweep")),
    "aw.block-product.": (
        ("display value", "matches", "differs",
         "tabulated scalar product, a polynomial identity on the table "
         "and solver routes"),
        ("display value", "differs; corrected value verified",
         "differs; corrected value fails",
         "tabulated scalar product; see the corrected-value check"),
        ("corrected value holds", "holds", "fails",
         "value forced by full symmetry of the trilinear form")),
}


def suite_aw(seed: int, n_random: int = DEFAULT_RANDOM, samples=None,
             timings: dict | None = None) -> dict:
    run = _SuiteRun("aw", seed, n_random, timings)

    with run.check("aw.quaternionic-relations",
                   "I1 I2 = -I3 and J commutes with each I_a",
                   "endomorphisms of the 4-block induced by the anti-self-dual "
                   "2-forms and the self-dual Omega") as c:
        # on e1..e7, with I_a v = v -| omega_a and J v = v -| Omega
        fr = awmod.standard_aw_frame()
        w, Omega = fr.omega, fr.Omega
        c.ok = all(
            contract(contract(v, w[1]), w[0]) == -contract(v, w[2])
            and all(contract(contract(v, wa), Omega)
                    == contract(contract(v, Omega), wa) for wa in w)
            for v in map(vector, range(1, 8)))

    with run.check("aw.dual-constructions",
                   "x -| (4 vol4 - psi) equals the omega-expansion of C(x)",
                   "the two constructions compared as a polynomial identity "
                   "in the coordinates x4..x7 of x on e4..e7") as c:
        differ = awmod.verify_c_constructions()
        c.ok, c.actual = differ is None, differ or "holds"

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
        fy, fk = awmod.FAMILY
        good = 0
        for _ in range(n_random):
            xi = _random_su3(c.rng)
            # block_coords raises on a y outside m3 or an x outside m4
            z = awmod.block_coords(*awmod.decompose(xi))
            back = awmod.compose(z)
            # D A(xi) = U + sqrt(10) W: U carries D (s, Y y) and W carries
            # D K x, since 1 and sqrt(10) are independent over Q
            u, w, d, _, _ = awmod.comparison_form(xi)
            dy, dk = d * fy, d * fk
            want_u = [d * z[0]] + [dy * t for t in z[1:4]] + [0] * 4
            want_w = [0] * 4 + [dk * t for t in z[4:]]
            read = all(inner(u, b) == n * wu and inner(w, b) == n * ww
                       for b, n, wu, ww in zip(basis, norms, want_u, want_w))
            good += (back.v, back.x) == (xi.v, xi.x) and read
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
            c.ok = c.ok and value == tables.fp_value(
                awmod.block_coords(*awmod.decompose(xi)))

    # each sweep's rows become checks; a sweep that raises is one record
    for stream, verify, key, prefix in (
            ("aw.tensor-displays", awmod.verify_tensor_displays, "identity",
             "aw.tensor-display."),
            ("aw.block-products", awmod.verify_block_products, "product",
             "aw.block-product.")):
        with run.check(stream, "every display evaluates on the sweep",
                       "the block coordinates as polynomial variables"):
            holds, corrected, twin = _SWEEP_TEXTS[prefix]
            for row in verify():
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

    s3, sx2, sy2, r = awmod.INTERMEDIATE_DISPLAY
    with run.check("aw.generic-sum-display",
                   "%s s^3 + s(%s|x|^2 + %s|y|^2) - %sR" % (s3, sx2, sy2, -r),
                   "the tabulated sum of the six weighted products; the fitted "
                   "coefficients are certified on every monomial of the block "
                   "cubic") as c:
        fitted = awmod.fit_block_cubic()
        c.ok = fitted == awmod.INTERMEDIATE_DISPLAY
        c.actual = "%s s^3 + %s s|x|^2 + %s s|y|^2 + %s R" % tuple(fitted)

    with run.check("aw.closed-display",
                   "%s s^3 + (%s) s|x|^2 + (%s) s|y|^2 + (%s) R"
                   % awmod.CLOSED_DISPLAY,
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
                   "direct fit reads P's table assembly as a polynomial in "
                   "the block coordinates") as c:
        pushed = awmod.revert_block_fit(awmod.fit_block_cubic())
        direct = awmod.first_principles_fit()
        c.ok = pushed == direct
        c.actual = ("pushed (%s, %s, %s, %s); direct (%s, %s, %s, %s)"
                    % (pushed + direct))
    return run.report()


# -- pairing ----------------------------------------------------------------

def _random_poly(rng: random.Random, degree: int, real: bool = False):
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
                  samples: int = DEFAULT_SAMPLES,
                  timings: dict | None = None) -> dict:
    run = _SuiteRun("pairing", seed, n_random, timings)
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
        # the interpolation and the fit -210 s^3 + (55/2) s|x|^2
        # + (50/3) s|y|^2 + (125/18) R cannot both be exact if they differ;
        # both are v3-free by construction, so they compare as they are
        p_poly = pairmod.first_principles_p_poly()
        model = sum(f * q for f, q in zip(awmod.first_principles_fit(),
                                          pairmod.component_polys()))
        if p_poly != model:
            mono, a, b = p_poly.first_difference(model)
            raise InternalConsistencyError(
                "interpolated P does not match the fitted four-term model: "
                f"{'*'.join(mono)} has {a} interpolated, {b} in the model")
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
        p_poly = pairmod.first_principles_p_poly()
        if not p_poly.is_real_on_su3():
            mono, a, _ = p_poly.first_difference(p_poly.conjugate())
            partner = tuple(sorted(_CONJUGATE[n] for n in mono))
            raise InternalConsistencyError(
                f"interpolated P is not real-valued: {'*'.join(mono)} has {a}, "
                f"not the conjugate of {p_poly.terms.get(partner, 0)}, the "
                f"coefficient of its partner {'*'.join(partner)}")

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
