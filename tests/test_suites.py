"""The suites' checks as records: the aw checks that compare two
constructions pass on the package as it is and fail when one side is
broken, a check that raises fails alone, a report field whose input
raised is left out, and an interrupt is not caught."""

import json
import random
from fractions import Fraction

import pytest

from g2forge import aw, g2, pairing, suites
from g2forge import exterior as ext
from g2forge.exterior import blade
from g2forge.linalg import Matrix
from g2forge.scalars import GaussRational


def _check(report, cid):
    return next(c for c in report["checks"] if c["id"] == cid)


def _aw_check(cid):
    return _check(suites.suite_aw(0, n_random=5), cid)


def test_aw_comparison_checks_pass():
    report = suites.suite_aw(0, n_random=5)
    checks = [_check(report, cid) for cid in (
        "aw.dual-constructions", "aw.decompose-roundtrip", "aw.revert-map")]
    assert [c["status"] for c in checks] == ["pass"] * 3
    assert [c["actual"] for c in checks] == [
        "holds",
        "5 of 5 elements round-trip",
        "pushed (-210, 55/2, 50/3, 125/18); "
        "direct (-210, 55/2, 50/3, 125/18)"]


def test_iso_inverse_roundtrip_can_fail(monkeypatch):
    # one sign of the blade-major index behind iso_i_inv_upper flipped;
    # in the g2 suite only the round trip reads i^{-1}
    fr = g2.standard_frame()
    index = dict(fr._inv_index)
    m = min(index)
    (k, c), *rest = index[m]
    index[m] = ((k, -c), *rest)
    monkeypatch.setattr(fr, "_inv_index", index)
    report = suites.suite_g2(1, n_random=1)
    assert [c["id"] for c in report["checks"] if c["status"] == "fail"] \
        == ["g2.iso-inverse-roundtrip"]


def test_dual_constructions_can_fail(monkeypatch):
    # the actual names the first blade where the two constructions
    # differ and both values there
    monkeypatch.setattr(aw, "c_display",
                        lambda x: aw.c_direct(x) + blade([1, 2, 3]))
    check = _aw_check("aw.dual-constructions")
    assert (check["status"], check["actual"]) == ("fail", "e123 is 0, not 1")


def test_decompose_roundtrip_can_fail(monkeypatch):
    compose = aw.compose
    monkeypatch.setattr(aw, "compose", lambda z: compose(
        [z[0], *(-t for t in z[1:4]), *z[4:]]))
    check = _aw_check("aw.decompose-roundtrip")
    assert check["status"] == "fail"
    assert check["actual"] != "5 of 5 elements round-trip"


def test_decompose_roundtrip_catches_a_consistent_sign_flip(monkeypatch):
    # decompose and compose both flipping y still round-trip; the read of
    # comparison_form, which codes xi -> blocks on its own, catches it
    decompose, compose = aw.decompose, aw.compose

    def flipped(xi):
        s, y, x = decompose(xi)
        return s, -y, x

    monkeypatch.setattr(aw, "decompose", flipped)
    monkeypatch.setattr(aw, "compose", lambda z: compose(
        [z[0], *(-t for t in z[1:4]), *z[4:]]))
    check = _aw_check("aw.decompose-roundtrip")
    assert (check["status"], check["actual"]) == (
        "fail", "0 of 5 elements round-trip")


@pytest.mark.parametrize("skew", [
    lambda u, w, d, *z: (u, 2 * w, d, *z),
    lambda u, w, d, *z: (u + aw.block_basis()[4], w, d, *z)],
    ids=["doubled-w", "u-shifted-by-c-e4"])
def test_decompose_roundtrip_read_can_fail(monkeypatch, skew):
    # the read half: the numerators (U, W, D) of A(xi) against the block
    # coordinates (zu and zw pass through); a wrong read is a failed
    # record, not an exception
    comparison_form = aw.comparison_form
    monkeypatch.setattr(aw, "comparison_form",
                        lambda xi: skew(*comparison_form(xi)))
    check = _aw_check("aw.decompose-roundtrip")
    assert check["status"] == "fail"
    assert check["actual"] != "5 of 5 elements round-trip"
    assert check["actual"].endswith(" of 5 elements round-trip")


def test_revert_map_can_fail(monkeypatch):
    revert = aw.revert_block_fit
    monkeypatch.setattr(aw, "revert_block_fit",
                        lambda c: revert(c[:3] + (c[3] * Fraction(2),)))
    check = _aw_check("aw.revert-map")
    assert check["status"] == "fail"
    assert check["actual"].startswith("pushed (-210, 55/2, 50/3, 125/9);")


def test_quaternionic_relations_can_fail(fresh_python):
    # Omega = omega_1 makes J = I1, which still squares to -1, but
    # J I2 != I2 J; a fresh interpreter, since per-process caches read the
    # frame's Omega
    code = (
        "from g2forge import aw, suites\n"
        "fr = aw.standard_aw_frame()\n"
        "fr.Omega = fr.omega[0]\n"
        "report = suites.suite_aw(0, n_random=1)\n"
        "print(next(c['status'] for c in report['checks']\n"
        "           if c['id'] == 'aw.quaternionic-relations'))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fail\n"


def test_idet_two_routes_can_fail(monkeypatch):
    i_det = aw.Su3Element.i_det
    monkeypatch.setattr(aw.Su3Element, "i_det", lambda self: -i_det(self))
    assert _aw_check("aw.idet-two-routes")["status"] == "fail"


def _pairing_checks():
    """The pairing suite's records by id, from one run."""
    report = suites.suite_pairing(0, n_random=1, samples=10 ** 4)
    return {c["id"]: c for c in report["checks"]}


def _pairing_check(cid):
    return _pairing_checks()[cid]


def test_gram_from_killing_can_fail(monkeypatch, rebuilt):
    assert _pairing_check("pairing.gram-from-killing")["status"] == "pass"
    monkeypatch.setitem(pairing.GRAM, ("v1", "v2"), Fraction(-1, 3))
    assert _pairing_check("pairing.gram-from-killing")["status"] == "fail"


def test_gram_from_killing_reads_the_trace(monkeypatch, rebuilt):
    # the table is derived from b(xi, eta) = -1/2 tr(xi eta) itself, so b
    # normalised as -tr(xi eta) halves every derived entry and fails
    killing = pairing._killing
    monkeypatch.setattr(pairing, "_killing",
                        lambda m1, m2: 2 * killing(m1, m2))
    assert pairing.derive_gram_from_killing()[("v1", "v2")] == Fraction(-1, 3)
    assert _pairing_check("pairing.gram-from-killing")["status"] == "fail"


def test_sym_inner_symmetric_can_fail(monkeypatch, rebuilt):
    inner = pairing.monomial_inner
    monkeypatch.setattr(pairing, "monomial_inner",
                        lambda m1, m2: inner(m1, m2) + (1 if m1 < m2 else 0))
    assert _pairing_check("pairing.sym-inner-symmetric")["status"] == "fail"


def _recorded(cid):
    check = _pairing_check(cid)
    assert check["status"] == "fail"
    return check["actual"]


def test_degenerate_killing_form_names_the_column(monkeypatch):
    solve_exact = pairing.solve_exact
    monkeypatch.setattr(pairing, "solve_exact",
                        lambda A, b: (solve_exact(A, b)[0], 1))
    assert _recorded("pairing.gram-from-killing") == (
        "InternalConsistencyError: the Killing form is degenerate: solving "
        "for column 0 leaves a kernel of dimension 1")


def test_complex_gram_entry_names_the_letters(monkeypatch):
    # v1's row times i: <v1, v1> stays real, <v1, v2> turns imaginary.  A
    # direct call, since x_letter_polys would cache the bent rows
    rows = dict(pairing._letter_rows())
    rows["v1"] = [GaussRational(0, 1) * x for x in rows["v1"]]
    monkeypatch.setattr(pairing, "_letter_rows", lambda: rows)
    with pytest.raises(g2.InternalConsistencyError) as err:
        pairing.derive_gram_from_killing()
    assert str(err.value) == ("derived Gram entry (v1, v2) is not rational: "
                              "real part 0, imaginary part -2/3")


def test_disagreeing_idet_routes_name_the_difference(monkeypatch, rebuilt):
    determinant = pairing.idet_determinant_poly
    monkeypatch.setattr(pairing, "idet_determinant_poly",
                        lambda: 2 * determinant())
    difference = pairing.idet_report()["difference"]
    assert difference.startswith(
        "at v1*v1*v2 the display has -1 and the determinant -2; "
        "display ")
    # pairing.idet-construction records the first monomial that differs
    # and both reduced polynomials; the pairing report pairs the
    # displayed i det, so the checks that read it keep their records
    checks = _pairing_checks()
    assert (checks["pairing.idet-construction"]["status"],
            checks["pairing.idet-construction"]["actual"]) == ("fail",
                                                               difference)
    assert [cid for cid, c in checks.items() if c["status"] == "fail"] == [
        "pairing.idet-construction"]


def test_complex_p_names_the_monomial(monkeypatch, rebuilt):
    # the v1^3 coefficient of P times i: pairing.p-poly-real names the
    # monomial, and the support check, which reads P's monomials alone,
    # passes
    coefficients = dict(pairing.interpolate_p_coefficients())
    coefficients[(0, 0, 0)] *= GaussRational(0, 1)
    monkeypatch.setattr(pairing, "interpolate_p_coefficients",
                        lambda: coefficients)
    checks = _pairing_checks()
    c = "0 - 145/6 i"
    assert checks["pairing.p-poly-real"]["actual"] == (
        "InternalConsistencyError: interpolated P is not real-valued: "
        f"v1*v1*v1 has {c}, not the conjugate of {c}, the coefficient of "
        "its partner v1*v1*v1")
    assert checks["pairing.pure-z-support"]["status"] == "pass"


def test_complex_pairing_names_its_imaginary_part(monkeypatch, rebuilt):
    inner = pairing.sym_inner_poly
    monkeypatch.setattr(pairing, "sym_inner_poly",
                        lambda p, q: inner(p, q) + GaussRational(0, 1))
    assert _recorded("pairing.component-values") == (
        "InternalConsistencyError: <P, i det> is not real: imaginary part 1")


def test_model_mismatch_names_the_monomial(monkeypatch, rebuilt):
    # the fit the check reads with its s^3 coefficient off by one: the
    # check names the first monomial where interpolated P and the model
    # differ, and the pairing report, which reads pairing's own name of
    # the fit, keeps its values
    fit = aw.first_principles_fit()
    monkeypatch.setattr(aw, "first_principles_fit",
                        lambda: (fit[0] + 1,) + fit[1:])
    checks = _pairing_checks()
    assert checks["pairing.first-principles-nonzero"]["actual"] == (
        "InternalConsistencyError: interpolated P does not match the fitted "
        "four-term model: v1*v1*v1 has -145/6 interpolated, -577/24 in the "
        "model")
    assert checks["pairing.component-values"]["status"] == "pass"


def test_negative_idet_norm_names_the_value(monkeypatch, rebuilt):
    # <i det, i det> negated: pairing.idet-self alone judges its sign and
    # records the value; the Monte-Carlo prediction, which divides by it,
    # misses, and the other readers of the report keep their records
    inner = pairing.sym_inner_poly
    monkeypatch.setattr(pairing, "sym_inner_poly",
                        lambda p, q: -inner(p, q) if p is q else inner(p, q))
    checks = _pairing_checks()
    assert checks["pairing.idet-self"]["actual"] == "-320/9"
    assert sorted(cid for cid, c in checks.items() if c["status"] == "fail") \
        == ["pairing.idet-self", "pairing.montecarlo-agreement"]


def test_g2_suite_builds_no_dense_projector():
    # the frame has no dense projector to build: g2.type-dimensions
    # reads the ranks off the split in use (the next test breaks it)
    for name in ("projector_matrices", "two_form_eigenvalues",
                 "_p2", "_p3", "_p4"):
        assert not hasattr(g2.G2Frame, name)
    report = suites.suite_g2(0, n_random=1)
    assert report["passed"]
    assert _check(report, "g2.type-dimensions")["actual"] == "[7, 14] [1, 7, 27] [1, 7, 27]"


def test_type_dimensions_check_can_fail(monkeypatch):
    monkeypatch.setattr(g2.G2Frame, "project2",
                        lambda self, a: (a, ext.Form.zero(2)))
    check = _check(suites.suite_g2(0, n_random=1), "g2.type-dimensions")
    assert check["status"] == "fail"
    assert check["actual"] == "[21, 0] [1, 7, 27] [1, 7, 27]"


def test_pairing_rank_check_can_fail(monkeypatch):
    # column 0 copied over column 1: the rank the check reads falls to 34
    pairing_matrix = g2.G2Frame.pairing_matrix

    def duplicated(self):
        M = pairing_matrix(self)
        rows = [M.row(i) for i in range(M.rows)]
        return Matrix.from_rows([row[:1] + row[:1] + row[2:] for row in rows])

    monkeypatch.setattr(g2.G2Frame, "pairing_matrix", duplicated)
    check = _check(suites.suite_g2(0, n_random=1), "g2.pairing-rank")
    assert (check["status"], check["actual"]) == ("fail", "34")


def test_int_traceless_is_the_same_draw():
    # value for value, the draw random_traceless makes, and the stream
    # left where random_traceless leaves it
    for bound in (6, 3):
        r1, r2 = random.Random(bound), random.Random(bound)
        for _ in range(20):
            S = suites._int_traceless(r1, bound)
            T = g2.random_traceless(r2, bound)
            assert S == T and S.trace() == 0
            assert {type(x) for x in S.upper} == {int}
        assert r1.getstate() == r2.getstate()


def test_derived_seed_digests_are_hashlibs():
    """derived_seed takes sha256 from the builtin SHA-2 module; its
    sub-seeds are those of hashlib's sha256."""
    import hashlib
    for seed, cid in ((1, "aw.tensor-displays"), (3, "g2.type-dimensions"),
                      (2 ** 40, "pairing.mc.0"), (-7, "")):
        digest = hashlib.sha256(f"{seed}:{cid}".encode()).digest()
        assert suites.derived_seed(seed, cid) == \
            int.from_bytes(digest[:4], "big")


_COUNT_G2_CUBIC = """
import json
from fractions import Fraction
from g2forge import linalg, suites

counts = {}


def counted(name, fn):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper


linalg._echelon = counted("echelon", linalg._echelon)
Fraction.__mul__ = counted("fraction_mul", Fraction.__mul__)
Fraction.__rmul__ = counted("fraction_mul", Fraction.__rmul__)
out = {}
for name in ("g2", "cubic"):
    counts.update(echelon=0, fraction_mul=0)
    report = getattr(suites, "suite_" + name)(1, n_random=1)
    out[name] = dict(counts, passed=report["passed"])
print(json.dumps(out))
"""


def test_g2_and_cubic_run_counts(fresh_python):
    """The g2 suite runs one elimination per rank, nine, the cubic
    suite none, and both suites read their random tensors as ints: few
    Fraction products are left, most of them in the frame build the g2
    run pays (the eliminations run on ints; the build reads the volume
    coefficient of phi ^ psi as an int, where it made one Fraction
    product for vol = (phi ^ psi)/7)."""
    proc = fresh_python(_COUNT_G2_CUBIC)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "g2": {"echelon": 9, "fraction_mul": 1680, "passed": True},
        "cubic": {"echelon": 0, "fraction_mul": 333, "passed": True}}


def test_iso_identities_check_can_fail(flip_iso_i):
    def status():
        report = suites.suite_g2(0, n_random=1)
        return _check(report, "g2.iso-identities")["status"]

    assert status() == "pass"
    flip_iso_i()
    assert status() == "fail"


def test_a_raising_check_fails_alone(monkeypatch):
    def broken(self):
        raise RuntimeError("no pairing matrix")

    monkeypatch.setattr(g2.G2Frame, "pairing_matrix", broken)
    report = suites.suite_g2(0, n_random=1)
    assert len(report["checks"]) == 10
    assert [c for c in report["checks"] if c["status"] == "fail"] == [{
        "id": "g2.pairing-rank",
        "status": "fail",
        "expected": "rank 35",
        "actual": "RuntimeError: no pairing matrix",
        "anchor": "gamma |-> (gamma ^ (e_j -| psi))_j is injective on "
                  "3-forms; raised at seed 0 with --random 1, rerun it "
                  "to reproduce",
    }]


def test_an_interrupt_in_a_check_propagates(monkeypatch):
    def interrupt(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(g2.G2Frame, "pairing_matrix", interrupt)
    with pytest.raises(KeyboardInterrupt):
        suites.suite_g2(0, n_random=1)


def test_pairing_fields_left_out_when_their_input_raises(monkeypatch):
    def broken():
        raise RuntimeError("no report")

    monkeypatch.setattr(pairing, "pairing_report", broken)
    report = suites.suite_pairing(1, n_random=1, samples=10 ** 4)
    assert set(report) == {"suite", "seed", "passed", "checks"}
    assert _check(report, "pairing.component-values")["actual"] == \
        "RuntimeError: no report"
    assert _check(report, "pairing.gram-from-killing")["status"] == "pass"


def test_monte_carlo_repro_note_names_samples(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(pairing, "pairing_report", broken)
    monkeypatch.setattr(pairing, "haar_su3", broken)
    report = suites.suite_pairing(1, n_random=1, samples=10 ** 4)
    monte_carlo = [c for c in report["checks"]
                   if c["id"].startswith("pairing.montecarlo-")]
    assert len(monte_carlo) == 3
    for check in monte_carlo:
        assert check["status"] == "fail"
        assert check["anchor"].endswith(
            "; raised at seed 1 with --random 1 --samples 10000, rerun it "
            "to reproduce")
    # the exact checks do not depend on --samples and do not name it
    exact = _check(report, "pairing.closed-assembly")
    assert exact["anchor"].endswith(
        "; raised at seed 1 with --random 1, rerun it to reproduce")


def test_monte_carlo_sampler_checks_need_no_pairing_report(monkeypatch):
    """The determinism and scaling checks read the sampler alone; only
    the agreement check compares with the prediction, which a broken
    pairing report takes away."""
    want = suites.suite_pairing(1, n_random=1, samples=10 ** 4)

    def broken():
        raise RuntimeError("no report")

    monkeypatch.setattr(pairing, "pairing_report", broken)
    report = suites.suite_pairing(1, n_random=1, samples=10 ** 4)
    for cid in ("pairing.montecarlo-deterministic",
                "pairing.montecarlo-scaling"):
        assert _check(report, cid) == _check(want, cid)
        assert _check(report, cid)["status"] == "pass"
    assert _check(report, "pairing.montecarlo-agreement")["actual"] == \
        "RuntimeError: no report"


def test_closed_display_needs_no_pairing_report(monkeypatch):
    want = _check(suites.suite_aw(1, n_random=1), "aw.closed-display")

    def broken():
        raise RuntimeError("no report")

    monkeypatch.setattr(pairing, "pairing_report", broken)
    report = suites.suite_aw(1, n_random=1)
    assert _check(report, "aw.closed-display") == want
    assert want["actual"] == "-210 s^3 + 55/2 s|x|^2 + 50/3 s|y|^2 + 125/18 R"
    assert want["anchor"] == ("the final tabulated P; sign resolution: "
                              "intermediate-display")
    # the check that does compare with the pairing report still fails on it
    assert _check(report, "aw.pairing-vs-displays")["actual"] == \
        "RuntimeError: no report"


def test_sign_resolution_rule():
    assert aw.sign_resolution(aw.first_principles_fit()) == \
        "intermediate-display"
    assert aw.sign_resolution(aw.CLOSED_DISPLAY) == "final-display"
