"""The aw suite checks that compare two constructions: they pass on the
package as it is and fail when one side is broken."""

from fractions import Fraction

from g2forge import aw, g2, suites
from g2forge import exterior as ext
from g2forge.exterior import blade


def test_aw_comparison_checks_pass():
    assert suites._aw_dual_constructions(0) == (
        True, "agree on 24 of 24 vectors")
    assert suites._aw_decompose_roundtrip(0, 5) == (
        True, "5 of 5 elements round-trip")
    ok, actual = suites._aw_revert_map()
    assert ok
    assert actual == ("pushed (-210, 55/2, 50/3, 125/18); "
                      "direct (-210, 55/2, 50/3, 125/18)")


def test_dual_constructions_can_fail(monkeypatch):
    monkeypatch.setattr(aw, "c_display",
                        lambda x: aw.c_direct(x) + blade([1, 2, 3]))
    assert suites._aw_dual_constructions(0) == (
        False, "agree on 0 of 24 vectors")


def test_decompose_roundtrip_can_fail(monkeypatch):
    compose = aw.compose
    monkeypatch.setattr(aw, "compose", lambda s, y, x: compose(s, -y, x))
    ok, actual = suites._aw_decompose_roundtrip(0, 5)
    assert not ok and actual != "5 of 5 elements round-trip"


def test_revert_map_can_fail(monkeypatch):
    revert = aw.revert_block_fit
    monkeypatch.setattr(aw, "revert_block_fit",
                        lambda c: revert(c[:3] + (c[3] * Fraction(2),)))
    ok, actual = suites._aw_revert_map()
    assert not ok and actual.startswith("pushed (-210, 55/2, 50/3, 125/9);")


def _check(report, cid):
    return next(c for c in report["checks"] if c["id"] == cid)


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


def test_iso_identities_check_can_fail(flip_iso_i):
    def status():
        report = suites.suite_g2(0, n_random=1)
        return _check(report, "g2.iso-identities")["status"]

    assert status() == "pass"
    flip_iso_i()
    assert status() == "fail"
