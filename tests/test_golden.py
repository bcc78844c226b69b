"""Golden suite reports: every refactor must leave them byte-identical.

The files under tests/golden/ hold the JSON reports of
`g2forge run --suite SUITE --seed SEED --random 1 --format json`
(pairing with `--samples 10000`), and the seed-1 reports at the CLI's
default sizes (`--random 100`, `--samples 10^5`) in
SUITE_full_seed1.json; tests/regen_golden.py regenerates
them (only with --write). The pairing reports' Monte-Carlo blocks are
compared to a relative 1e-9, everything else byte for byte.

operators_seed1.json holds the nine operators' results on inputs drawn
in regen_golden.operator_cases, with the type names of their entries;
it is compared byte for byte.
"""

import json

import pytest

from regen_golden import EXPECTED_EXIT, FULL_SEED, GOLDEN_SEEDS, \
    GOLDEN_SUITES, OPERATORS, golden_path, operator_golden_path, \
    render_operators, render_report, report_differences, reports_match


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_report_matches_golden(suite, seed):
    code, payload = render_report(suite, seed)
    assert code == EXPECTED_EXIT[suite]
    with open(golden_path(suite, seed), "rb") as fh:
        assert reports_match(suite, fh.read(), payload)


@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_full_size_report_matches_golden(suite):
    code, payload = render_report(suite, FULL_SEED, full=True)
    assert code == EXPECTED_EXIT[suite]
    with open(golden_path(suite, FULL_SEED, full=True), "rb") as fh:
        assert reports_match(suite, fh.read(), payload)


def test_operator_results_match_golden():
    payload = render_operators()
    with open(operator_golden_path(), "rb") as fh:
        golden = fh.read()
    assert payload == golden
    cases = json.loads(golden)
    # every operator, shape and coefficient kind is drawn
    assert {(c["operator"], c["shape"], c["kind"]) for c in cases} == {
        (op, shape, kind) for op in OPERATORS
        for shape in ("sparse", "dense") for kind in ("fraction", "quadext")}


def test_report_differences_names_checks_and_montecarlo():
    with open(golden_path("pairing", 0), "rb") as fh:
        golden = fh.read()
    report = json.loads(golden)
    entry = report["suites"][0]
    entry["checks"][1]["actual"] = "changed"
    entry["montecarlo"][0]["empirical"] *= 1.001
    changed = json.dumps(report, indent=2, sort_keys=True).encode()
    assert report_differences("pairing", golden, changed) == [
        f"check {entry['checks'][1]['id']}: actual",
        "montecarlo block: differs"]
    entry["montecarlo"][0]["empirical"] /= 1.001
    entry["checks"][1]["status"] = "fail"
    report["passed"] = False
    changed = json.dumps(report, indent=2, sort_keys=True).encode()
    assert report_differences("pairing", golden, changed) == [
        f"check {entry['checks'][1]['id']}: actual, status",
        "montecarlo block: same",
        "fields outside the checks and montecarlo differ"]
