"""Golden suite reports: every refactor must leave them byte-identical.

The files under tests/golden/ hold the JSON reports of
`g2forge run --suite SUITE --seed SEED --random 1 --format json`;
tests/regen_golden.py regenerates them (only with --write).
"""

import pytest

from regen_golden import EXPECTED_EXIT, GOLDEN_SEEDS, GOLDEN_SUITES, \
    golden_path, render_report


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_report_matches_golden(suite, seed):
    code, payload = render_report(suite, seed)
    assert code == EXPECTED_EXIT[suite]
    with open(golden_path(suite, seed), "rb") as fh:
        assert payload == fh.read()
