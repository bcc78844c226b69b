"""Golden suite reports: every refactor must leave them byte-identical.

The files under tests/golden/ hold the JSON reports of
`g2forge run --suite SUITE --seed SEED --random 1 --format json`
(pairing with `--samples 10000`); tests/regen_golden.py regenerates
them (only with --write). The pairing reports' Monte-Carlo blocks are
compared to a relative 1e-9, everything else byte for byte.
"""

import pytest

from regen_golden import EXPECTED_EXIT, GOLDEN_SEEDS, GOLDEN_SUITES, \
    golden_path, render_report, reports_match


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_report_matches_golden(suite, seed):
    code, payload = render_report(suite, seed)
    assert code == EXPECTED_EXIT[suite]
    with open(golden_path(suite, seed), "rb") as fh:
        assert reports_match(suite, fh.read(), payload)
