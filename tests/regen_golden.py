"""Regenerate the golden suite reports under tests/golden/.

Each golden file is the exact bytes that

    g2forge run --suite SUITE --seed SEED --random 1 --format json

writes (the pairing suite also with --samples 10000), for the suites
and seeds in GOLDEN_SUITES and GOLDEN_SEEDS. tests/test_golden.py
regenerates the same reports in-process and compares them with
reports_match: byte for byte, except that the pairing suite's
floating-point `montecarlo` block is compared to a relative 1e-9.

Without arguments the script only reports which files differ; it
overwrites them only when run with --write:

    PYTHONPATH=src python tests/regen_golden.py [--write]

Regenerate only when a report change is intended, and say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from g2forge import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SUITES = ("exterior", "g2", "cubic", "aw", "pairing")
GOLDEN_SEEDS = (0, 1)
# exit codes of `g2forge run`: aw fails its by-design checks
EXPECTED_EXIT = {"exterior": 0, "g2": 0, "cubic": 0, "aw": 1, "pairing": 0}
# the smallest Monte-Carlo size the CLI accepts keeps the pairing run short
PAIRING_SAMPLES = 10 ** 4
MONTECARLO_RTOL = 1e-9


def golden_path(suite: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{suite}_seed{seed}.json")


def render_report(suite: str, seed: int) -> tuple[int, bytes]:
    """(exit code, report bytes) of one `g2forge run`, in-process."""
    argv = ["run", "--suite", suite, "--seed", str(seed), "--random", "1",
            "--format", "json"]
    if suite == "pairing":
        argv += ["--samples", str(PAIRING_SAMPLES)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = cli.main(argv + ["--output", out])
        with open(out, "rb") as fh:
            return code, fh.read()


def _split_montecarlo(payload: bytes) -> tuple[str, list]:
    """(canonical JSON without the montecarlo blocks, those blocks)."""
    report = json.loads(payload)
    blocks = [entry.pop("montecarlo", None) for entry in report["suites"]]
    return json.dumps(report, indent=2, sort_keys=True), blocks


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=MONTECARLO_RTOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def reports_match(suite: str, golden: bytes, payload: bytes) -> bool:
    """Whether a fresh report reproduces its golden file.

    Byte for byte, except for the pairing suite: its Monte-Carlo floats
    depend on numpy's arithmetic, so the `montecarlo` blocks are compared
    to a relative MONTECARLO_RTOL and everything else through canonical
    JSON.
    """
    if suite != "pairing":
        return golden == payload
    rest_g, mc_g = _split_montecarlo(golden)
    rest_p, mc_p = _split_montecarlo(payload)
    return rest_g == rest_p and _close(mc_g, mc_p)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden files")
    args = parser.parse_args(argv)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    status = 0
    for suite in GOLDEN_SUITES:
        for seed in GOLDEN_SEEDS:
            code, payload = render_report(suite, seed)
            if code != EXPECTED_EXIT[suite]:
                print(f"{suite} seed {seed}: exit {code}, "
                      f"expected {EXPECTED_EXIT[suite]}", file=sys.stderr)
                status = 1
            path = golden_path(suite, seed)
            try:
                with open(path, "rb") as fh:
                    same = reports_match(suite, fh.read(), payload)
            except FileNotFoundError:
                same = False
            if same:
                print(f"{path}: unchanged")
            elif args.write:
                with open(path, "wb") as fh:
                    fh.write(payload)
                print(f"{path}: written")
            else:
                print(f"{path}: differs (run with --write to overwrite)")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
