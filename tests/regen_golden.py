"""Regenerate the golden suite reports under tests/golden/.

Each golden file is the exact bytes that

    g2forge run --suite SUITE --seed SEED --random 1 --format json

writes, for the suites and seeds in GOLDEN_SUITES and GOLDEN_SEEDS.
tests/test_golden.py regenerates the same reports in-process and
compares them byte for byte.

Without arguments the script only reports which files differ; it
overwrites them only when run with --write:

    PYTHONPATH=src python tests/regen_golden.py [--write]

Regenerate only when a report change is intended, and say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from g2forge import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SUITES = ("exterior", "g2", "cubic", "aw")
GOLDEN_SEEDS = (0, 1)
# exit codes of `g2forge run`: aw fails its by-design checks
EXPECTED_EXIT = {"exterior": 0, "g2": 0, "cubic": 0, "aw": 1}


def golden_path(suite: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{suite}_seed{seed}.json")


def render_report(suite: str, seed: int) -> tuple[int, bytes]:
    """(exit code, report bytes) of one `g2forge run`, in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = cli.main(["run", "--suite", suite, "--seed", str(seed),
                         "--random", "1", "--format", "json",
                         "--output", out])
        with open(out, "rb") as fh:
            return code, fh.read()


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
                    same = fh.read() == payload
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
