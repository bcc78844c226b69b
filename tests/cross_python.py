"""Compare the exact suites' reports across Python interpreters.

For each interpreter given, runs

    INTERPRETER -m g2forge run --suite SUITE --seed 1 --format json

with PYTHONPATH=src, for the exterior, g2, cubic and aw suites at the
CLI's default sizes, and compares the bytes it writes with
tests/golden/SUITE_full_seed1.json.  The exit code must be the one the
golden report implies: 0 when it passed, 1 when it did not (aw fails
its documented checks by design).  It also renders the operator golden,
tests/golden/operators_seed1.json, with regen_golden.render_operators()
under each interpreter (no numpy needed) and compares its bytes, which
pin the entry types of the nine operators' results.  The pairing suite
does not run: its Monte-Carlo block needs numpy and is compared to a
tolerance, not byte for byte.  Its exact fields (the pairing, the
first-principles pairing, the components and the sign resolution) need
no numpy, so each interpreter computes them from pairing_report() and
they are compared with tests/golden/pairing_full_seed1.json.

    python tests/cross_python.py INTERPRETER...

Prints one line per interpreter and suite, and exits 1 when any report
or exit code differs (an interpreter that cannot run the package
differs too: a suite it writes no report for reads "did not run" with
its exit code and last stderr line), 0 otherwise.  It is not part of the test suite: which
interpreters a host has is not the package's business.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("exterior", "g2", "cubic", "aw")


def _tail(proc) -> str:
    """The last line the process wrote to stderr, in parentheses after
    a space, or nothing when it wrote none."""
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return f" ({tail[0].strip()})" if tail else ""


def compare(interpreter: str, suite: str) -> str | None:
    """None when the interpreter's report and exit code match the
    golden ones, else what differs."""
    golden = (ROOT / "tests" / "golden" / f"{suite}_full_seed1.json").read_bytes()
    want_code = 0 if json.loads(golden)["passed"] else 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [interpreter, "-m", "g2forge", "run", "--suite", suite, "--seed",
             "1", "--format", "json"],
            cwd=ROOT, env=env, capture_output=True, timeout=600)
    except OSError as exc:
        return f"did not start: {exc}"
    if not proc.stdout:
        return f"did not run: exit {proc.returncode}{_tail(proc)}"
    if proc.stdout != golden:
        return "report differs" + _tail(proc)
    if proc.returncode != want_code:
        return f"exit {proc.returncode}, golden implies {want_code}"
    return None


def compare_operators(interpreter: str) -> str | None:
    """None when the interpreter renders the operator golden's bytes,
    else what differs."""
    golden = (ROOT / "tests" / "golden" / "operators_seed1.json").read_bytes()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    code = ("import sys, regen_golden\n"
            "sys.stdout.buffer.write(regen_golden.render_operators())\n")
    try:
        proc = subprocess.run([interpreter, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, timeout=600)
    except OSError as exc:
        return f"did not start: {exc}"
    if proc.returncode != 0:
        return f"exit {proc.returncode}{_tail(proc)}"
    if proc.stdout != golden:
        return "operator results differ"
    return None


# the pairing report's exact fields as suite_pairing records them
_PAIRING_FIELDS = (
    "import json\n"
    "from g2forge.pairing import pairing_report\n"
    "rep = pairing_report()\n"
    "print(json.dumps({\n"
    "    'pairing': str(rep['closed_form_pairing']),\n"
    "    'first_principles_pairing': str(rep['first_principles_pairing']),\n"
    "    'components': {k: str(v) for k, v in rep['components'].items()},\n"
    "    'sign_resolution': rep['sign_resolution']}))\n")


def compare_pairing(interpreter: str) -> str | None:
    """None when the interpreter's pairing_report() gives the exact
    fields of the pairing golden report, else what differs."""
    golden = json.loads(
        (ROOT / "tests" / "golden" / "pairing_full_seed1.json").read_bytes())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([interpreter, "-c", _PAIRING_FIELDS], cwd=ROOT,
                              env=env, capture_output=True, timeout=600)
    except OSError as exc:
        return f"did not start: {exc}"
    if proc.returncode != 0:
        return f"exit {proc.returncode}{_tail(proc)}"
    got = json.loads(proc.stdout)
    want = {k: golden["suites"][0][k] for k in got}
    return None if got == want else "pairing fields differ"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = 0
    for interpreter in argv:
        for suite in SUITES:
            problem = compare(interpreter, suite)
            differ += problem is not None
            print(f"{interpreter} {suite}: {problem or 'matches the golden report'}")
        problem = compare_operators(interpreter)
        differ += problem is not None
        print(f"{interpreter} operators: "
              f"{problem or 'matches the golden results'}")
        problem = compare_pairing(interpreter)
        differ += problem is not None
        print(f"{interpreter} pairing: "
              f"{problem or 'matches the golden exact fields'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
