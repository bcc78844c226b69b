"""Regenerate the golden suite reports under tests/golden/.

Each golden file is the exact bytes that

    g2forge run --suite SUITE --seed SEED --random 1 --format json

writes (the pairing suite also with --samples 10000), for the suites
and seeds in GOLDEN_SUITES and GOLDEN_SEEDS, and, in
SUITE_full_seedSEED.json, the bytes of `g2forge run` at the CLI's
default sizes (--random 100, --samples 10^5) at FULL_SEED.
tests/test_golden.py regenerates the same reports in-process and
compares them with reports_match: byte for byte, except that the
pairing suite's floating-point `montecarlo` block is compared to a
relative 1e-9.

operators_seedSEED.json (OPERATOR_SEED) holds the results of the nine
operators the `eval` command and the benchmark run (project2/3/4, hat,
iso_i_inv, b2, q2, Q, P) on inputs drawn here: sparse and dense forms
with Fraction and QuadExt coefficients, each case its inputs, the exact
JSON of its result and the type names of the result's entries.  It is
compared byte for byte: the suites' checks compare values, and this
file also pins the entry types.

Without arguments the script only reports which files differ, and
for each the ids of the checks that differ and whether the
`montecarlo` block does; it overwrites them only when run with --write:

    PYTHONPATH=src python tests/regen_golden.py [--write]

Regenerate only when a report change is intended, and say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

from g2forge import cli, cubic
from g2forge import exterior as ext
from g2forge.g2 import standard_frame
from g2forge.linalg import SymTensor
from g2forge.scalars import QuadExt, scalar_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_SUITES = ("exterior", "g2", "cubic", "aw", "pairing")
GOLDEN_SEEDS = (0, 1)
# the one seed also kept at the CLI's default sizes, where the suites
# draw all their random inputs
FULL_SEED = 1
# exit codes of `g2forge run`: aw fails its by-design checks
EXPECTED_EXIT = {"exterior": 0, "g2": 0, "cubic": 0, "aw": 1, "pairing": 0}
# the smallest Monte-Carlo size the CLI accepts keeps the pairing run short
PAIRING_SAMPLES = 10 ** 4
MONTECARLO_RTOL = 1e-9


def golden_runs() -> list[tuple[str, int, bool]]:
    """(suite, seed, full) of every golden file; full runs take the
    CLI's default sizes."""
    return [(suite, seed, False) for suite in GOLDEN_SUITES
            for seed in GOLDEN_SEEDS] + \
        [(suite, FULL_SEED, True) for suite in GOLDEN_SUITES]


def golden_path(suite: str, seed: int, full: bool = False) -> str:
    name = f"{suite}_full_seed{seed}" if full else f"{suite}_seed{seed}"
    return os.path.join(GOLDEN_DIR, name + ".json")


def render_report(suite: str, seed: int,
                  full: bool = False) -> tuple[int, bytes]:
    """(exit code, report bytes) of one `g2forge run`, in-process."""
    argv = ["run", "--suite", suite, "--seed", str(seed), "--format", "json"]
    if not full:
        argv += ["--random", "1"]
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


def report_differences(suite: str, golden: bytes, payload: bytes) -> list:
    """Where a fresh report departs from its golden file, one line each:
    every check whose record differs (with the fields that differ),
    whether the pairing suite's `montecarlo` block differs beyond
    MONTECARLO_RTOL, and whether any other field differs."""
    old, new = json.loads(golden), json.loads(payload)

    def checks(report):
        return {c["id"]: c for entry in report["suites"]
                for c in entry["checks"]}

    old_checks, new_checks = checks(old), checks(new)
    lines = []
    for cid in list(new_checks) + [c for c in old_checks
                                   if c not in new_checks]:
        a, b = old_checks.get(cid), new_checks.get(cid)
        if a is None or b is None:
            lines.append(f"check {cid}: {'added' if a is None else 'removed'}")
        elif a != b:
            fields = sorted(k for k in a.keys() | b.keys()
                            if a.get(k) != b.get(k))
            lines.append(f"check {cid}: {', '.join(fields)}")
    mc_old = [entry.pop("montecarlo", None) for entry in old["suites"]]
    mc_new = [entry.pop("montecarlo", None) for entry in new["suites"]]
    if suite == "pairing":
        lines.append("montecarlo block: "
                     + ("same" if _close(mc_old, mc_new) else "differs"))
    for report in (old, new):
        for entry in report["suites"]:
            del entry["checks"]
    if old != new:
        lines.append("fields outside the checks and montecarlo differ")
    return lines or ["formatting only: the JSON values are equal"]


# -- operator results ----------------------------------------------------------

OPERATOR_SEED = 1
OPERATORS = ("project2", "project3", "project4", "hat", "iso_i_inv", "b2",
             "q2", "Q", "P")
OPERATOR_SHAPES = ("sparse", "dense")
OPERATOR_KINDS = ("fraction", "quadext")
# draws per (operator, shape, kind)
OPERATOR_DRAWS = 2


def operator_golden_path(seed: int = OPERATOR_SEED) -> str:
    return os.path.join(GOLDEN_DIR, f"operators_seed{seed}.json")


def _draw_coeff(rng: random.Random, kind: str):
    """A nonzero a/b with |a| <= 5, b <= 3; for quadext, plus a
    sqrt(10) part c/e with |c| <= 2 (possibly 0)."""
    rat = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                   rng.randint(1, 3))
    if kind == "fraction":
        return rat
    return QuadExt(rat, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def _draw_form(rng: random.Random, grade: int, shape: str, kind: str):
    """Sparse: 1-3 blades; dense: every blade of the grade."""
    blades = ext.BLADES_BY_GRADE[grade]
    picked = rng.sample(blades, rng.randint(1, 3)) if shape == "sparse" \
        else blades
    return ext.Form(grade, {m: _draw_coeff(rng, kind) for m in picked})


def _draw_traceless(rng: random.Random, shape: str, kind: str) -> SymTensor:
    """Dense: every upper entry drawn; sparse: 1-3 of them.  The last
    diagonal entry is then set by the trace."""
    e = [[Fraction(0)] * 7 for _ in range(7)]
    cells = [(i, j) for i in range(7) for j in range(i, 7)]
    if shape == "sparse":
        cells = rng.sample(cells, rng.randint(1, 3))
    for i, j in cells:
        e[i][j] = e[j][i] = _draw_coeff(rng, kind)
    e[6][6] = -sum(e[i][i] for i in range(6))
    return SymTensor(e, traceless=True)


def operator_cases(seed: int = OPERATOR_SEED) -> list[tuple]:
    """(operator, shape, kind, args) for OPERATOR_DRAWS draws of every
    operator on every shape and coefficient kind; q2 and Q take *i(S),
    iso_i_inv and P take i(S), both of pure 27 type."""
    fr = standard_frame()
    rng = random.Random(seed)
    grades = {"project2": 2, "project3": 3, "project4": 4, "hat": 4}
    out = []
    for op in OPERATORS:
        for shape in OPERATOR_SHAPES:
            for kind in OPERATOR_KINDS:
                for _ in range(OPERATOR_DRAWS):
                    if op in grades:
                        args = (_draw_form(rng, grades[op], shape, kind),)
                    elif op == "b2":
                        args = tuple(_draw_form(rng, 4, shape, kind)
                                     for _ in range(2))
                    else:
                        b = fr.iso_i(_draw_traceless(rng, shape, kind))
                        args = (ext.hodge(b),) if op in ("q2", "Q") else (b,)
                    out.append((op, shape, kind, args))
    return out


def apply_operator(op: str, args: tuple):
    fr = standard_frame()
    if op in ("project2", "project3", "project4", "hat", "iso_i_inv"):
        return getattr(fr, op)(*args)
    return {"b2": cubic.b2, "q2": cubic.q2, "Q": cubic.q_value,
            "P": cubic.p_value}[op](*args, fr)


def _result_json(value):
    """(exact JSON, entry type names) of a form, a tuple of forms, a
    symmetric tensor or a scalar; a form's entries in blade order, as
    form_to_json lists them."""
    if isinstance(value, ext.Form):
        order = sorted(value.terms, key=ext.blade_indices)
        return (ext.form_to_json(value),
                [type(value.terms[m]).__name__ for m in order])
    if isinstance(value, tuple):
        parts = [_result_json(v) for v in value]
        return [p[0] for p in parts], [p[1] for p in parts]
    if isinstance(value, SymTensor):
        return ([[scalar_to_json(c) for c in row] for row in value.entries],
                [[type(c).__name__ for c in row] for row in value.entries])
    return scalar_to_json(value), type(value).__name__


def render_operators(seed: int = OPERATOR_SEED) -> bytes:
    """The operator golden: one JSON object per line and case."""
    lines = []
    for op, shape, kind, args in operator_cases(seed):
        result, types = _result_json(apply_operator(op, args))
        lines.append(json.dumps(
            {"operator": op, "shape": shape, "kind": kind,
             "args": [ext.form_to_json(a) for a in args],
             "result": result, "types": types}, sort_keys=True))
    return ("[\n" + ",\n".join(lines) + "\n]\n").encode()


def _compare(path: str, payload: bytes, same, write: bool):
    """(whether path holds payload by same(golden, payload), its old
    bytes or None), printed; with write, a differing file is
    overwritten."""
    try:
        with open(path, "rb") as fh:
            golden = fh.read()
    except FileNotFoundError:
        golden = None
    ok = golden is not None and same(golden, payload)
    if ok:
        print(f"{path}: unchanged")
    elif write:
        with open(path, "wb") as fh:
            fh.write(payload)
        print(f"{path}: written")
    else:
        print(f"{path}: differs (run with --write to overwrite)")
    return ok, golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden files")
    args = parser.parse_args(argv)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    status = 0
    for suite, seed, full in golden_runs():
        code, payload = render_report(suite, seed, full)
        path = golden_path(suite, seed, full)
        if code != EXPECTED_EXIT[suite]:
            print(f"{path}: exit {code}, expected {EXPECTED_EXIT[suite]}",
                  file=sys.stderr)
            status = 1
        same, golden = _compare(path, payload,
                                functools.partial(reports_match, suite),
                                args.write)
        if not (same or args.write):
            status = 1
        if not same and golden is not None:
            for line in report_differences(suite, golden, payload):
                print(f"  {line}")
    same, _ = _compare(operator_golden_path(), render_operators(),
                       bytes.__eq__, args.write)
    if not (same or args.write):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
