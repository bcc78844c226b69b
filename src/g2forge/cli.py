"""Command-line runner for the verification suites and one-off evaluation.

Two subcommands:

  run   execute verification suites with machine-readable reports,
        exit 0 iff every check passes, 1 on any failure, 2 on usage
        errors.  Reports are byte-identical under a fixed seed; wall
        time goes to the diagnostic stream only, and with --timings
        PATH each check's wall time to a JSON side file.

  eval  apply one operator (q2, b2, Q, P, hat, project) to form files
        in the JSON schema of the exterior module and print the exact
        result as JSON.  Parse errors and precondition violations
        exit 2 with an explanation.

The seed defaults to the G2FORGE_SEED environment variable, then 0.

Only the eval core (exterior, g2, linalg, scalars) is imported here;
`eval` imports cubic for the four operators that run it (b2, q2, Q,
P), `run` imports the suites once its arguments are checked, and the
suites import cubic, aw and pairing only for the suites that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import DEFAULT_RANDOM, DEFAULT_SAMPLES, SUITE_NAMES
from . import exterior as ext
from .g2 import InternalConsistencyError, TypeDecompositionError, \
    standard_frame
from .linalg import InconsistentSystemError
from .scalars import ScalarError, scalar_to_json

EVAL_OPS = ("q2", "b2", "Q", "P", "hat", "project")


def _default_seed() -> int | None:
    """G2FORGE_SEED as an int, 0 when unset, None when malformed."""
    raw = os.environ.get("G2FORGE_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2forge",
        description="exact verification suites for the exceptional "
                    "3-form algebra and the homogeneous reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run verification suites",
        description="Run one suite or all of them; exit 0 iff every "
                    "check passes.")
    run_p.add_argument("--suite", default="all",
                       choices=("all",) + SUITE_NAMES,
                       help="which suite to run (default: all)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized checks "
                            "(default: $G2FORGE_SEED, then 0)")
    run_p.add_argument("--samples", type=int,
                       default=DEFAULT_SAMPLES,
                       help="Monte-Carlo sample count (default: 10^5, "
                            "minimum 10^4)")
    run_p.add_argument("--random", type=int, dest="n_random",
                       default=DEFAULT_RANDOM,
                       help="random instances per randomized identity "
                            "(default: 100)")
    run_p.add_argument("--format", choices=("text", "json"),
                       default="text", help="report format")
    run_p.add_argument("--output", metavar="PATH",
                       help="write the report to PATH instead of stdout")
    run_p.add_argument("--timings", metavar="PATH",
                       help="write each check's wall time in seconds to "
                            "PATH as one JSON object keyed by check id")

    eval_p = sub.add_parser(
        "eval", help="evaluate one operator on JSON form files",
        description="Apply q2, b2, Q, P, hat or project to forms "
                    "given as JSON files.")
    eval_p.add_argument("operation", choices=EVAL_OPS)
    eval_p.add_argument("files", nargs="+", metavar="FORM_FILE",
                        help="input form file(s); b2 takes two, the "
                             "rest take one")
    eval_p.add_argument("--output", metavar="PATH",
                        help="write the result to PATH instead of stdout")
    return parser


# -- run --------------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = []
    for sub in report["suites"]:
        lines.append(f"suite {sub['suite']} (seed {sub['seed']})")
        for chk in sub["checks"]:
            lines.append(f"  [{chk['status']}] {chk['id']}")
            lines.append(f"         {chk['anchor']}")
            if chk["status"] == "fail" or chk["expected"] != "as computed":
                lines.append(f"         expected: {chk['expected']}")
                lines.append(f"         actual:   {chk['actual']}")
        if "pairing" in sub:
            lines.append(f"  pairing: {sub['pairing']}"
                         f"  (first principles: "
                         f"{sub['first_principles_pairing']})")
            lines.append(f"  sign resolution: {sub['sign_resolution']}")
        npass = sum(1 for c in sub["checks"] if c["status"] == "pass")
        lines.append(f"  {npass}/{len(sub['checks'])} checks passed")
    lines.append("result: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _write_payload(payload: str, path: str | None) -> bool:
    """Write payload to path, or to stdout without one; False, with the
    reason on stderr, when path cannot be written."""
    if not path:
        sys.stdout.write(payload)
        return True
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"g2forge: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if seed is None:
        print(f"g2forge: bad G2FORGE_SEED value: "
              f"{os.environ['G2FORGE_SEED']!r}", file=sys.stderr)
        return 2
    if args.samples < 10 ** 4:
        print("g2forge: --samples must be at least 10^4", file=sys.stderr)
        return 2
    if args.n_random < 1:
        print("g2forge: --random must be positive", file=sys.stderr)
        return 2
    from . import suites
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    timings = {} if args.timings else None
    started = time.monotonic()
    report = suites.run_suites(names, seed, n_random=args.n_random,
                               samples=args.samples, timings=timings)
    elapsed = time.monotonic() - started
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        payload = _render_text(report)
    if not _write_payload(payload, args.output):
        return 2
    if timings is not None and not _write_payload(
            json.dumps(timings, indent=2, sort_keys=True) + "\n",
            args.timings):
        return 2
    print(f"g2forge: {'+'.join(names)} finished in {elapsed:.2f} s",
          file=sys.stderr)
    # tell a new failure from the documented ones of the ledger
    for sub in report["suites"]:
        failing = [c["id"] for c in sub["checks"] if c["status"] == "fail"]
        if not failing:
            continue
        new = [cid for cid in failing if cid not in suites.AW_BY_DESIGN]
        ledger = ("all in suites.AW_BY_DESIGN" if not new else
                  f"{len(failing) - len(new)} in suites.AW_BY_DESIGN; "
                  f"not in it: {', '.join(new)}")
        print(f"g2forge: {sub['suite']}: {len(failing)} failing checks, "
              f"{ledger}", file=sys.stderr)
    return 0 if report["passed"] else 1


# -- eval -------------------------------------------------------------------

def _load_form(path: str) -> ext.Form:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}")
    try:
        return ext.form_from_json(data)
    except (ext.FormError, ScalarError, ValueError) as exc:
        raise _UsageError(f"{path}: {exc}")


class _UsageError(Exception):
    pass


def _eval_operation(op: str, forms: list[ext.Form]) -> dict:
    fr = standard_frame()
    if op in ("b2", "q2", "Q", "P"):
        from . import cubic as cubicmod
    if op == "b2":
        if len(forms) != 2:
            raise _UsageError("b2 takes exactly two 4-form files")
        result = cubicmod.b2(forms[0], forms[1], fr)
        return {"result": ext.form_to_json(result)}
    if len(forms) != 1:
        raise _UsageError(f"{op} takes exactly one form file")
    a = forms[0]
    if op == "q2":
        return {"result": ext.form_to_json(cubicmod.q2(a, fr))}
    if op == "Q":
        return {"result": scalar_to_json(cubicmod.q_value(a, fr))}
    if op == "P":
        # the section-normalized cubic <p(b,b), i^{-1}(b)>; the cocycle
        # route carries an overall factor 2, asserted on the way
        value = cubicmod.p_value(a, fr)
        return {"result": scalar_to_json(value * Fraction(1, 2))}
    if op == "hat":
        return {"result": ext.form_to_json(fr.hat(a))}
    if op == "project":
        if a.grade == 2:
            parts = fr.project2(a)
            labels = ("7", "14")
        elif a.grade == 3:
            parts = fr.project3(a)
            labels = ("1", "7", "27")
        elif a.grade == 4:
            parts = fr.project4(a)
            labels = ("1", "7", "27")
        else:
            raise _UsageError("project needs a form of grade 2, 3 or 4")
        return {"result": {lab: ext.form_to_json(p)
                           for lab, p in zip(labels, parts)}}
    raise _UsageError(f"unknown operation {op!r}")


def _cmd_eval(args) -> int:
    try:
        forms = [_load_form(p) for p in args.files]
        body = _eval_operation(args.operation, forms)
    except _UsageError as exc:
        print(f"g2forge: {exc}", file=sys.stderr)
        return 2
    except (ext.FormError, ext.GradeError, TypeDecompositionError,
            ScalarError, InconsistentSystemError) as exc:
        print(f"g2forge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"g2forge: internal consistency failure: {exc}",
              file=sys.stderr)
        return 1
    payload = json.dumps({"operation": args.operation, **body},
                         indent=2, sort_keys=True) + "\n"
    return 0 if _write_payload(payload, args.output) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
