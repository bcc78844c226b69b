"""List the functions of the package that no workload calls.

    python tests/reach.py [DIRECTORY]

Imports the package from DIRECTORY (default src/g2forge) in this
process, with G2FORGE_SEED unset, and runs under sys.setprofile what a
user runs, through the command line's main():

  run --suite all --random 5 --samples 10000 --format json
      with no --seed, so the seed takes its default;
  run --suite all --random 5 --samples 10000 --seed 1
      with the text report;
  eval q2, Q and hat on a 4-form, b2 on two, P on a 3-form, and
      project on a 2-, a 3- and a 4-form.

It then prints, sorted and one a line, every def in the package's
modules whose code never ran: module-level functions as module.name,
methods as Class.name, and a def nested in another as the enclosing
name, a dot and its own (aw.cubic_points.point).  A def is
matched to the code that ran by its file and its first line, the line
of its first decorator when it has one.  Exit codes and reports of the
runs are not checked here; the test suite checks them.

ALLOWED names the defs a run may leave unreached besides those the
package keeps for the benchmark alone (tests/test_hygiene.py,
BENCHMARK_ONLY), and compare() sets what a scan printed against such a
list.  tests/test_hygiene.py runs the scan in a fresh interpreter and
requires compare() to find nothing.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the defs a run reaches only when a check fails or a value is printed,
# or that give a value type its semantics
ALLOWED = frozenset({
    # failure paths: each builds the text of a raise, or is the raise
    "aw._sqrt10", "aw._where", "Su3Element.to_json",
    "cubic._route_error", "InconsistentSystemError.__init__",
    "g2.first_difference", "MultiPoly.first_difference",
    # printing
    "Form.__repr__", "Matrix.__repr__", "MultiPoly.__repr__",
    "QuadExt.__repr__", "GaussRational.__repr__", "GaussRational.__str__",
    "Su3Element.__repr__", "SymTensor.__repr__",
    # value semantics: a hashable value that defines __eq__, the
    # equalities of SymTensor and Matrix, without which == falls back to
    # identity, and a rational minus a field element, which no command
    # computes (tests/test_scalars.py pins it against the generic formula)
    "_QuadraticField.__hash__", "SymTensor.__eq__", "Matrix.__eq__",
    "_QuadraticField.__init_subclass__.rsub",
})

_RUN = ["run", "--suite", "all", "--random", "5", "--samples", "10000"]

# i(diag(1, -1, 0, 0, 0, 0, 0)) over 2, of pure 27 type, and its Hodge
# star over 3; a 2-form and a 4-form with parts of every type
_THREE = (3, {(1, 4, 5): "1/2", (1, 6, 7): "-1/2", (2, 4, 6): "-1/2",
              (2, 5, 7): "-1/2"})
_FOUR = (4, {(1, 3, 4, 6): "-1/3", (1, 3, 5, 7): "-1/3",
             (2, 3, 4, 5): "-1/3", (2, 3, 6, 7): "1/3"})
_MIXED_TWO = (2, {(1, 2): "1", (3, 4): "-2/3", (5, 7): "5"})
_MIXED_FOUR = (4, {(1, 2, 3, 4): "1", (1, 2, 6, 7): "-3/2",
                   (4, 5, 6, 7): "2"})


def _form_json(form) -> dict:
    """The wire form of a (grade, {indices: coefficient}) pair."""
    grade, terms = form
    return {"grade": grade, "terms": [
        {"indices": list(ix), "coeff": {"num": str(c.numerator),
                                        "den": str(c.denominator)}}
        for ix, c in ((ix, Fraction(c)) for ix, c in terms.items())]}


def defs(folder: Path) -> dict[tuple[str, int], str]:
    """{(file, first line): name} of every def in the modules of folder,
    named as the module docstring says."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[path, first] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, child.name)
            else:
                visit(child, path, prefix)

    for path in sorted(folder.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), path.stem)
    return out


def _workload(folder: Path, scratch: Path) -> None:
    """Imports the package from folder and runs the two runs and the
    eight evaluations, quietly."""
    sys.path.insert(0, str(folder.parent))
    from g2forge import cli
    if Path(cli.__file__).resolve().parent != folder:
        raise SystemExit(f"imported {cli.__file__}, not from {folder}")
    files = {}
    for name, form in (("three", _THREE), ("four", _FOUR),
                       ("two", _MIXED_TWO), ("mixed", _MIXED_FOUR)):
        files[name] = str(scratch / f"{name}.json")
        Path(files[name]).write_text(json.dumps(_form_json(form)))
    out = ["--output", os.devnull]
    commands = [_RUN + ["--format", "json"] + out,
                _RUN + ["--seed", "1"] + out]
    commands += [["eval", op, files["four"]] + out for op in ("q2", "Q")]
    commands += [["eval", "hat", files["mixed"]] + out,
                 ["eval", "b2", files["four"], files["mixed"]] + out,
                 ["eval", "P", files["three"]] + out]
    commands += [["eval", "project", files[name]] + out
                 for name in ("two", "three", "mixed")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            cli.main(argv)


def unreached(folder: Path) -> list[str]:
    """The names of the defs in folder that the workload never ran; the
    package is imported under the profile, so what its import runs
    counts as reached."""
    os.environ.pop("G2FORGE_SEED", None)
    folder = folder.resolve()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        sys.setprofile(profile)
        try:
            _workload(folder, Path(scratch))
        finally:
            sys.setprofile(None)
    started = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in ran}
    return sorted(name for key, name in defs(folder).items()
                  if key not in started)


def compare(found, listed) -> list[str]:
    """Each def a scan found unreached that listed lacks, and each listed
    name the scan did not find unreached: the run reached it, or no such
    def is left."""
    found, listed = set(found), set(listed)
    return ([f"unreached, not listed: {name}"
             for name in sorted(found - listed)]
            + [f"listed, not unreached: {name}"
               for name in sorted(listed - found)])


def main(argv: list[str]) -> int:
    folder = Path(argv[0]) if argv else ROOT / "src" / "g2forge"
    print("\n".join(unreached(folder)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
