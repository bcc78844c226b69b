"""The mutant registry: named defects written into the package in a fresh
interpreter, the checks each one runs and what they record.

    python tests/mutants.py

reruns every entry, prints each one whose outcome differs from its
record, then the check ids that no caught entry fails (coverage), and
exits 1 if any entry differs.  It takes no options.

An entry (Mutant) holds a short patch, Python source run in a fresh
interpreter before anything reads the names it patches; its runs, the
suites at seed 1 with their sizes or one `g2forge run` argv; an
optional probe, source that sets `out` to a JSON value; and its
record.  The record is one of the three outcomes of mutation analysis:

  caught      the failing check ids, with the `actual` texts pinned
              where a check's text is the evidence, the exit code of a
              CLI run and the probe's value;
  equivalent  no check fails, and `why` says why none can;
  gap         no check fails though the defect changes a result, and
              `why` names the ROADMAP item that must close it.

Ledger ids (suites.AW_BY_DESIGN) are pinned like any other: all of
them, or the set minus the rows a raising sweep never reaches.  A
record is data; where an expected text must be derived from the
unpatched package, the entry carries a `check` on the result instead.

A patch sets names as `module.name = ...` or `Class.name = ...`,
rewrites a def with `rewrite(owner, name, old, new)` and negates one
table item with `negate(table, key, index)`; tests/test_mutants.py
requires each set name to exist, each rewritten anchor to occur once
and each pinned id to appear in a golden report, without running an
entry.  The entries with `tier1` set run in the test suite, one test
case each; the rest run in the script form only.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
if SRC not in sys.path:  # the script form
    sys.path.insert(0, SRC)

from g2forge.aw import Su3Element  # noqa: E402
from g2forge.cubic import q_value  # noqa: E402
from g2forge.exterior import form_from_json, form_to_json  # noqa: E402
from g2forge.g2 import standard_frame  # noqa: E402
from g2forge.suites import AW_BY_DESIGN as LEDGER  # noqa: E402

import reference  # noqa: E402

OUTCOMES = ("caught", "equivalent", "gap")


def rewrite(owner, name, old, new):
    """Bind at owner.name its def with the one occurrence of old replaced
    by new, compiled in the globals of the def's module.  Its source
    runs in the entry's interpreter, which imports what it needs only
    when a patch calls it."""
    import __future__, inspect, textwrap
    fn = inspect.unwrap(getattr(owner, name))
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    if source.count(old) != 1:
        raise LookupError(f"{name}: {old!r} occurs {source.count(old)} times")
    scope = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                 flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), fn.__globals__, scope)
    setattr(owner, name, scope[name])


def negate(table, key, index=0):
    """Negate the last member, a sign or a coefficient, of item index of
    the tuple table[key]."""
    row = table[key]
    *head, c = row[index]
    table[key] = (*row[:index], (*head, -c), *row[index + 1:])


@dataclass(frozen=True)
class Mutant:
    """One entry: its name, patch and outcome, its runs (suites with
    sizes, or argv), probe and input files, and its record (failed,
    actual, exit, out, check, why); tier1 runs it in the test suite."""

    name: str
    patch: str
    outcome: str
    suites: tuple = ()
    sizes: dict = field(default_factory=dict)
    argv: tuple = ()
    probe: str = ""
    files: dict = field(default_factory=dict)
    failed: frozenset = frozenset()
    actual: dict = field(default_factory=dict)
    exit: int | None = None
    out: object = None
    check: Callable | None = None
    why: str = ""
    tier1: bool = False


_RUN_SUITES = """
from g2forge import suites
checks = [c for r in suites.run_suites({names!r}, 1, **{sizes!r})["suites"]
          for c in r["checks"]]
"""
_RUN_CLI = """
from g2forge import cli
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(err):
    code = cli.main({argv!r} + ["--format", "json", "--output", "report.json"])
err = err.getvalue()
with open("report.json") as fh:
    checks = [c for r in json.load(fh)["suites"] for c in r["checks"]]
"""
_PRINT = """
print(json.dumps({"failed": {c["id"]: c["actual"] for c in checks
                             if c["status"] == "fail"},
                  "exit": code, "stderr": err, "out": out}))
"""


def script(entry: Mutant) -> str:
    """The source the runner runs for entry: the patch helpers, the
    patch, the runs and the probe, then one JSON line with the failing
    ids and their actuals, the CLI's exit code and stderr and the
    probe's value."""
    return "\n".join([
        "import contextlib, io, json, sys",
        "ROOT = sys.argv[1]",
        "checks, code, err, out = [], None, '', None",
        inspect.getsource(rewrite), inspect.getsource(negate),
        textwrap.dedent(entry.patch),
        _RUN_SUITES.format(names=list(entry.suites), sizes=entry.sizes)
        if entry.suites else "",
        _RUN_CLI.format(argv=list(entry.argv)) if entry.argv else "",
        textwrap.dedent(entry.probe), _PRINT])


def run(entry: Mutant) -> dict:
    """Run entry in a fresh interpreter with PYTHONPATH=src in a
    temporary working directory that holds the entry's files: the
    failing ids with their actuals, the exit code and stderr of a CLI
    run and the probe's value, or {"error": stderr} when the process
    itself fails."""
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in entry.files.items():
            Path(cwd, name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", script(entry), str(ROOT)],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
            capture_output=True, text=True)
    return json.loads(proc.stdout) if proc.returncode == 0 \
        else {"error": proc.stderr}


def differences(entry: Mutant, got: dict) -> list[str]:
    """How the result got of running entry differs from its record, one
    line each; empty when it matches."""
    if "error" in got:
        return ["the process failed: " + got["error"].strip()]
    failed = set(got["failed"])
    out = [f"failing ids: {sorted(failed - entry.failed)} more, "
           f"{sorted(entry.failed - failed)} fewer"] \
        if failed != entry.failed else []
    out += [f"{cid} reads {got['failed'].get(cid)!r}, pinned {text!r}"
            for cid, text in entry.actual.items()
            if got["failed"].get(cid) != text]
    if entry.argv and got["exit"] != entry.exit:
        out.append(f"exit {got['exit']}, pinned {entry.exit}")
    if entry.probe and got["out"] != entry.out:
        out.append(f"probe {got['out']!r}, pinned {entry.out!r}")
    out += entry.check(got) if entry.check else []
    if entry.outcome != "caught" and failed - LEDGER:
        out.append(f"a {entry.outcome} entry is caught: move its record "
                   f"({entry.why})")
    return out


def ids(**by_suite) -> frozenset:
    """The check ids suite.name, the names of each suite given as one
    space-separated string."""
    return frozenset(f"{suite}.{name}" for suite, names in by_suite.items()
                     for name in names.split())


def at(v, x) -> str:
    """' at ' and the JSON of the su(3) element (v, x), as a raise that
    names the element ends."""
    return " at " + json.dumps(Su3Element(v, x).to_json())


# the aw ids that fail by design and that a raising sweep leaves out:
# the block-products sweep raises before its rows exist, and under some
# mutants so does the tensor-displays sweep
BLOCK_ROWS = ids(aw="block-product.p(phitilde,C(x)) "
                 "block-product.p(y^Omega,C(x))")
DISPLAY_ROWS = ids(aw="tensor-display.p(phitilde,C(x))=-4I_ax.e_a "
                   "tensor-display.p(y^Omega,C(x))=6y.Jx "
                   "tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax")
# the five pairing checks that read the pairing report, all of which a
# raise in its build fails, and with them the four that read
# interpolated P alone: every pairing check that a raise in P's build
# reaches.  A report that builds fails only the readers of a value that
# moved, for example the three that read the component polynomials
P_VALUES = ids(pairing="closed-assembly component-values "
               "first-principles-nonzero idet-self montecarlo-agreement")
P_READERS = P_VALUES | ids(pairing="montecarlo-deterministic "
                           "montecarlo-scaling p-poly-real pure-z-support")
COMPONENT_READERS = ids(pairing="closed-assembly component-values "
                        "first-principles-nonzero")
CUBIC_3 = ids(cubic="q-and-p-displays trilinear-routes trilinear-symmetry")
EXTERIOR_3 = ids(exterior="contraction-antiderivation hodge-involution "
                 "metric-recovery")

FIVE = ("exterior", "g2", "cubic", "aw", "pairing")
SMALL = {"n_random": 5}
SMALL_MC = {"n_random": 5, "samples": 10 ** 4}
AW_RUN = ("run", "--suite", "aw", "--seed", "1", "--random", "1")

# the two-route P on the first 30 elements of the benchmark's su3 stream
# at seed 1: True where it equals single_route's value, else its raise
_SU3_STREAM = """
sys.path.insert(0, ROOT + "/perfbench")
import workloads
from g2forge import aw
out = []
for xi in workloads.su3_inputs(1, 30)[1]:
    one = aw.first_principles_value(xi, single_route=True)
    try:
        out.append(str(aw.first_principles_value(xi) == one))
    except aw.InternalConsistencyError as exc:
        out.append(str(exc))
"""
_ASYMMETRIC = "block trilinear table is not fully symmetric: "


def _pair_flip(mask, index, broken=None, **record):
    """One sign of the grade-3 pair table flipped, the triple at index of
    the blade mask.  A flip that breaks the symmetry of T on the block
    basis makes every two-route P raise the table build's text, which
    names the entries; one that keeps T symmetric leaves the two routes
    agreeing."""
    out = ["True"] * 30 if broken is None else [_ASYMMETRIC + broken] * 30
    return Mutant(f"pair-table-flip-{mask}-{index}", "from g2forge import "
                  f"cubic; negate(cubic._pair_table(3), {mask}, {index})",
                  "caught", probe=_SU3_STREAM, out=out, tier1=True, **record)


def _odd_below_flip(mask, bit, **record):
    """One bit of the parity table flipped, the Hodge signs rederived
    from it, before anything reads either."""
    return Mutant(f"odd-below-flip-{mask}-{bit}", f"""
        from g2forge import exterior as ext
        ext._ODD_BELOW = tuple(b ^ (1 << {bit}) if m == {mask} else b
                               for m, b in enumerate(ext._ODD_BELOW))
        ext._HODGE_SIGN = tuple(ext.merge_sign(m, ext.FULL_MASK ^ m)
                                for m in range(128))
        """, "caught", **record)


# eval Q's input: a = S * psi for S = diag(2, -1, -1, 1, 0, -1, 0)
_FORM_A = json.dumps({"grade": 4, "terms": [
    {"indices": list(blade), "coeff": {"num": str(c), "den": "1"}}
    for blade, c in (((1, 2, 4, 7), -2), ((1, 3, 4, 6), 1), ((1, 3, 5, 7), 1),
                     ((2, 3, 4, 5), 1), ((2, 3, 6, 7), -3))]})


def _q_routes_named(got) -> list[str]:
    """The failed cubic.q-and-p-displays names both routes to Q at its
    first form, *b for its first random b: on an int form a the tensor
    route reads Q(a) - p(a, a)_11 under the mutant."""
    actual = got["failed"].get("cubic.q-and-p-displays")
    if actual is None:  # the failing ids say so
        return []
    a = form_from_json(json.loads(actual.rpartition(" at ")[2]))
    wedge = q_value(a, standard_frame())
    tensor = wedge - reference.quadratic_form(a, a).entries[0][0]
    want = (f"InternalConsistencyError: the two routes to Q disagree: wedge "
            f"{wedge}, tensor {tensor} at {json.dumps(form_to_json(a))}")
    return [] if actual == want else [
        f"cubic.q-and-p-displays reads {actual!r}, want {want!r}"]


REGISTRY: tuple[Mutant, ...] = (
    # digits two bits wide: the cubic's coefficients overflow them, and
    # the two-route call raises with the native value, which is not P
    Mutant("narrow-digits", "from g2forge import aw; "
           "aw._digit_bits = lambda u, w: 2", "caught", argv=AW_RUN, probe="""
        try:
            aw.first_principles_value(
                aw.Su3Element((1, -3, 2), (2, -1, 4, 0, -3, 1)))
        except aw.InternalConsistencyError as exc:
            out = str(exc)
        """, exit=1, failed=LEDGER | ids(aw="value-two-routes"),
        actual={"aw.value-two-routes": "InternalConsistencyError: P has a "
                "sqrt(10) component: native 0 + -2885/72 sqrt(10), even/odd "
                "-11075/18 + 0 sqrt(10)"
                + at((1, 3, -4), (-3, -2, 0, -3, -1, -1))},
        out="P has a sqrt(10) component: native 0 + -5695/72 sqrt(10), "
            "even/odd -2645/9 + 0 sqrt(10)"
            + at((1, -3, 2), (2, -1, 4, 0, -3, 1)),
        tier1=True),
    _pair_flip(7, 1, "T(0, 5, 5) = 21, T(5, 5, 0) = 33"),
    # the same flip under the aw suite: every aw record that reads the
    # block table, and only those, records the build's raise
    Mutant("asymmetric-table-build", "from g2forge import cubic; "
           "negate(cubic._pair_table(3), 7, 1)", "caught", suites=("aw",),
           sizes=SMALL, tier1=True, failed=LEDGER - BLOCK_ROWS | ids(
               aw="block-products revert-map value-two-routes "
               "tensor-display.p(phitilde,C(x))=-4I_ax.e_a.corrected"),
           actual={**dict.fromkeys(ids(
               aw="block-products closed-display generic-sum-display "
               "pairing-vs-displays revert-map value-two-routes"),
               "InternalConsistencyError: " + _ASYMMETRIC
               + "T(0, 5, 5) = 21, T(5, 5, 0) = 33"),
               **dict.fromkeys(DISPLAY_ROWS, "fails at basis points; "
                               "corrected form verified"),
               "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a":
                   "fails at basis points; corrected form also fails",
               "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a"
               ".corrected": "fails"}),
    _pair_flip(42, 2, "T(0, 7, 7) = 27, T(7, 7, 0) = 33"),
    _pair_flip(21, 10, "T(2, 4, 7) = 5, T(4, 7, 2) = 6"),
    # the kernel split that the table split replaced missed this one at
    # all 30 elements
    _pair_flip(52, 5, "T(0, 0, 1) = 1, T(0, 1, 0) = 0"),
    # T stays symmetric: of the cubic and aw suites only the cubic suite,
    # whose routes read no pair table, catches these two
    _pair_flip(11, 9, suites=("cubic", "aw"), sizes=SMALL,
               failed=LEDGER | CUBIC_3),
    _pair_flip(13, 8, suites=("cubic", "aw"), sizes=SMALL,
               failed=LEDGER | CUBIC_3),
    # the e_1 term of the formula side ia2 = 2 e_a . I_a x, I_1 x = x -|
    # omega_1, with its sign flipped: the corrected twins of the two
    # displays that read ia2 fail
    Mutant("display-table-ia2", "from g2forge import aw; rewrite(aw, "
           "'_display_sides', '[(coords_of(contract(xf, w)),', "
           "'[([-t for t in coords_of(contract(xf, w))] if a == 0 "
           "else coords_of(contract(xf, w)),')",
           "caught", argv=AW_RUN, exit=1, failed=LEDGER | ids(aw=(
               "tensor-display.p(phitilde,C(x))=-4I_ax.e_a.corrected "
               "tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax.corrected")),
           tier1=True),
    # the e45 term of omega_1 with its sign flipped in R's metric route
    # alone, so that x -| omega_1 is wrong there: R's routes disagree at
    # the symbolic point, the raise naming the first monomial where they
    # differ and its two coefficients
    Mutant("display-table-r-metric", "from g2forge import aw; rewrite(aw, "
           "'_r', 'zip(z[1:4], fr.omega)', "
           "'zip(z[1:4], (fr.omega[0] - 2 * blade([4, 5]), *fr.omega[1:]))')",
           "caught", argv=AW_RUN, exit=1,
           failed=LEDGER - BLOCK_ROWS | ids(aw="block-products revert-map"),
           actual={"aw.block-products": "InternalConsistencyError: R display "
                   "disagrees with g(Jx, I_y x): metric -1, display 1 at "
                   "x4*x4*y1"},
           tier1=True),
    # the display side J I_y with its sign flipped: the two displays that
    # read it fail, and nothing else reads it
    Mutant("display-jiy-negated", "from g2forge import aw; rewrite(aw, "
           "'_display_sides', 't + y[a] * col[j][i]', 't - y[a] * col[j][i]')",
           "caught", argv=AW_RUN, exit=1, failed=LEDGER | ids(aw=(
               "tensor-display.p(phitilde,y^Omega)=-JI_y "
               "tensor-display.i^{-1}(y^Omega)=-(1/2)JI_y")), tier1=True),
    # the constant display of i^{-1}(phitilde) with the sign of its id3
    # term flipped, +2 id3 + (3/2) id4
    Mutant("display-inverse-phitilde-sign", "from g2forge import aw; "
           "rewrite(aw, 'tensor_displays', '_blocks_id(-4, 3)', "
           "'_blocks_id(4, 3)')", "caught", argv=AW_RUN, exit=1,
           failed=LEDGER | ids(
               aw="tensor-display.i^{-1}(phitilde)=-2id3+(3/2)id4"),
           tier1=True),
    # y1 and x4 swapped in the symbolic point: a change of variables
    Mutant("symbolic-point-permuted", """
        from g2forge import aw
        point = aw._symbolic_point
        aw._symbolic_point = lambda: (
            lambda z: (z[0], z[4], *z[2:4], z[1], *z[5:]))(point())
        """, "equivalent", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER,
        why="the sweeps and fits are identities of polynomials, and an "
            "identity holds in any variables: every side of a comparison "
            "is evaluated at the same permuted point", tier1=True),
    # the mix alone evaluated with y1 and y2 swapped, off the symbolic
    # point that the other sides read: the corrected form of p(y^Omega,
    # C(x)) fails, where symbolic-point-permuted moves every side at once
    Mutant("mix-off-the-point", "from g2forge import aw; rewrite(aw, "
           "'_display_sides', '_epsilon_mix(z)', "
           "'_epsilon_mix((z[0], z[2], z[1], *z[3:]))')", "caught",
           argv=AW_RUN, exit=1,
           failed=LEDGER | ids(aw="tensor-display.p(y^Omega,C(x))=6y.Jx"
                               ".corrected"),
           actual={"aw.tensor-display.p(y^Omega,C(x))=6y.Jx": "fails at "
                   "basis points; corrected form also fails"}, tier1=True),
    # Y = -5/3 -> -4/3 at the owner alone: every reader of A(xi)'s
    # coefficients moves with it, so every two-route check agrees while
    # <P, i det> moves from 760/3 to 196
    Mutant("family-y", "from fractions import Fraction; from g2forge import "
           "aw; aw.FAMILY = (Fraction(-4, 3), aw.FAMILY[1])", "gap",
           suites=("aw",), sizes=SMALL, probe="""
        from g2forge import pairing
        out = [str(pairing.pairing_report()["first_principles_pairing"]),
               aw._family_ints()]
        """, failed=LEDGER, out=["196", [[3, -4, -8, 1], 6]],
        why="ROADMAP item 13: derive (Y, K) from the geometry of N(1,1)",
        tier1=True),
    # pairing imports block_coords by name, so both names are patched; the
    # sweeps and fits take block coordinates directly and pass, and so do
    # the pairing checks of P, i det and the Monte Carlo, which read no
    # component polynomial
    Mutant("block-coords-swap-x5-x6", """
        from g2forge import aw, pairing
        right = aw.block_coords
        aw.block_coords = pairing.block_coords = lambda s, y, x: (
            lambda z: z[:5] + [z[6], z[5]] + z[7:])(right(s, y, x))
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER | COMPONENT_READERS | ids(
            aw="decompose-roundtrip value-two-routes"), tier1=True),
    # a Lambda^3_7 part, kappa_2 = e_2 -| psi, in each C(e_i), which the
    # one gate at block_basis catches
    Mutant("block-basis-stray-kappa", """
        from g2forge import aw, g2
        c_of, stray = aw.c_of, g2.standard_frame().kappa[1]
        aw.c_of = lambda x: c_of(x) + stray
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER - BLOCK_ROWS - DISPLAY_ROWS | P_READERS | ids(
            aw="block-products decompose-roundtrip revert-map "
            "tensor-displays value-two-routes"),
        actual={"aw.block-products": "TypeDecompositionError: block basis "
                "is not of pure 27 type"}, tier1=True),
    # a blade's coefficient overwritten, not added to, where blades of the
    # basis overlap (phitilde with the e_a ^ Omega)
    Mutant("on-basis-overwrites", "from g2forge import aw; rewrite(aw, "
           "'_on_basis', 'terms[m] = terms.get(m, 0) + c * t', "
           "'terms[m] = c * t')", "caught", suites=("aw", "pairing"),
           sizes=SMALL_MC, failed=LEDGER - BLOCK_ROWS | P_READERS | ids(
               aw="block-products decompose-roundtrip value-two-routes"),
           actual={"aw.block-products": "InternalConsistencyError: recovered "
                   "tensor is not traceless: trace (8)*s"}, tier1=True),
    # the native route to P off by one in its numerator cubic: the
    # two-route check names both routes' P, the native one the table's
    # plus 1 / (2 d^3), and the element
    Mutant("native-p-off-by-one", """
        from g2forge import aw
        numerator = aw.p_numerator
        aw.p_numerator = lambda n, inv: numerator(n, inv) + 1
        """, "caught", argv=AW_RUN, exit=1,
        failed=LEDGER | ids(aw="value-two-routes"),
        actual={"aw.value-two-routes": "InternalConsistencyError: the two "
                "routes to P disagree: native -265799/432 + 0 sqrt(10), "
                "even/odd -11075/18 + 0 sqrt(10)"
                + at((1, 3, -4), (-3, -2, 0, -3, -1, -1))},
        tier1=True),
    # the block fit pushed through the reparametrization with R doubled:
    # aw.revert-map records both fits
    Mutant("revert-fit-r-doubled", """
        from g2forge import aw
        revert = aw.revert_block_fit
        aw.revert_block_fit = lambda c: revert(c[:3] + (2 * c[3],))
        """, "caught", argv=AW_RUN, exit=1,
        failed=LEDGER | ids(aw="revert-map"),
        actual={"aw.revert-map": "pushed (-210, 55/2, 50/3, 125/9); direct "
                "(-210, 55/2, 50/3, 125/18)"},
        tier1=True),
    # every product the block table assembles doubled (a scale: an added
    # constant is no polynomial of the homogeneous symbolic point): the
    # products and their sum fail on the table route, and nothing else
    # reads the products, so every other check keeps its record
    Mutant("table-products-doubled", """
        from g2forge import aw
        products = aw._BlockTables.products
        aw._BlockTables.products = lambda self, z: tuple(
            2 * p for p in products(self, z))
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER | ids(aw="block-product.p(phitilde,phitilde) "
                            "block-product.p(phitilde,y^Omega) "
                            "block-product.p(phitilde,C(x)).corrected "
                            "block-product.p(y^Omega,y^Omega) "
                            "block-product.p(y^Omega,C(x)).corrected "
                            "block-product.p(C(x),C(x)) "
                            "block-product.sumwithmultiplicities"),
        actual=dict.fromkeys(BLOCK_ROWS, "differs; corrected value fails"),
        tier1=True),
    # the displayed construction of C negated: aw.dual-constructions, the
    # one reader of c_display, fails and names the first blade where the
    # two constructions differ; the block basis reads c_direct
    Mutant("c-display-negated", """
        from g2forge import aw
        display = aw.c_display
        aw.c_display = lambda x: -display(x)
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER | ids(aw="dual-constructions"),
        actual={"aw.dual-constructions": "e124 is (-1)*x7, not (1)*x7"},
        tier1=True),
    # the first diagonal entry of every i^{-1} triangle off by one: Q's
    # tensor route disagrees with its wedge, and the cubic suite and eval Q
    # each name both values and the input form
    Mutant("inverse-diagonal-off-by-one", """
        from g2forge.g2 import G2Frame
        inverse = G2Frame.iso_i_inv_upper
        G2Frame.iso_i_inv_upper = lambda self, n: (
            lambda upper: [upper[0] + 1] + upper[1:])(inverse(self, n))
        """, "caught",
        argv=("run", "--suite", "cubic", "--seed", "1", "--random", "1"),
        probe="""
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            out = [cli.main(["eval", "Q", "form.json"]), buf.getvalue()]
        """, files={"form.json": _FORM_A}, exit=1,
        failed=ids(cubic="q-and-p-displays"), check=_q_routes_named,
        out=[1, "g2forge: internal consistency failure: the two routes to Q "
             f"disagree: wedge -36, tensor -42 at {_FORM_A}\n"], tier1=True),
    # wedge, contraction, the Hodge star and the cubic's sign tables all
    # read the one parity table
    _odd_below_flip(3, 5, suites=FIVE[:3], sizes=SMALL,
                    failed=CUBIC_3 | EXTERIOR_3, tier1=True),
    _odd_below_flip(10, 6, suites=FIVE[:3], sizes=SMALL,
                    failed=CUBIC_3 | EXTERIOR_3, tier1=True),
    # entry (0, 6), position 6 of the triangle, weighed once, not twice
    Mutant("upper-inner-entry-0-6", """
        from g2forge import aw, cubic, linalg, suites
        inner = linalg.upper_inner
        linalg.upper_inner = cubic.upper_inner = aw.upper_inner = \\
            suites.upper_inner = lambda u1, u2: inner(u1, u2) - u1[6] * u2[6]
        """, "caught", suites=FIVE[:4], sizes=SMALL,
        failed=LEDGER - BLOCK_ROWS | CUBIC_3 | ids(
            g2="iso-identities", aw="block-products revert-map "
            "value-two-routes"), tier1=True),
    # the diagonal entry (6, 6) read at position 26, which is (5, 6):
    # caught by the traceless gates of iso_i, is_pure27 and iso_i_inv_upper
    Mutant("diagonal-position", "from g2forge import cubic, g2, linalg; "
           "linalg.DIAGONAL = cubic.DIAGONAL = g2.DIAGONAL = "
           "linalg.DIAGONAL[:-1] + (26,)", "caught", suites=FIVE[:4],
           sizes=SMALL,
           failed=LEDGER - BLOCK_ROWS - DISPLAY_ROWS | CUBIC_3 | ids(
               g2="iso-identities iso-inner-product iso-inverse-roundtrip",
               cubic="q2-closed-form", aw="block-products revert-map "
               "tensor-displays value-two-routes"), tier1=True),
    # p r + f r_pivot, invertible, so the row space stays, but the pivot
    # column is left uncleared: the g2 type ranks and the Gram table's
    # grow; the fits read their cubics at the symbolic point and run no
    # elimination
    Mutant("eliminate-plus", "from g2forge import linalg; rewrite(linalg, "
           "'_eliminate', 'p * x - f * y', 'p * x + f * y')", "caught",
           suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
               g2="type-dimensions",
               pairing="gram-from-killing gram-v-rank"), tier1=True),

    # the JSON reader drops a form's last term: the codec's round trip is
    # the one check that reads JSON
    Mutant("json-drops-last-term", "from g2forge import exterior as ext; "
           "rewrite(ext, 'form_from_json', 'for entry in data[\"terms\"]:', "
           "'for entry in data[\"terms\"][:-1]:')", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(exterior="json-roundtrip"),
           tier1=True),
    # wedge's sign flipped when its first factor is a 0-form alone: graded
    # commutativity fails, and so does the antiderivation rule, whose
    # (v -| a) ^ b has a 0-form first factor for a vector a
    Mutant("wedge-scalar-first-sign", "from g2forge import exterior as ext; "
           "rewrite(ext, 'wedge', '* c1 * c2', "
           "'* c1 * c2 * (-1 if a.grade == 0 else 1)')", "caught",
           suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
               exterior="contraction-antiderivation wedge-algebra"),
           tier1=True),

    # the determinant route to i det doubled: pairing.idet-construction,
    # the one comparison of the two routes, fails alone, since the
    # pairing report pairs the displayed i det
    Mutant("idet-determinant-doubled", """
        from g2forge import pairing
        determinant = pairing.idet_determinant_poly
        pairing.idet_determinant_poly = lambda: 2 * determinant()
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER | ids(pairing="idet-construction"), tier1=True),
    # <i det, i det> negated where the report pairs i det with itself:
    # pairing.idet-self alone judges its sign and records the value, and
    # the Monte-Carlo prediction, which divides by it, misses
    Mutant("idet-self-negated", """
        from g2forge import pairing
        inner = pairing.sym_inner_poly
        pairing.sym_inner_poly = lambda p, q: (
            -inner(p, q) if p is q else inner(p, q))
        """, "caught", suites=("aw", "pairing"), sizes=SMALL_MC,
        failed=LEDGER | ids(pairing="idet-self montecarlo-agreement"),
        actual={"pairing.idet-self": "-320/9"}, tier1=True),

    # the entries below run against the five suites at seed 1 with
    # n_random=5 and samples=10^4, in the script form only unless marked
    # tier1
    _odd_below_flip(96, 2, suites=FIVE, sizes=SMALL_MC,
                    failed=LEDGER - BLOCK_ROWS - DISPLAY_ROWS | P_READERS
                    | EXTERIOR_3 | CUBIC_3 | ids(
                        aw="block-products decompose-roundtrip revert-map "
                        "tensor-displays value-two-routes")),
    _odd_below_flip(7, 4, suites=FIVE, sizes=SMALL_MC, failed=LEDGER
                    | EXTERIOR_3 | ids(
                        exterior="hodge-phi",
                        g2="hat-defining-identity hat-of-psi iso-identities",
                        cubic="b2-solve q-and-p-displays q2-closed-form "
                        "trilinear-routes")),
    # the g2 frame's build fails, so every check that reads it records its
    # raise
    _odd_below_flip(21, 3, suites=FIVE, sizes=SMALL_MC,
                    failed=LEDGER - BLOCK_ROWS - DISPLAY_ROWS | P_READERS
                    | EXTERIOR_3 | CUBIC_3 | ids(
                        exterior="hodge-phi structure-norms",
                        g2="hat-defining-identity hat-of-psi iso-identities "
                        "iso-inner-product iso-inverse-roundtrip pairing-rank "
                        "projector-algebra type-dimensions type-gate "
                        "vector-extraction",
                        cubic="b2-solve q2-closed-form",
                        aw="block-products decompose-roundtrip "
                        "dual-constructions quaternionic-relations "
                        "revert-map tensor-displays value-two-routes"),
                    actual={"g2.pairing-rank": "InternalConsistencyError: "
                            "M^T M is not 16 P1 + 6 P7 + 2 P27 on the "
                            "pairing matrix: M^T M a = 16 a fails on the "
                            "type-1 probe a: e123 is 14, not 16"}),
    # the Hodge sign of e1234 flipped alone
    Mutant("hodge-sign-e1234", "from g2forge import exterior as ext; "
           "ext._HODGE_SIGN = tuple(-s if m == 15 else s "
           "for m, s in enumerate(ext._HODGE_SIGN))", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(
               exterior="hodge-involution",
               g2="hat-defining-identity iso-identities",
               cubic="b2-solve q-and-p-displays q2-closed-form "
               "trilinear-routes")),
    # a wrong Gram entry moves the prediction by about 6 standard errors
    # at 10^4 samples, so whether montecarlo-agreement fails is the
    # seeded draw's call; the four exact checks catch it
    Mutant("gram-v1-v2", "from fractions import Fraction; from g2forge "
           "import pairing; pairing.GRAM[('v1', 'v2')] = Fraction(-1, 3)",
           "caught", suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
               pairing="closed-assembly component-values gram-from-killing "
               "gram-v-rank")),
    # the permanent without its identity permutation
    Mutant("permanent-drops-identity", "from g2forge import pairing; "
           "rewrite(pairing, 'permanent', 'itertools.permutations(range(n))', "
           "'list(itertools.permutations(range(n)))[1:]')", "caught",
           suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
               pairing="closed-assembly component-values permanent-examples")),
    # the Monte Carlo's agreement check fails, not its determinism and
    # scaling checks; the report pairs the displayed i det, which reads no
    # map, so P against its model and <i det, i det> hold
    Mutant("z-entries-swap-z1-z2", "from g2forge import pairing; "
           "z1, z2, z3 = pairing.Z_ENTRIES; pairing.Z_ENTRIES = (z2, z1, z3)",
           "caught", suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
               aw="idet-two-routes", pairing="closed-assembly "
               "component-values idet-construction montecarlo-agreement")),
    # the type-27 gate admits every 3-form: only g2.type-gate gives a gate
    # a form with a 1- or 7-part
    Mutant("is-pure27-always", "from g2forge.g2 import G2Frame; "
           "G2Frame.is_pure27 = lambda self, b: True", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(g2="type-gate"),
           actual={"g2.type-gate": "0 of 8 rejected, 0 of 8 raise"}),
    Mutant("decompose-y2-sign", "from g2forge import aw; "
           "rewrite(aw, 'decompose', '-c[0], c[1]', '-c[0], -c[1]')",
           "caught", suites=FIVE, sizes=SMALL_MC, failed=LEDGER
           | COMPONENT_READERS | ids(aw="decompose-roundtrip "
                                     "value-two-routes")),
    # entry (0, 0) of every p triangle doubled
    Mutant("quadratic-upper-entry-0-0", """
        from g2forge import aw, cubic
        upper = cubic.quadratic_upper
        cubic.quadratic_upper = aw.quadratic_upper = lambda n1, n2: (
            lambda u: [2 * u[0]] + u[1:])(upper(n1, n2))
        """, "caught", suites=FIVE, sizes=SMALL_MC,
        failed=LEDGER - BLOCK_ROWS | P_VALUES | CUBIC_3 | ids(
            cubic="q2-closed-form",
            aw="block-products revert-map value-two-routes "
            "tensor-display.p(phitilde,phitilde)=38id3+3id4 "
            "tensor-display.p(C(x),C(x))=2|x|^2id3+10(|x|^2id4-x(x)x)")),
    # entry (0, 1) of every i^{-1} triangle doubled
    Mutant("inverse-entry-0-1", """
        from g2forge.g2 import G2Frame
        inverse = G2Frame.iso_i_inv_upper
        G2Frame.iso_i_inv_upper = lambda self, n: (
            lambda u: u[:1] + [2 * u[1]] + u[2:])(inverse(self, n))
        """, "caught", suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
            g2="iso-inverse-roundtrip", cubic="q-and-p-displays")),
    # every term of the derived action with its sign flipped
    Mutant("star-action-negated", "from g2forge import g2, suites; "
           "action = g2.star_action; g2.star_action = suites.star_action = "
           "lambda A, a: -action(A, a)", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(g2="iso-identities",
                                               cubic="trilinear-routes")),
    # the interpolation map with its c_iij and c_ijj halves swapped: the
    # fits, which read their cubics at the symbolic point, stay, and
    # interpolated P's letter polynomial misses the fitted model, which
    # pairing.first-principles-nonzero alone compares
    Mutant("interpolation-halves-swapped", "from g2forge import aw; rewrite("
           "aw, 'cubic_coefficients', '(s_sum - d_sum, s_sum + d_sum)', "
           "'(s_sum + d_sum, s_sum - d_sum)')", "caught", suites=FIVE,
           sizes=SMALL_MC, tier1=True,
           failed=LEDGER | ids(pairing="first-principles-nonzero"),
           actual={"pairing.first-principles-nonzero": "InternalConsistency"
                   "Error: interpolated P does not match the fitted four-term "
                   "model: v1*v1*z1 has -185/36 - 185/36 i interpolated, 0 "
                   "in the model"}),
    # the single f(e_k) in the triple formula negated
    Mutant("interpolation-triple-sign", "from g2forge import aw; rewrite("
           "aw, 'cubic_coefficients', '+ fs[k]', '- fs[k]')", "equivalent",
           suites=FIVE, sizes=SMALL_MC, failed=LEDGER,
           why="k >= 2 in every triple i < j < k, and f(e_k) is 0 there for "
               "P in (v1, v2, x1..x6), the one cubic interpolated: a cubic "
               "with c_kkk != 0 for some k >= 2 is never interpolated"),
    # the table split's odd part forced to 0
    Mutant("split-odd-zero", "from g2forge import aw; "
           "rewrite(aw._BlockTables, "
           "'split', '3 * tri(zu, zu, zw) + 10 * tri(zw, zw, zw)', '0')",
           "equivalent", suites=FIVE, sizes=SMALL_MC, failed=LEDGER,
           why="the odd part of T(U + sqrt(10) W)^3 is the zero polynomial "
               "in the coordinates of xi, so no input can tell"),
    # the row operation without the division by its content
    Mutant("eliminate-no-content", "from g2forge import linalg; rewrite("
           "linalg, '_eliminate', '[x // g for x in new] if g > 1 else new', "
           "'new')", "equivalent", suites=FIVE, sizes=SMALL_MC, failed=LEDGER,
           why="the rows are the same up to their content: the pivots, "
               "ranks and solutions stay, only the integers grow"),
    # the first triple of e1234's entry of the b2 right-hand side's sign
    # table with its sign flipped
    Mutant("rhs-table-e1234", "from g2forge import cubic; "
           "negate(cubic._rhs_table(), 15, 0)", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(
               cubic="b2-solve q-and-p-displays q2-closed-form "
               "trilinear-routes")),
    # hat's 7-part with its sign flipped: the cubic checks feed hat only
    # 27-type forms, whose 7-part is 0
    Mutant("hat-7-part-sign", "from g2forge.g2 import G2Frame; "
           "rewrite(G2Frame, 'hat_numerators', '+ 2 * c', '- 2 * c')",
           "caught", suites=FIVE, sizes=SMALL_MC,
           failed=LEDGER | ids(g2="hat-defining-identity")),
    # the first pair of f_01 with its sign flipped and the blade index
    # rebuilt, i's functionals as built
    Mutant("inverse-functional-sign", """
        from g2forge import g2
        negate(g2.standard_frame()._inv_functionals, 1, 0)
        g2.standard_frame()._inv_index = g2._blade_index(
            g2.standard_frame()._inv_functionals, 3)
        """, "caught", suites=FIVE, sizes=SMALL_MC, failed=LEDGER | ids(
            g2="iso-inverse-roundtrip", cubic="q-and-p-displays")),
    # the solve's 7-weight off by one: M^T rhs has no 7-part on a pair of
    # 27-type forms, so only cubic.b2-solve's generic first pair reads it
    Mutant("solve-7-weight", "from g2forge.g2 import G2Frame; rewrite("
           "G2Frame, 'solve_three_form_numerators', '(w7 - w27)', "
           "'(w7 + 1 - w27)')", "caught", suites=FIVE, sizes=SMALL_MC,
           failed=LEDGER | ids(cubic="b2-solve"),
           actual={"cubic.b2-solve": "InconsistentSystemError: inconsistent "
                   "linear system: row 0 reduces to 0 = nonzero"}),
    # MultiPoly's builder keeps a zero sum of two coefficients as a 0
    # coefficient, so equal polynomials compare unequal: P builds with its
    # kept zeros, so the Monte Carlo's determinism and scaling hold
    Mutant("poly-keeps-zero-sums", "from g2forge.poly import MultiPoly; "
           "rewrite(MultiPoly, '_summed', 'if c == 0:', "
           "'if c == 0 and mono not in terms:')", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER - BLOCK_ROWS - DISPLAY_ROWS
           | P_VALUES | ids(aw="block-products tensor-displays",
                            pairing="p-poly-real pure-z-support"),
           actual={"aw.tensor-displays": "InternalConsistencyError: "
                   "recovered tensor is not symmetric: entry (0, 1) = 0, "
                   "entry (1, 0) = (0)*y2",
                   "pairing.p-poly-real": "InternalConsistencyError: "
                   "interpolated P is not real-valued: z1*z2*zb3 has 0, not "
                   "the conjugate of 0, the coefficient of its partner "
                   "z3*zb1*zb2"}, tier1=True),
    # MultiPoly's builder without its sort: a product's m1 + m2 and a
    # conjugate's monomial keep the order they are made in
    Mutant("poly-products-unsorted", "from g2forge.poly import MultiPoly; "
           "rewrite(MultiPoly, '_summed', 'tuple(sorted(mono))', "
           "'tuple(mono)')", "caught", suites=FIVE, sizes=SMALL_MC,
           failed=LEDGER - BLOCK_ROWS | P_VALUES | ids(
               aw="block-products revert-map "
               "tensor-display.p(C(x),C(x))=2|x|^2id3+10(|x|^2id4-x(x)x) "
               "tensor-display.p(y^Omega,C(x))=6y.Jx.corrected",
               pairing="idet-construction pure-z-support"),
           actual={"aw.block-products": "InternalConsistencyError: R "
                   "display disagrees with g(Jx, I_y x): metric -1, display -2 "
                   "at y2*x4*x7"}, tier1=True),
    # the permanent inner product conjugating its second argument's
    # coefficients: a hermitian form, not a symmetric one
    Mutant("sym-inner-conjugates-q", "from g2forge import pairing; "
           "rewrite(pairing, 'sym_inner_poly', 'c1 * c2 * g', "
           "'c1 * c2.conjugate() * g')", "caught", suites=FIVE,
           sizes=SMALL_MC, failed=LEDGER | ids(
               pairing="closed-assembly component-values "
               "montecarlo-agreement sym-inner-symmetric"),
           actual={"pairing.component-values": "-4/9; -8/3; 4; -8"},
           tier1=True),
    # the Haar sampler's third column without its conjugation
    Mutant("haar-third-column-unconjugated", "from g2forge import pairing; "
           "rewrite(pairing, 'haar_su3', 'np.conjugate(', 'np.positive(')",
           "caught", suites=("pairing",), sizes=SMALL_MC,
           failed=ids(pairing="montecarlo-agreement")),
)


def coverage() -> dict[str, list[str]]:
    """For each check id of the full-size golden reports
    (SUITE_full_seed1.json) outside the ledger, the names of the caught
    entries whose record fails it, read off the records alone: an id
    with none is a check that no defect in the registry is shown to
    fail."""
    cids = set()
    for path in sorted((ROOT / "tests" / "golden").glob("*_full_seed1.json")):
        cids.update(c["id"] for r in json.loads(path.read_text())["suites"]
                    for c in r["checks"])
    return {cid: [m.name for m in REGISTRY
                  if m.outcome == "caught" and cid in m.failed]
            for cid in sorted(cids - LEDGER)}


def main() -> int:
    start, changed = time.perf_counter(), 0
    for entry in REGISTRY:
        diff = differences(entry, run(entry))
        if diff:
            changed += 1
            print("\n  ".join([f"{entry.name} ({entry.outcome}):", *diff]))
    counts = ", ".join(f"{sum(m.outcome == o for m in REGISTRY)} {o}"
                       for o in OUTCOMES)
    print(f"{len(REGISTRY)} entries ({counts}), {changed} differ from their "
          f"record, {time.perf_counter() - start:.1f} s")
    uncovered = [cid for cid, names in coverage().items() if not names]
    print(f"{len(uncovered)} checks no caught entry fails:",
          *uncovered, sep="\n  ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
