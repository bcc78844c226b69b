"""End-to-end tests of the command-line interface."""

import argparse
import json
from fractions import Fraction

import pytest

import g2forge
from g2forge import suites
from g2forge import exterior as ext
from g2forge.aw import Su3Element, comparison_form, \
    first_principles_value, standard_aw_frame
from g2forge.cli import build_parser, main
from g2forge.cubic import b2, q_value
from g2forge.exterior import form_from_json, form_to_json, vol_coefficient, \
    wedge
from g2forge.linalg import SymTensor
from g2forge.scalars import QuadExt, scalar_from_json, scalar_to_json
from g2forge.suites import AW_BY_DESIGN

from reference import SQRT10
from test_cubic import perturb_inverse, perturb_solve, \
    perturb_three_form_route


# the aw checks that fail by design; notes/decisions.md gives each
# display, its corrected form and the evidence for the correction
AW_LEDGER = {
    "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a",
    "aw.tensor-display.p(y^Omega,C(x))=6y.Jx",
    "aw.tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax",
    "aw.block-product.p(phitilde,C(x))",
    "aw.block-product.p(y^Omega,C(x))",
    "aw.generic-sum-display",
    "aw.closed-display",
    "aw.pairing-vs-displays",
}


def write_form(path, form):
    path.write_text(json.dumps(form_to_json(form)))
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- run ----------------------------------------------------------------------

def test_run_pairing_suite_json(capsys, awframe):
    rc, out, err = run_cli(
        capsys, "run", "--suite", "pairing", "--seed", "1",
        "--samples", "10000", "--random", "5", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["seed"] == 1
    (sub,) = report["suites"]
    assert sub["suite"] == "pairing"
    assert sub["pairing"] == "100/3"
    assert sub["first_principles_pairing"] == "760/3"
    assert sub["sign_resolution"] == "intermediate-display"
    assert sub["components"] == {"R": "24", "s3": "-4/9",
                                 "sx2": "-8/3", "sy2": "4"}
    ids = [c["id"] for c in sub["checks"]]
    assert ids == sorted(ids)
    assert "pairing.montecarlo-agreement" in ids
    assert "finished in" in err


def test_run_aw_suite_fails_by_design(capsys, awframe):
    rc, out, err = run_cli(
        capsys, "run", "--suite", "aw", "--seed", "1",
        "--random", "5", "--format", "json")
    assert rc == 1
    report = json.loads(out)
    assert report["passed"] is False
    (sub,) = report["suites"]
    failing = {c["id"] for c in sub["checks"] if c["status"] == "fail"}
    # equality, not a subset: a new failure and a documented display
    # that starts to hold both break this
    assert AW_LEDGER == AW_BY_DESIGN
    assert failing == AW_BY_DESIGN
    # every failing display has a passing corrected twin where one exists
    for cid in list(failing):
        if cid + ".corrected" in {c["id"] for c in sub["checks"]}:
            twin = next(c for c in sub["checks"]
                        if c["id"] == cid + ".corrected")
            assert twin["status"] == "pass"


def _ledger_lines(err):
    return [line for line in err.splitlines() if "failing checks" in line]


def test_run_names_failures_against_the_ledger(capsys, awframe, monkeypatch):
    args = ("run", "--suite", "aw", "--seed", "1", "--random", "5",
            "--format", "json")
    rc, healthy, err = run_cli(capsys, *args)
    assert rc == 1
    assert _ledger_lines(err) == [
        "g2forge: aw: 8 failing checks, all in suites.AW_BY_DESIGN"]
    # one failure more: the report changes, the exit code does not
    i_det = Su3Element.i_det
    monkeypatch.setattr(Su3Element, "i_det", lambda self: -i_det(self))
    rc, out, err = run_cli(capsys, *args)
    assert rc == 1 and out != healthy
    assert _ledger_lines(err) == [
        "g2forge: aw: 9 failing checks, 8 in suites.AW_BY_DESIGN; "
        "not in it: aw.idet-two-routes"]
    # a passing suite prints no such line
    rc, _, err = run_cli(capsys, "run", "--suite", "exterior", "--random", "1")
    assert rc == 0
    assert _ledger_lines(err) == []


def test_run_exterior_text_deterministic(capsys):
    args = ("run", "--suite", "exterior", "--seed", "7", "--random", "10")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("suite exterior (seed 7)")
    assert out1.rstrip().endswith("result: PASS")


def test_run_rejects_bogus_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_run_rejects_small_samples(capsys):
    rc, out, err = run_cli(capsys, "run", "--suite", "pairing",
                           "--samples", "100")
    assert rc == 2
    assert "--samples" in err and not out


def test_run_rejects_bad_random(capsys):
    rc, out, err = run_cli(capsys, "run", "--suite", "exterior",
                           "--random", "0")
    assert rc == 2
    assert "--random" in err


def test_run_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("G2FORGE_SEED", "5")
    rc, out, _ = run_cli(capsys, "run", "--suite", "exterior",
                         "--random", "5", "--format", "json")
    assert rc == 0
    assert json.loads(out)["seed"] == 5
    monkeypatch.setenv("G2FORGE_SEED", "pony")
    rc, out, err = run_cli(capsys, "run", "--suite", "exterior",
                           "--random", "5")
    assert rc == 2
    assert out == ""
    assert "bad G2FORGE_SEED value: 'pony'" in err


def test_run_records_a_raising_suite(fresh_python, tmp_path):
    # the e45 term of omega_1 negated in R's metric route alone, so that
    # the contraction x -| omega_1 there is wrong, makes R's two routes
    # disagree, and _r raise, inside the aw suite; each check that reads
    # R fails with the exception, the others still run, and the run
    # writes its report.  A fresh process, so that no cached table or fit
    # spares a check the call
    code = ("import inspect, sys\n"
            "from g2forge import aw\n"
            "from g2forge.cli import main\n"
            "source = inspect.getsource(aw._r).replace(\n"
            "    'zip(z[1:4], fr.omega)',\n"
            "    'zip(z[1:4], (fr.omega[0] - 2 * blade([4, 5]), "
            "*fr.omega[1:]))')\n"
            "exec(source, vars(aw))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    done = fresh_python(code, "run", "--suite", "aw", "--seed", "1",
                        "--random", "1", "--format", "json",
                        "--output", "aw.json")
    assert done.returncode == 1, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    report = json.loads((tmp_path / "aw.json").read_text())
    assert report["passed"] is False
    (sub,) = report["suites"]
    checks = {c["id"]: c for c in sub["checks"]}
    assert len(checks) == len(sub["checks"])
    raise_text = ("InternalConsistencyError: R display disagrees with "
                  "g(Jx, I_y x): metric ")
    raised = {cid for cid, c in checks.items()
              if c["actual"].startswith(raise_text)}
    # the block-products sweep raises before its rows exist, so it is
    # one record under its stream's name; the fits read R at the
    # symbolic point, the pairing report reads it at the letters
    assert raised == {"aw.block-products", "aw.generic-sum-display",
                      "aw.closed-display", "aw.revert-map",
                      "aw.pairing-vs-displays"}
    for cid in raised - {"aw.pairing-vs-displays"}:
        assert checks[cid]["actual"] == \
            raise_text + "-1, display 1 at x4*x4*y1"
    assert checks["aw.pairing-vs-displays"]["actual"] == raise_text + (
        "-1/2, display 1/2 at v1*z2*zb2")
    for cid in raised:
        assert checks[cid]["status"] == "fail"
        assert checks[cid]["anchor"].endswith(
            "; raised at seed 1 with --random 1, rerun it to reproduce")
    # every other check passes, but the three tensor displays that fail by
    # design, which read no R
    unread = AW_BY_DESIGN & {cid for cid in checks
                             if cid.startswith("aw.tensor-display.")}
    assert len(unread) == 3
    assert {cid for cid, c in checks.items() if c["status"] == "fail"} == \
        raised | unread
    assert checks["aw.dual-constructions"]["actual"] == "holds"
    assert checks["aw.value-two-routes"]["status"] == "pass"


def test_run_lets_interrupts_through(capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(suites.SUITE_RUNNERS, "exterior", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--suite", "exterior"])


def test_run_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "run", "--suite", "exterior",
                           "--seed", "3", "--random", "5",
                           "--format", "json", "--output", str(target))
    assert rc == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["passed"] is True


def test_run_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    rc, out, err = run_cli(capsys, "run", "--suite", "exterior",
                           "--random", "1", "--output", str(target))
    assert rc == 2 and out == ""
    assert f"g2forge: cannot write {target}: " in err


def test_run_timings_side_file(capsys, tmp_path):
    # the aw suite has failing checks and checks recorded inside a sweep's
    # block; the report, the exit code and the ledger summary on stderr
    # are the same with the side file as without it
    argv = ["run", "--suite", "aw", "--seed", "1", "--random", "1",
            "--format", "json"]
    rc, out, err = run_cli(capsys, *argv)
    side = tmp_path / "timings.json"
    rc_t, out_t, err_t = run_cli(capsys, *argv, "--timings", str(side))
    assert rc_t == rc == 1 and out_t == out
    assert err_t.splitlines()[1:] == err.splitlines()[1:]
    timings = json.loads(side.read_text())
    ids = {c["id"] for sub in json.loads(out)["suites"] for c in sub["checks"]}
    assert ids <= timings.keys()
    # the blocks that only hold the sweeps' records
    assert timings.keys() - ids == {"aw.tensor-displays", "aw.block-products"}
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())


def test_run_unwritable_timings(capsys, tmp_path):
    target = tmp_path / "missing" / "timings.json"
    rc, out, err = run_cli(capsys, "run", "--suite", "exterior",
                           "--random", "1", "--timings", str(target))
    assert rc == 2 and out.endswith("result: PASS\n")
    assert f"g2forge: cannot write {target}: " in err


@pytest.mark.parametrize("argv, env", [
    (["run", "--suite", "nonsense"], {}),
    (["run", "--samples", "100"], {}),
    (["run", "--random", "0"], {}),
    (["run"], {"G2FORGE_SEED": "pony"}),
], ids=["suite", "samples", "random", "seed"])
def test_run_usage_errors_load_no_suites(fresh_python, argv, env):
    code = ("import sys\n"
            "from g2forge.cli import main\n"
            "try:\n"
            "    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "print(rc, 'g2forge.suites' in sys.modules)\n")
    done = fresh_python(code, *argv, **{"G2FORGE_SEED": "", **env})
    assert done.stdout == "2 False\n", done.stderr


def test_cli_import_builds_no_table(fresh_python):
    # a cold `eval hat` or `eval project` never pays for the b2, pair or
    # frame tables: the import loads no cubic, and g2._built, which keeps
    # every per-process value, and each grade-keyed table of the loaded
    # package are still empty after it
    code = ("import sys\n"
            "import g2forge.cli\n"
            "print('cubic', 'g2forge.cubic' in sys.modules)\n"
            "for name, mod in sorted(sys.modules.items()):\n"
            "    if name.startswith('g2forge.'):\n"
            "        for key, fn in sorted(vars(mod).items()):\n"
            "            if hasattr(fn, 'cache_info') and fn.__module__ == name:\n"
            "                print(name, key, fn.cache_info().currsize)\n")
    done = fresh_python(code)
    first, *rest = done.stdout.splitlines()
    assert first == "cubic False", done.stderr
    builders = {tuple(line.split()[:2]): line.split()[2] for line in rest}
    assert ("g2forge.g2", "_built") in builders, done.stderr
    assert set(builders.values()) == {"0"}


def test_parser_offers_the_suites_constants():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    run_p = sub.choices["run"]
    (suite,) = [a for a in run_p._actions if a.dest == "suite"]
    assert tuple(suite.choices) == ("all",) + suites.SUITE_NAMES
    args = parser.parse_args(["run"])
    assert args.n_random == suites.DEFAULT_RANDOM
    assert args.samples == suites.DEFAULT_SAMPLES
    # one definition of each, shared by the command line and the suites
    assert suites.SUITE_NAMES is g2forge.SUITE_NAMES
    assert suites.DEFAULT_SAMPLES is g2forge.DEFAULT_SAMPLES


def test_command_options_are_pinned():
    # every option of every command, so a new knob fails here
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in [("g2forge", parser), *sub.choices.items()]}
    assert options == {
        "g2forge": [],
        "run": ["--suite", "--seed", "--samples", "--random", "--format",
                "--output", "--timings"],
        "eval": ["--output"],
    }


# -- eval ---------------------------------------------------------------------

def test_eval_hat_of_psi(capsys, tmp_path, g2frame):
    path = write_form(tmp_path / "psi.json", g2frame.psi)
    rc, out, _ = run_cli(capsys, "eval", "hat", path)
    assert rc == 0
    data = json.loads(out)
    assert data["operation"] == "hat"
    assert form_from_json(data["result"]) == -g2frame.phi


def test_eval_q2_wedges_back_to_q(capsys, tmp_path, g2frame):
    a = g2frame.iso_i_psi(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    path = write_form(tmp_path / "a.json", a)
    rc, out, _ = run_cli(capsys, "eval", "q2", path)
    assert rc == 0
    q2a = form_from_json(json.loads(out)["result"])
    assert vol_coefficient(wedge(q2a, a)) == q_value(a, g2frame)


def test_eval_q_scalar(capsys, tmp_path, g2frame):
    a = g2frame.iso_i_psi(SymTensor.diag([2, -1, -1, 1, 0, -1, 0]))
    path = write_form(tmp_path / "a.json", a)
    rc, out, _ = run_cli(capsys, "eval", "Q", path)
    assert rc == 0
    assert json.loads(out)["result"] == scalar_to_json(q_value(a, g2frame))


def test_eval_p_on_comparison_block(capsys, tmp_path):
    # P of the diagonal comparison form equals the first-principles
    # value of the diagonal su(3) element
    fr = standard_aw_frame()
    path = write_form(tmp_path / "pt.json", fr.phi_tilde)
    rc, out, _ = run_cli(capsys, "eval", "P", path)
    assert rc == 0
    assert json.loads(out)["result"] == scalar_to_json(Fraction(-210))


def test_eval_p_with_sqrt10_parts(capsys, tmp_path):
    # A(xi) of an element with an m4 part has sqrt(10) coefficients: P
    # of it is rational, P of sqrt(10) A(xi) is 10 sqrt(10) times that
    xi = Su3Element((1, 1, -2), (1, -2, 3, 0, -1, 2))
    u, w, d, _, _ = comparison_form(xi)
    a = Fraction(1, d) * (u + SQRT10 * w)
    want = first_principles_value(xi)
    for form, value in ((a, want), (SQRT10 * a, QuadExt(0, 10 * want))):
        path = write_form(tmp_path / "a.json", form)
        rc, out, _ = run_cli(capsys, "eval", "P", path)
        assert rc == 0
        assert scalar_from_json(json.loads(out)["result"]) == value


def test_eval_b2_two_files(capsys, tmp_path, g2frame):
    a1 = g2frame.iso_i_psi(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    a2 = g2frame.iso_i_psi(SymTensor.diag([0, 1, -1, 0, 0, 0, 0]))
    p1 = write_form(tmp_path / "a1.json", a1)
    p2 = write_form(tmp_path / "a2.json", a2)
    rc, out, _ = run_cli(capsys, "eval", "b2", p1, p2)
    assert rc == 0
    assert form_from_json(json.loads(out)["result"]) == b2(a1, a2, g2frame)
    rc, _, err = run_cli(capsys, "eval", "b2", p1)
    assert rc == 2 and "two" in err


def test_eval_project(capsys, tmp_path, g2frame):
    path = write_form(tmp_path / "phi.json", g2frame.phi)
    rc, out, _ = run_cli(capsys, "eval", "project", path)
    assert rc == 0
    parts = json.loads(out)["result"]
    assert sorted(parts) == ["1", "27", "7"]
    assert form_from_json(parts["1"]) == g2frame.phi
    assert form_from_json(parts["7"]).is_zero()
    two = write_form(tmp_path / "b.json", ext.blade([1, 2]))
    rc, out, _ = run_cli(capsys, "eval", "project", two)
    assert rc == 0
    assert sorted(json.loads(out)["result"]) == ["14", "7"]
    one = write_form(tmp_path / "v.json", ext.vector(1))
    rc, _, err = run_cli(capsys, "eval", "project", one)
    assert rc == 2 and "grade" in err


def test_eval_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "eval", "hat", str(bad))
    assert rc == 2 and "not valid JSON" in err
    rc, _, err = run_cli(capsys, "eval", "hat", str(tmp_path / "missing.json"))
    assert rc == 2 and "cannot read" in err
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"grade": 9, "terms": {}}))
    rc, _, err = run_cli(capsys, "eval", "hat", str(malformed))
    assert rc == 2


@pytest.mark.parametrize("term", [
    {"indices": [4, 5, 6, 7], "coeff": {"num": 1.5, "den": "1"}},
    {"indices": [4, 5, 6, 7], "coeff": {"num": "1", "den": 2.9}},
    {"indices": [4, 5, 6, 7], "coeff": {"num": True, "den": "1"}},
    {"indices": [4, 5, 6, True], "coeff": {"num": "1", "den": "1"}},
])
def test_eval_rejects_non_string_scalars_and_bool_indices(capsys, tmp_path,
                                                          term):
    # int() would read 1.5 as 1, 2.9 as 2 and true as 1 (index 1)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"grade": 4, "terms": [term]}))
    rc, out, err = run_cli(capsys, "eval", "hat", str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"g2forge: {path}: ")


def test_eval_precondition_violations(capsys, tmp_path, g2frame):
    psi = write_form(tmp_path / "psi.json", g2frame.psi)
    rc, _, err = run_cli(capsys, "eval", "q2", psi)
    assert rc == 2 and "TypeDecompositionError" in err
    phi = write_form(tmp_path / "phi.json", g2frame.phi)
    rc, _, err = run_cli(capsys, "eval", "Q", phi)
    assert rc == 2 and "GradeError" in err


@pytest.mark.parametrize("op,build,stderr", [
    ("q2", lambda fr: fr.phi,
     "GradeError: q2 needs a 4-form"),
    ("q2", lambda fr: fr.psi,
     "TypeDecompositionError: form is not of pure 27 type"),
    ("Q", lambda fr: fr.phi,
     "GradeError: q_value needs a 4-form"),
    ("Q", lambda fr: wedge(ext.vector(1), fr.phi),
     "TypeDecompositionError: form is not of pure 27 type"),
    ("P", lambda fr: fr.psi, "GradeError: p_value needs a 3-form"),
    ("P", lambda fr: fr.kappa[0],
     "TypeDecompositionError: form has components outside the "
     "27-dimensional summand"),
], ids=["q2-grade", "q2-type", "Q-grade", "Q-type", "P-grade", "P-type"])
def test_eval_precondition_messages(capsys, tmp_path, g2frame, op, build,
                                    stderr):
    path = write_form(tmp_path / "form.json", build(g2frame))
    rc, out, err = run_cli(capsys, "eval", op, path)
    assert (rc, out, err) == (2, "", f"g2forge: {stderr}\n")


@pytest.mark.parametrize("op,perturb,message", [
    ("q2", perturb_solve,
     "Q2 closed form disagrees with the b2 solve on blade (1, 2, 3)"),
    ("Q", perturb_inverse, "the two routes to Q disagree"),
    ("P", perturb_three_form_route, "P(b) != Q(*b)"),
], ids=["q2", "Q", "P"])
def test_eval_failed_cross_check_exits_1(capsys, tmp_path, monkeypatch,
                                         g2frame, op, perturb, message):
    S = SymTensor.diag([2, -1, -1, 1, 0, -1, 0])
    form = g2frame.iso_i(S) if op == "P" else g2frame.iso_i_psi(S)
    path = write_form(tmp_path / "form.json", form)
    perturb(monkeypatch)
    rc, out, err = run_cli(capsys, "eval", op, path)
    assert (rc, out) == (1, "")
    # the raise names both routes' values and the input form
    assert err.startswith(f"g2forge: internal consistency failure: {message}: ")
    assert err.endswith(f" at {json.dumps(form_to_json(form))}\n")


def test_eval_output_file(capsys, tmp_path, g2frame):
    path = write_form(tmp_path / "psi.json", g2frame.psi)
    target = tmp_path / "out.json"
    rc, out, _ = run_cli(capsys, "eval", "hat", path,
                         "--output", str(target))
    assert rc == 0 and out == ""
    data = json.loads(target.read_text())
    assert form_from_json(data["result"]) == -g2frame.phi


def test_eval_unwritable_output(capsys, tmp_path, g2frame):
    path = write_form(tmp_path / "psi.json", g2frame.psi)
    target = tmp_path / "missing" / "out.json"
    rc, out, err = run_cli(capsys, "eval", "hat", path,
                           "--output", str(target))
    assert rc == 2 and out == ""
    assert f"g2forge: cannot write {target}: " in err
