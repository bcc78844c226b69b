"""Source hygiene of the package, read off its syntax trees: every import
is used, every module-level function, class and assigned name and every
method is used by the package or the benchmark, no module rebinds a
global or runs a loop at module level, every per-process value is
built through g2.once and functools.cache keeps only tables keyed by an
argument (no cached_property or lru_cache), numpy
is imported only by what samples, and each command imports only the
modules it runs.  Its dynamic twin, the reach scan of tests/reach.py,
runs the commands and requires every def they leave unreached to be
listed."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from g2forge.exterior import form_to_json
from g2forge.linalg import SymTensor

import reach

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "g2forge").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """(name, line) of every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _used_names(tree):
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a forward reference such as -> "Form"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"g2.py", "aw.py", "suites.py"}
    assert {p.name for p in BENCHMARK} >= {"workloads.py", "layers.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def _names_read(paths=SOURCES + BENCHMARK):
    """Every name and attribute the files read; the traced spans that
    perfbench/layers.py names as strings are read too."""
    read = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif path.name == "layers.py" and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_every_function_and_class_is_used():
    # what only the tests call belongs in tests/reference.py
    read = _names_read()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in SOURCES for node in _tree(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read]
    assert unused == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_module_level_name_is_read():
    # a module-level constant that nothing reads is dead code as well
    read = _names_read()
    unused = [f"{path.name}:{node.lineno} {name.id}"
              for path in SOURCES for node in _tree(path).body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              for name in ast.walk(target) if isinstance(name, ast.Name)
              and not _is_dunder(name.id) and name.id not in read]
    assert unused == []


def _functions_and_methods():
    """(qualified name, name) of every module-level function, as
    module.name, and of every method but the dunders, as Class.name."""
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m.name)
                            for m in node.body if isinstance(m, ast.FunctionDef)
                            and not _is_dunder(m.name))


def test_every_method_is_used():
    # the same one level down, for methods and properties
    read = _names_read()
    unused = [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
              for path in SOURCES for cls in _tree(path).body
              if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and not _is_dunder(node.name) and node.name not in read]
    assert unused == []


# the functions and methods that the package keeps for the benchmark
# alone: perfbench calls or traces them, and nothing in src/ calls them
BENCHMARK_ONLY = {"G2Frame.iso_i_inv", "G2Frame.solve_three_form",
                  "g2.random_traceless", "cubic.q2_closed_form",
                  "cubic.quadratic_form", "pairing.haar_average_check",
                  "aw.r_value", "SymTensor.scale", "SymTensor.__init__"}
# the BENCHMARK_ONLY methods whose name src/ reads for something else (a
# variable scale), which a scan of names cannot tell from a call; the
# reach scan tells them apart
NAME_READ_ELSEWHERE = {"SymTensor.scale"}


def test_benchmark_only_names_are_listed():
    """The functions and methods that only perfbench/ reads are exactly
    BENCHMARK_ONLY, less the ones whose name src/ reads for something
    else: one that loses its last reader in src/ joins the list, and one
    that gains a reader there leaves it."""
    read = _names_read(SOURCES)
    # a dunder runs through its class's syntax, a constructor as
    # SymTensor(...), which a scan of names cannot see; the reach scan
    # checks those
    assert {qualified for qualified, name in _functions_and_methods()
            if name not in read} == {
        qualified for qualified in BENCHMARK_ONLY - NAME_READ_ELSEWHERE
        if not _is_dunder(qualified.rsplit(".", 1)[1])}
    assert {qualified.rsplit(".", 1)[1]
            for qualified in NAME_READ_ELSEWHERE} <= read


def _reach_scan(folder, cwd):
    """What tests/reach.py prints for the package in folder, run in a
    fresh interpreter (the script unsets G2FORGE_SEED itself)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py"), str(folder)],
        cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_every_def_is_reached_or_listed(tmp_path):
    """The dynamic twin of test_benchmark_only_names_are_listed: every
    def in src/ that the five suites and the six eval operations leave
    unreached is in BENCHMARK_ONLY or reach.ALLOWED, and every listed
    def is left unreached, so a listed name that gains a caller leaves
    its list."""
    found = _reach_scan(ROOT / "src" / "g2forge", tmp_path)
    assert reach.compare(found, BENCHMARK_ONLY | reach.ALLOWED) == []


def test_reach_scan_reports_both_directions(tmp_path):
    """On a copy of the package with a def that nothing calls added and
    a listed failure-path helper called on every decompose, the scan's
    comparison reports both, and nothing else."""
    copy = tmp_path / "src" / "g2forge"
    shutil.copytree(ROOT / "src" / "g2forge", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "linalg.py", "a") as fh:
        fh.write("\n\ndef _never_called():\n    return None\n")
    aw_py = copy / "aw.py"
    anchor = "    v, c = xi.v, xi.x\n"
    assert aw_py.read_text().count(anchor) == 1
    aw_py.write_text(aw_py.read_text().replace(
        anchor, "    _sqrt10(1, 0, 1)\n" + anchor))
    found = _reach_scan(copy, tmp_path)
    assert reach.compare(found, BENCHMARK_ONLY | reach.ALLOWED) == [
        "unreached, not listed: linalg._never_called",
        "listed, not unreached: aw._sqrt10"]


def _fixed_text_consistency_errors(tree):
    """The lines that build an InternalConsistencyError with a constant
    text or none, a raise that names none of the values it compared."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "InternalConsistencyError" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))
            and all(isinstance(a, ast.Constant) for a in node.args)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_consistency_errors_name_their_values(path):
    # a failed cross-check names the values it compared, built in the
    # failing branch; TypeDecompositionError texts stay fixed, since the
    # command line prints them as they are
    assert [f"{path.name}:{line}"
            for line in _fixed_text_consistency_errors(_tree(path))] == []


def test_fixed_text_consistency_errors_are_found():
    tree = ast.parse('raise InternalConsistencyError("a" "b")\n'
                     'raise g2.InternalConsistencyError()\n'
                     'raise InternalConsistencyError(f"{x}")\n'
                     'raise TypeDecompositionError("c")\n')
    assert _fixed_text_consistency_errors(tree) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statement(path):
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Global)]
    assert found == []


def test_one_cache_mechanism():
    # per-process state is built by g2.once and functools.cache alone
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr in ("cached_property", "lru_cache")]
    found += [f"{path.name}:{node.lineno} {a.name}"
              for path in SOURCES for node in ast.walk(_tree(path))
              if isinstance(node, ast.ImportFrom)
              for a in node.names if a.name in ("cached_property", "lru_cache")]
    assert found == []


def test_per_process_values_are_built_once():
    # a def with no parameters cached by functools.cache is a per-process
    # value that would rebuild and re-raise at every caller after a failed
    # build, and that g2._built.cache_clear would not reset: it goes
    # through g2.once
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.FunctionDef)
             and not any(ast.iter_child_nodes(node.args))
             and any(ast.unparse(d) in ("cache", "functools.cache")
                     for d in node.decorator_list)]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_loop(path):
    # a loop at module level leaves its variables in the namespace
    found = [f"{path.name}:{node.lineno}" for node in _tree(path).body
             if isinstance(node, (ast.For, ast.While))]
    assert found == []


def test_numpy_stays_a_lazy_import(fresh_python):
    """Importing the command line, the suites and the pairing module and
    building both frames does not import numpy: only the Monte Carlo
    needs it, and importing it costs more than all of that set-up."""
    code = ("import sys\n"
            "import g2forge.cli, g2forge.suites, g2forge.pairing\n"
            "from g2forge.aw import standard_aw_frame\n"
            "from g2forge.g2 import standard_frame\n"
            "standard_frame(); standard_aw_frame()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr


# what each entry point must leave unloaded: eval runs on the core modules
# alone, and only its b2, q2, Q and P compile cubic; the exterior and g2
# suites never touch cubic, aw, pairing, the polynomial module or the su(3)
# suites, and the cubic suite none but cubic
NOT_FOR_EVAL = {"g2forge.suites", "g2forge.su3_suites", "g2forge.aw",
                "g2forge.pairing", "g2forge.poly", "numpy"}
NOT_FOR_CORE_SUITES = {"g2forge.su3_suites", "g2forge.aw", "g2forge.pairing",
                       "g2forge.poly"}
# the benchmark's set-up probe builds both frames: aw compiles the
# polynomial module only where it builds its symbolic point
_SETUP = ("import g2forge.cli\nfrom g2forge.aw import standard_aw_frame\n"
          "from g2forge.g2 import standard_frame\n"
          "standard_frame(); standard_aw_frame()\n")
NOT_CUBIC = {"g2forge.cubic"}
# a suite run takes sha256 from the builtin SHA-2 module, not OpenSSL's
NOT_OPENSSL = {"hashlib", "_hashlib"}
_MAIN = "from g2forge.cli import main\nassert main({!r}) == 0\n"


@pytest.mark.parametrize("code, loaded, unloaded", [
    ("import g2forge.cli", "g2forge.cli", NOT_FOR_EVAL | NOT_CUBIC),
    (_MAIN.format(["eval", "P", "b.json", "--output", "P.json"]),
     "g2forge.cubic", NOT_FOR_EVAL),
    (_MAIN.format(["eval", "project", "b.json", "--output", "p.json"]),
     "g2forge.g2", NOT_FOR_EVAL | NOT_CUBIC),
    ("import g2forge.suites", "g2forge.suites",
     NOT_FOR_CORE_SUITES | NOT_CUBIC),
    (_MAIN.format(["run", "--suite", "exterior", "--random", "1",
                   "--output", "report.txt"]),
     "g2forge.suites", NOT_FOR_CORE_SUITES | NOT_CUBIC | NOT_OPENSSL),
    (_MAIN.format(["run", "--suite", "g2", "--random", "1",
                   "--output", "report.txt"]),
     "g2forge.suites", NOT_FOR_CORE_SUITES | NOT_CUBIC | NOT_OPENSSL),
    (_SETUP, "g2forge.aw", {"g2forge.poly", "g2forge.pairing", "numpy"}),
], ids=["import-cli", "eval-P", "eval-project", "import-suites",
        "run-exterior", "run-g2", "setup-probe"])
def test_import_layers(fresh_python, tmp_path, g2frame, code, loaded,
                       unloaded):
    """Each command compiles only the modules it runs: with bytecode
    writing off, every process compiles what it imports from source."""
    b = g2frame.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
    (tmp_path / "b.json").write_text(json.dumps(form_to_json(b)))
    done = fresh_python(code + "\nimport json, sys\n"
                        "print(json.dumps(sorted(sys.modules)))\n")
    assert done.returncode == 0, done.stderr
    modules = set(json.loads(done.stdout.splitlines()[-1]))
    assert loaded in modules
    assert modules & unloaded == set()


def test_one_type_27_gate():
    """The gate's text is written once, and every gate that raises on
    is_pure27 is require_pure27: is_pure27 is read there and by the two
    checks that count the forms it passes and rejects.  aw gates its
    block forms once, at the block basis, whose combinations they all
    are."""
    texts = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and node.value ==
             "form has components outside the 27-dimensional summand"]

    def readers(attr, paths):
        return sorted(f"{path.name}:{fn.name}" for path in paths
                      for fn in ast.walk(_tree(path))
                      if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute)
                      and node.attr == attr)

    assert len(texts) == 1 and texts[0].startswith("g2.py:")
    # g2.iso-inverse-roundtrip counts the basis forms that pass the gate,
    # g2.type-gate the 1- and 7-parts it rejects
    assert readers("is_pure27", SOURCES) == \
        ["g2.py:require_pure27"] + ["suites.py:suite_g2"] * 2
    aw = [path for path in SOURCES if path.name == "aw.py"]
    assert readers("require_pure27", aw) == ["aw.py:block_basis"]
