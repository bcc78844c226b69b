"""Source hygiene of the package, read off its syntax trees: every import
is used, every module-level function, class and assigned name and every
method is used by the package or the benchmark, no module rebinds a
global or runs a loop at module level, per-process state is built by
functools.cache builders alone (no cached_property or lru_cache), numpy
is imported only by what samples, and each command imports only the
modules it runs."""

import ast
import json
from pathlib import Path

import pytest

from g2forge.exterior import form_to_json
from g2forge.linalg import SymTensor

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
# alone: perfbench calls or traces them, and nothing in src/ reads them
BENCHMARK_ONLY = {"G2Frame.iso_i_inv", "G2Frame.solve_three_form",
                  "g2.random_traceless", "cubic.q2_closed_form",
                  "cubic.quadratic_form", "pairing.haar_average_check",
                  "aw.r_value"}


def test_benchmark_only_names_are_listed():
    """The functions and methods that only perfbench/ reads are exactly
    BENCHMARK_ONLY: one that loses its last reader in src/ joins the
    list, and one that gains a reader there leaves it."""
    read = _names_read(SOURCES)
    assert {qualified for qualified, name in _functions_and_methods()
            if name not in read} == BENCHMARK_ONLY


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statement(path):
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Global)]
    assert found == []


def test_one_cache_mechanism():
    # per-process state is built by functools.cache builders alone
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr in ("cached_property", "lru_cache")]
    found += [f"{path.name}:{node.lineno} {a.name}"
              for path in SOURCES for node in ast.walk(_tree(path))
              if isinstance(node, ast.ImportFrom)
              for a in node.names if a.name in ("cached_property", "lru_cache")]
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
# suites never touch cubic, aw, pairing or the su(3) suites, and the cubic
# suite none but cubic
NOT_FOR_EVAL = {"g2forge.suites", "g2forge.su3_suites", "g2forge.aw",
                "g2forge.pairing", "numpy"}
NOT_FOR_CORE_SUITES = {"g2forge.su3_suites", "g2forge.aw", "g2forge.pairing"}
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
], ids=["import-cli", "eval-P", "eval-project", "import-suites",
        "run-exterior", "run-g2"])
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
