"""The mutant registry (tests/mutants.py): each tier-1 entry rerun in a
fresh interpreter against its record, and the registry's hygiene,
checked without running an entry."""

import ast
import inspect
import json
from pathlib import Path

import pytest

import mutants
from mutants import LEDGER, REGISTRY


@pytest.mark.parametrize("entry", [m for m in REGISTRY if m.tier1],
                         ids=lambda m: m.name)
def test_mutant_keeps_its_record(entry):
    """A caught entry is still caught, with its pinned ids, texts, exit
    code and probe value; a gap or equivalent entry is still caught by
    no check, so a check that starts catching it fails here until its
    record moves."""
    assert mutants.differences(entry, mutants.run(entry)) == []


# a sweep that raises is one record under these ids; a passing sweep
# records its rows, aw.tensor-display.* and aw.block-product.*, instead
_SWEEPS = {"aw.tensor-displays", "aw.block-products"}


def _golden_ids() -> set:
    """The check ids of the golden suite reports, and the id of each
    sweep whose rows they hold."""
    ids = set()
    for path in (Path(__file__).parent / "golden").glob("*.json"):
        data = json.loads(path.read_text())
        if isinstance(data, dict):  # a suite report, not the operators'
            ids.update(c["id"] for r in data["suites"] for c in r["checks"])
    return ids | {s for s in _SWEEPS
                  if any(cid.startswith(s[:-1] + ".") for cid in ids)}


def test_registry_records_are_well_formed():
    """Names are unique; every pinned id is a check of a golden report;
    a caught entry pins a failure beyond the ledger or a probe value,
    and a gap or equivalent entry pins no failure beyond the ledger and
    says why, a gap naming the ROADMAP item that must close it."""
    assert len({m.name for m in REGISTRY}) == len(REGISTRY)
    known = _golden_ids()
    for m in REGISTRY:
        assert m.outcome in mutants.OUTCOMES, m.name
        assert (m.failed | m.actual.keys()) <= known, m.name
        assert bool(m.argv) == (m.exit is not None), m.name
        if m.outcome == "caught":
            assert m.failed - LEDGER or m.probe, m.name
        else:
            assert m.failed <= LEDGER and m.why, m.name
        if m.outcome == "gap":
            assert "ROADMAP item" in m.why, m.name


def _value(node, scope):
    return eval(compile(ast.Expression(node), "<patch>", "eval"), scope)


def _patch_targets(entry):
    """The patch's top-level targets, as (kind, owner, what): an attribute
    it sets, an item it sets in a table that it names through its
    imports, a def it rewrites with its anchor, or an item it negates."""
    tree = ast.parse(inspect.cleandoc(entry.patch))
    scope = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exec(compile(ast.Module([node], []), "<patch>", "exec"), scope)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Attribute):
                    yield "set", _value(t.value, scope), t.attr
                elif isinstance(t, ast.Subscript) \
                        and not isinstance(t.value, ast.Name):
                    yield "item", _value(t.value, scope), \
                        _value(t.slice, scope)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            args = [_value(a, scope) for a in call.args]
            yield call.func.id, args[0], args[1:]


def test_patches_name_what_exists():
    """Every name a patch sets exists, every table item it sets or
    negates exists, and every anchor it rewrites occurs exactly once in
    the def's source: a renamed name or a moved line fails here, not as
    a silently unpatched run."""
    seen = 0
    for m in REGISTRY:
        for kind, owner, what in _patch_targets(m):
            seen += 1
            if kind == "set":
                assert hasattr(owner, what), (m.name, what)
            elif kind == "item":
                assert what in owner, (m.name, what)
            elif kind == "negate":
                key, *index = what
                assert isinstance(owner[key][index[0] if index else 0][-1],
                                  int), (m.name, what)
            else:
                assert kind == "rewrite", (m.name, kind)
                name, old, _ = what
                source = inspect.getsource(getattr(owner, name))
                assert source.count(old) == 1, (m.name, name, old)
    assert seen >= len(REGISTRY)


# the non-ledger check ids of the full-size goldens that no caught entry
# fails (ROADMAP item 25), none: a check that loses its last entry, or a
# new check with none, adds one
UNCOVERED = frozenset()


def test_uncovered_checks_are_pinned():
    """Read off the records alone, without running an entry: the check
    ids no caught entry fails are UNCOVERED, and every other non-ledger
    id of the full-size goldens is failed by at least one."""
    found = mutants.coverage()
    assert not found.keys() & LEDGER
    assert {cid for cid, names in found.items() if not names} == UNCOVERED
