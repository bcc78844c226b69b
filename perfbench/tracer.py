"""Span recorder for the traced benchmark run.

The tracer wraps public functions and methods of g2forge from outside
the package: every module-level binding of a traced function (the
modules import ``wedge``, ``contract`` and ``hodge`` by name, and
``suites.SUITE_RUNNERS`` holds the suite runners) is replaced by a
wrapper that records one span per call.  Spans carry a name, start and
end times, the index of the enclosing span and, through the file
header, the workload-run id.  They are kept in flat arrays in memory
and written out once, when the run ends.

Scalar arithmetic dunders run millions of times per run; recording a
span for each would dominate the trace, so they are aggregated leaves:
each call adds to a (calls, seconds) pair, and its time is charged to
the enclosing span as hidden child time so that self times stay exact.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")       # aggregated-leaf and hook time
        self.leaves: dict[str, list] = {}   # name -> [calls, seconds]
        self.counts: dict[str, int] = {}    # counts computed at call time
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, hook=None):
        """A wrapper of fn that records one span per call.  hook(args,
        kwargs) may add computed counts; it runs inside the span and
        its time is hidden, so it falls in no span's self time."""
        nid = self._name_id(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, hidden = self.start, self.end, self.hidden

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            hidden.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                if hook is not None:
                    t0 = _clock()
                    hook(args, kwargs)
                    hidden[idx] += _clock() - t0
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn):
        """A wrapper of fn aggregated into calls and seconds; only the
        outermost of nested leaf calls is timed."""
        rec = self.leaves.setdefault(name, [0, 0.0])
        stack, hidden = self._stack, self.hidden

        def traced(*args, **kwargs):
            rec[0] += 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._leaf_depth = 0
                rec[1] += dt
                if stack:
                    hidden[stack[-1]] += dt

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def wrap_function(self, module, attr: str, wrapper_of) -> None:
        """Replace the function module.attr at every binding in the
        loaded g2forge modules, dict-valued globals included."""
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for mod in [m for n, m in sys.modules.items()
                    if n == "g2forge" or n.startswith("g2forge.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value, "attr"))
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, v, "item"))
                            value[k] = wrapped

    def wrap_method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original, "attr"))
        setattr(cls, attr, wrapper_of(original))

    def uninstall(self) -> None:
        for owner, key, value, kind in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, value)
            else:
                owner[key] = value
        self._patches.clear()

    # -- derivation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, self seconds (duration minus child spans,
        aggregated leaves and hooks) and inclusive seconds; plus the leaves, the
        computed counts, and the number of children each span name has
        under each parent name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, dict] = {}
        nested: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rec = spans.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child[i] - self.hidden[i]
            rec["total_s"] += dur
            p = self.parent[i]
            if p >= 0:
                key = f"{self.names[self.name[p]]}>{name}"
                nested[key] = nested.get(key, 0) + 1
        leaves = {k: {"calls": c, "self_s": s}
                  for k, (c, s) in self.leaves.items()}
        return {"run_id": self.run_id, "spans": spans, "leaves": leaves,
                "counts": dict(self.counts), "nested": nested}

    def write(self, prefix: str) -> None:
        """Write the raw spans: a JSON header and one binary file per
        column (native byte order, typecodes in the header)."""
        cols = {"name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "hidden": self.hidden}
        header = {"run_id": self.run_id, "names": self.names,
                  "spans": len(self.name),
                  "columns": {k: v.typecode for k, v in cols.items()}}
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)
        for key, col in cols.items():
            with open(f"{prefix}.{key}.bin", "wb") as fh:
                col.tofile(fh)
