"""Which g2forge functions the traced run wraps, and the per-layer
metrics derived from the recorded spans.

Layers are the package modules.  Span names are ``<module>.<function>``;
the suite runners are ``suites.<suite>``, ``haar_average_check`` is
``pairing.mc_eval`` (its self time is the Monte-Carlo work outside the
sampler), and the two one-time constructions are ``g2.frame_build`` and
``aw.block_tables.build``.
"""

from __future__ import annotations

import statistics

SPANS = {
    "linalg": ["apply", "echelon"],
    "g2": ["project2", "project3", "project4", "hat", "iso_i", "iso_i_inv",
           "solve_three_form"],
    "exterior": ["wedge", "contract", "hodge", "inner"],
    "cubic": ["b2", "q2", "q_value", "p_value", "quadratic_form"],
    "aw": ["first_principles_value", "comparison_form", "fit_block_cubic",
           "verify_tensor_displays", "verify_block_products"],
    "pairing": ["interpolate_p_coefficients", "sym_inner_poly", "haar_su3"],
}
LEAVES = ("scalars.quadext", "scalars.gauss")
# the suites the suites workload runs; the pairing suite's work (the cold
# pairing report and the Haar Monte Carlo) is the su3 workload's cold phase
SUITES = ("exterior", "g2", "cubic", "aw")
_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
               "__pow__", "inverse")


def install(tracer) -> None:
    """Wrap the traced functions; g2forge must already be imported."""
    from g2forge import aw, cubic, exterior, g2, linalg, pairing, scalars, \
        suites

    def span(name, hook=None):
        return lambda fn: tracer.span(name, fn, hook)

    def apply_hook(args, kwargs):
        matrix, vec = args[0], args[1]
        tracer.count("linalg.apply.mults", matrix.rows * matrix.cols)
        tracer.count("linalg.apply.zero_mults",
                     matrix.rows * sum(1 for c in vec if not c))

    def fpv_hook(args, kwargs):
        if not kwargs.get("single_route", args[2] if len(args) > 2 else False):
            tracer.count("aw.first_principles_value.two_route_calls", 1)

    def haar_hook(args, kwargs):
        tracer.count("pairing.haar_su3.samples", args[1])

    tracer.wrap_method(linalg.Matrix, "apply",
                       span("linalg.apply", apply_hook))
    tracer.wrap_function(linalg, "_echelon", span("linalg.echelon"))
    for name in SPANS["g2"]:
        tracer.wrap_method(g2.G2Frame, name, span(f"g2.{name}"))
    tracer.wrap_method(g2.G2Frame, "__init__", span("g2.frame_build"))
    for name in SPANS["exterior"]:
        tracer.wrap_function(exterior, name, span(f"exterior.{name}"))
    for name in SPANS["cubic"]:
        tracer.wrap_function(cubic, name, span(f"cubic.{name}"))
    for leaf, cls in zip(LEAVES, (scalars.QuadExt, scalars.GaussRational)):
        for name in _ARITHMETIC:
            if name in cls.__dict__:
                tracer.wrap_method(cls, name,
                                   lambda fn, leaf=leaf: tracer.leaf(leaf, fn))
    for name in SPANS["aw"]:
        hook = fpv_hook if name == "first_principles_value" else None
        tracer.wrap_function(aw, name, span(f"aw.{name}", hook))
    tracer.wrap_method(aw._BlockTables, "__init__",
                       span("aw.block_tables.build"))
    tracer.wrap_function(pairing, "interpolate_p_coefficients",
                         span("pairing.interpolate_p_coefficients"))
    tracer.wrap_function(pairing, "sym_inner_poly",
                         span("pairing.sym_inner_poly"))
    tracer.wrap_function(pairing, "haar_su3",
                         span("pairing.haar_su3", haar_hook))
    tracer.wrap_function(pairing, "haar_average_check",
                         span("pairing.mc_eval"))
    for name in SUITES:
        tracer.wrap_function(suites, f"suite_{name}", span(f"suites.{name}"))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, fns in SPANS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"),
                    (f"{layer}.{fn}.self_s", "s")]
            if (layer, fn) == ("linalg", "apply"):
                out += [("linalg.apply.mults", "count"),
                        ("linalg.apply.zero_share", "ratio")]
            elif (layer, fn) == ("aw", "first_principles_value"):
                out.append(("aw.first_principles_value.two_route_calls",
                            "count"))
            elif (layer, fn) == ("pairing", "interpolate_p_coefficients"):
                out.append(("pairing.interpolate_p_coefficients.points",
                            "count"))
            elif (layer, fn) == ("pairing", "haar_su3"):
                out.append(("pairing.haar_su3.samples", "count"))
    for leaf in LEAVES:
        out += [(f"{leaf}.calls", "count"), (f"{leaf}.self_s", "s")]
    out += [("g2.frame_build_s", "s"), ("aw.block_tables.build_s", "s"),
            ("pairing.mc_eval.self_s", "s")]
    out += [(f"suites.{name}.self_s", "s") for name in SUITES]
    out += [("cli.import_s", "s"), ("trace.overhead_share", "ratio")]
    return out


def _median_builds(summaries: list[dict], span_name: str) -> float:
    """Median inclusive duration of a one-time construction over the
    processes that ran it (0 when none did)."""
    builds = [s["spans"][span_name]["total_s"] / s["spans"][span_name]["calls"]
              for s in summaries if span_name in s["spans"]]
    return statistics.median(builds) if builds else 0.0


def per_layer(summaries: list[dict], probe_summaries: list[dict],
              import_times: list[float],
              overhead_share: float) -> dict[str, float]:
    """Merge the tracer summaries of the workload's traced processes
    into the per-layer metrics; the set-up probes add only to the
    one-time construction times and the import time."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    nested: dict[str, int] = {}
    for summ in summaries:
        for table in (summ["spans"], summ["leaves"]):
            for name, rec in table.items():
                acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += rec["calls"]
                acc["self_s"] += rec["self_s"]
        for src, dst in ((summ["counts"], counts), (summ["nested"], nested)):
            for key, n in src.items():
                dst[key] = dst.get(key, 0) + n

    def rec(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0})

    out: dict[str, float] = {}
    for layer, fns in SPANS.items():
        for fn in fns:
            r = rec(f"{layer}.{fn}")
            out[f"{layer}.{fn}.calls"] = r["calls"]
            out[f"{layer}.{fn}.self_s"] = r["self_s"]
    mults = counts.get("linalg.apply.mults", 0)
    out["linalg.apply.mults"] = mults
    out["linalg.apply.zero_share"] = \
        counts.get("linalg.apply.zero_mults", 0) / mults if mults else 0.0
    out["aw.first_principles_value.two_route_calls"] = \
        counts.get("aw.first_principles_value.two_route_calls", 0)
    out["pairing.interpolate_p_coefficients.points"] = nested.get(
        "pairing.interpolate_p_coefficients>aw.first_principles_value", 0)
    out["pairing.haar_su3.samples"] = counts.get("pairing.haar_su3.samples", 0)
    for leaf in LEAVES:
        out[f"{leaf}.calls"] = rec(leaf)["calls"]
        out[f"{leaf}.self_s"] = rec(leaf)["self_s"]
    everyone = summaries + probe_summaries
    out["g2.frame_build_s"] = _median_builds(everyone, "g2.frame_build")
    out["aw.block_tables.build_s"] = _median_builds(everyone,
                                                    "aw.block_tables.build")
    out["pairing.mc_eval.self_s"] = rec("pairing.mc_eval")["self_s"]
    for name in SUITES:
        out[f"suites.{name}.self_s"] = rec(f"suites.{name}")["self_s"]
    out["cli.import_s"] = statistics.median(import_times) if import_times \
        else 0.0
    out["trace.overhead_share"] = overhead_share
    return out
