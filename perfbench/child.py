"""One benchmark process: a set-up probe, the operators or su3 workload,
or one g2forge command line through the CLI entry point.

Run by perfbench/run.py with ``src`` on PYTHONPATH; writes one JSON
object to the path given by --out.  The speed meter (meter.py) runs
from the start of the process to the end of the timed work, and every
time reported is in seconds at the meter's reference speed, with the
raw wall time, probes left out, in ``work_raw_s``.  With --trace the
tracer wraps the package once the inputs are built and is removed
before the correctness gates; the spans, with raw times, are written
next to --out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from meter import Meter

_clock = time.perf_counter
T0 = _clock()
METER = Meter().start()


def _import_package() -> float:
    import g2forge.cli  # noqa: F401  (the import every CLI user pays)
    return _clock()


def _start_tracer(args):
    if not args.trace:
        return None
    import layers
    from tracer import Tracer
    tracer = Tracer(args.run_id)
    layers.install(tracer)
    return tracer


def _stop_tracer(tracer) -> None:
    """Unwrap the package before the correctness gates run."""
    if tracer is not None:
        tracer.uninstall()


def _finish(args, out: dict, tracer) -> None:
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(args.out + ".spans")
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def do_setup(args) -> None:
    imported = _import_package()
    tracer = _start_tracer(args)
    from g2forge.aw import standard_aw_frame
    from g2forge.g2 import standard_frame
    standard_frame()
    standard_aw_frame()
    done = _clock()
    METER.stop()
    _stop_tracer(tracer)
    out = {"setup_s": METER.scaled(T0, done),
           "import_s": METER.scaled(T0, imported),
           "work_raw_s": METER.raw(T0, done), "attempted": 1, "failed": 0}
    _finish(args, out, tracer)


def do_operators(args) -> None:
    _import_package()
    import workloads as wl
    from g2forge.g2 import standard_frame
    fr = standard_frame()
    ops = wl.operator_inputs(args.seed, args.count, fr)
    tracer = _start_tracer(args)
    results, spans, errors = [], [], []
    for kind, shape, op_args in ops:
        call = wl.operator_call(kind, fr)
        t = _clock()
        try:
            res = call(*op_args)
        except Exception as exc:    # a raised consistency error is a failure
            res = exc
        spans.append((t, _clock()))
        results.append(res)
    METER.stop()
    _stop_tracer(tracer)
    failed = 0
    outputs = []
    for (kind, shape, op_args), res in zip(ops, results):
        if isinstance(res, Exception):
            errors.append(f"{kind}/{shape}: {type(res).__name__}: {res}")
            failed += 1
            outputs.append(None)
            continue
        if not wl.check_operator(kind, op_args, res, fr):
            errors.append(f"{kind}/{shape}: defining identity fails")
            failed += 1
        outputs.append(wl.to_json(res))
    out = {
        "latencies": [METER.scaled(a, b) for a, b in spans],
        "work_raw_s": sum(METER.raw(a, b) for a, b in spans),
        "attempted": len(ops), "failed": failed, "errors": errors[:10],
        "inputs_digest": wl.digest([[k, s, [wl.to_json(a) for a in a_]]
                                    for k, s, a_ in ops]),
        "outputs_digest": wl.digest(outputs),
        "cli_cases": _cli_cases(ops, results, wl),
    }
    _finish(args, out, tracer)


def _cli_cases(ops, results, wl) -> list[dict]:
    """The first input of each `g2forge eval` operation with the result
    the CLI must print for it."""
    from g2forge import exterior as ext
    cli_op = {"q2": "q2", "b2": "b2", "Q": "Q", "P": "P", "hat": "hat",
              "project4": "project"}
    cases, seen = [], set()
    for (kind, _, op_args), res in zip(ops, results):
        op = cli_op.get(kind)
        if op is None or op in seen or isinstance(res, Exception):
            continue
        seen.add(op)
        if op == "P":
            expected = wl.to_json(res / 2)      # the CLI prints P/2
        elif op == "project":
            expected = dict(zip(("1", "7", "27"), wl.to_json(res)))
        else:
            expected = wl.to_json(res)
        cases.append({"op": op,
                      "forms": [ext.form_to_json(a) for a in op_args],
                      "expected": expected})
    return cases


def do_su3(args) -> None:
    _import_package()
    import workloads as wl
    from g2forge import aw, pairing
    mc_seeds, elements = wl.su3_inputs(args.seed, args.count)
    tracer = _start_tracer(args)
    errors = []
    t_pairing = _clock()
    rep = pairing.pairing_report()
    t_mc = _clock()
    mc = [wl.mc_check(k, s) for k, s in enumerate(mc_seeds)]
    t_cold = _clock()
    values, spans = [], []
    for xi in elements:
        t = _clock()
        try:
            values.append(aw.first_principles_value(xi))
        except Exception as exc:    # a raised consistency error is a failure
            values.append(exc)
        spans.append((t, _clock()))
    METER.stop()
    _stop_tracer(tracer)
    failed = 0
    if not wl.check_pairing_report(rep):
        errors.append(f"pairing report: {rep}")
        failed += 1
    for k, sub in enumerate(mc):
        if not wl.check_mc(sub):
            errors.append(f"Monte Carlo {k}: {sub}")
            failed += 1
    for xi, val in zip(elements, values):
        if isinstance(val, Exception) or val != wl.p_model_value(xi):
            errors.append(f"P at {xi.to_json()}: {val}")
            failed += 1
    out = {
        "cold_s": METER.scaled(T0, t_cold),
        "pairing_s": METER.scaled(t_pairing, t_mc),
        "mc_s": METER.scaled(t_mc, t_cold),
        "mc_samples": sum(sub["samples"] for sub in mc),
        "latencies": [METER.scaled(a, b) for a, b in spans],
        "work_raw_s": METER.raw(T0, t_cold) + sum(METER.raw(a, b)
                                                  for a, b in spans),
        "attempted": 1 + len(mc) + len(elements), "failed": failed,
        "errors": errors[:10],
        "inputs_digest": wl.digest([mc_seeds] + [xi.to_json()
                                                 for xi in elements]),
        "outputs_digest": wl.digest(
            [str(rep[k]) for k in sorted(rep)]
            + [str(v) for v in values]),
    }
    _finish(args, out, tracer)


def do_cli(args) -> None:
    """The CLI entry point on the g2forge argv given after ``--``: what
    ``python -m g2forge <argv>`` runs.  wall_s, at the reference speed,
    runs from the first line of this file to the return of cli.main,
    before any trace is summarised."""
    _import_package()
    tracer = _start_tracer(args)
    from g2forge import cli
    code = cli.main(args.cli_args)
    done = _clock()
    METER.stop()
    _stop_tracer(tracer)
    out = {"wall_s": METER.scaled(T0, done),
           "work_raw_s": METER.raw(T0, done),
           "exit": code, "attempted": 0, "failed": 0}
    _finish(args, out, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "operators", "su3", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    argv = sys.argv[1:] if argv is None else list(argv)
    # cli mode: everything after -- is the g2forge argv, verbatim
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]
    try:
        {"setup": do_setup, "operators": do_operators, "su3": do_su3,
         "cli": do_cli}[args.mode](args)
    finally:
        # a crash must not leave the timer to kill the process on exit
        METER.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
