"""The g2forge benchmark.

    python3 perfbench/run.py --workload {operators,su3,suites} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` in child processes, never in this one.  Workloads:

  operators  a closed loop with one caller in one process after set-up:
             a seeded stream of the nine `eval` operators (equal shares,
             half sparse and half dense inputs), 18 ops per --seconds;
             then three rounds of one cold `g2forge eval` process per
             CLI operation, timed to the return of the CLI.
  su3        one fresh process: the cold pairing report and the Haar
             Monte-Carlo check of the three suite elements at 2 x 10^5
             samples each, then a closed-loop stream of two-route P
             evaluations, 10 per --seconds.
  suites     the exterior, g2, cubic and aw suites, each as one
             `g2forge run` command line in its own fresh process
             (perfbench/child.py calling the CLI entry point, as
             `python -m g2forge` does).

Every time reported is in seconds at the speed meter's reference speed
(meter.py): the host switches between two speeds every second or so,
and each timed process samples its own speed and scales its work by it.

Every untraced run also times six fresh set-up processes, three before
the workload and three after it.  The correctness gates run outside the
timed regions.  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics; with --trace 1 the
workload runs untraced, then three set-up probes and the workload run
traced, and it holds the per-layer metrics.  A record of the machine
and of the run goes to standard error and to .perfbench_out/records/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from meter import probe_kernel  # noqa: E402
from seeding import stream  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("operators", "su3", "suites")
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("cold_s", "s"))
SETUP_PROBES = 3         # before the main pass, and again after it
STREAM_PER_SECOND = {"operators": 18, "su3": 10}
COLD_EVAL_ROUNDS = 3
SUITE_RANDOM = 1
SUITE_EXIT = {"exterior": 0, "g2": 0, "cubic": 0, "aw": 1}
# the aw checks that fail by design: tabulated closed forms that the
# exact algebra corrects
AW_LEDGER = frozenset({
    "aw.block-product.p(phitilde,C(x))",
    "aw.block-product.p(y^Omega,C(x))",
    "aw.closed-display",
    "aw.generic-sum-display",
    "aw.pairing-vs-displays",
    "aw.tensor-display.i^{-1}(C(x))=-(1/2)e_a.I_ax",
    "aw.tensor-display.p(phitilde,C(x))=-4I_ax.e_a",
    "aw.tensor-display.p(y^Omega,C(x))=6y.Jx",
})
CHILD_TIMEOUT = 170


class RunState:
    """Counts and context gathered over one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.run_id = f"{workload}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.context: dict = {}

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def absorb(self, child: dict) -> None:
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.errors += child.get("errors", [])


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child(state: RunState, mode: str, tag: str, trace: bool,
           *extra: str) -> dict | None:
    """Run perfbench/child.py; its result with its standard output
    added as stdout, or None (and a recorded failure) if it crashed."""
    out = OUT / "children" / f"{state.workload}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--out", str(out),
           "--run-id", state.run_id]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        state.gate(False, f"child {mode}/{tag} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
        return None
    with open(out) as fh:
        res = json.load(fh)
    res["stdout"] = proc.stdout
    return res


def _percentile(values: list[float], q: float) -> float:
    """Nearest rank: of 100 values the 90th percentile is the 90th
    smallest, with 10 beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def _stream_metrics(latencies: list[float]) -> dict[str, float]:
    """ops_per_s over the summed busy time, and the p50/p90 latencies.
    With fewer than 11 ops no percentile has ten samples beyond it,
    so op_p90_ms is the slowest op."""
    p90 = _percentile(latencies, 0.9) if len(latencies) > 10 \
        else max(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * p90}


# -- one pass over a workload -------------------------------------------------

def setup_probes(state: RunState, trace: bool) -> list[dict]:
    probes = []
    for k in range(SETUP_PROBES):
        res = _child(state, "setup", f"setup{k}", trace)
        if res is not None:
            state.absorb(res)
            probes.append(res)
    return probes


def pass_operators(state: RunState, seconds: int, trace: bool) -> dict:
    count = STREAM_PER_SECOND["operators"] * seconds
    res = _child(state, "operators", "main", trace,
                 "--seed", str(state.seed), "--count", str(count))
    if res is None:
        return {}
    state.absorb(res)
    out = {"latencies": res["latencies"], "work_s": sum(res["latencies"]),
           "children": [res]}
    state.context["operators"] = {k: res[k] for k in
                                  ("inputs_digest", "outputs_digest")}
    if trace:
        return out
    # cold `g2forge eval` processes, one per CLI operation per round,
    # each timed from its start to the return of the CLI
    cli_dir = OUT / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for case in res["cli_cases"]:
        files = []
        for k, form in enumerate(case["forms"]):
            path = cli_dir / f"{case['op']}-{k}.json"
            path.write_text(json.dumps(form))
            files.append(str(path))
        cases.append((case, files))
    rounds = []
    for r in range(COLD_EVAL_ROUNDS):
        total = 0.0
        for case, files in cases:
            res = _child(state, "cli", f"eval-{case['op']}-{r}", False,
                         "--", "eval", case["op"], *files)
            if res is None:
                continue
            total += res["wall_s"]
            ok = res["exit"] == 0 and json.loads(res["stdout"]) == \
                {"operation": case["op"], "result": case["expected"]}
            state.gate(ok, f"g2forge eval {case['op']} output differs from "
                           f"the in-process result")
        rounds.append(total)
    out["cold_s"] = statistics.median(rounds)
    return out


def pass_su3(state: RunState, seconds: int, trace: bool) -> dict:
    count = STREAM_PER_SECOND["su3"] * seconds
    res = _child(state, "su3", "main", trace,
                 "--seed", str(state.seed), "--count", str(count))
    if res is None:
        return {}
    state.absorb(res)
    state.context["su3"] = {
        "pairing_s": res["pairing_s"],
        "mc_samples_per_s": res["mc_samples"] / res["mc_s"],
        "p_evals_per_s": len(res["latencies"]) / sum(res["latencies"]),
        "inputs_digest": res["inputs_digest"],
        "outputs_digest": res["outputs_digest"]}
    return {"latencies": res["latencies"], "cold_s": res["cold_s"],
            "work_s": res["cold_s"] + sum(res["latencies"]),
            "children": [res]}


def _failing_ids(report_path: Path) -> set[str] | None:
    """The ids of the failing checks in a suite report; None if the
    report is missing or unreadable."""
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        return {c["id"] for sub in report["suites"] for c in sub["checks"]
                if c["status"] == "fail"}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def pass_suites(state: RunState, seconds: int, trace: bool) -> dict:
    """Each suite in a fresh process running the CLI entry point on
    one g2forge command line, traced or not.  The ops are the times
    from process start to the return of the CLI."""
    suite_seed = stream(state.seed, "suites").randrange(2 ** 31)
    rep_dir = OUT / "suites"
    rep_dir.mkdir(parents=True, exist_ok=True)
    times, children = [], []
    context = state.context.setdefault("suites", {"seed": suite_seed})
    for name in layers.SUITES:
        report = rep_dir / f"{name}{'-traced' if trace else ''}.json"
        report.unlink(missing_ok=True)
        res = _child(state, "cli", name, trace, "--", "run", "--suite",
                     name, "--seed", str(suite_seed), "--random",
                     str(SUITE_RANDOM), "--format", "json", "--output",
                     str(report))
        if res is None:
            continue
        times.append(res["wall_s"])
        children.append(res)
        if trace:
            untraced = rep_dir / f"{name}.json"
            state.gate(report.is_file() and untraced.is_file()
                       and report.read_bytes() == untraced.read_bytes(),
                       f"suite {name}: traced report differs from untraced")
        else:
            context[f"suite_{name}_s"] = res["wall_s"]
        want = AW_LEDGER if name == "aw" else set()
        failing = _failing_ids(report)
        state.gate(res["exit"] == SUITE_EXIT[name] and failing == want,
                   f"suite {name}: exit {res['exit']}, failing checks "
                   f"{'no report' if failing is None else sorted(failing)}")
    context["report_s"] = sum(times)
    return {"latencies": times, "cold_s": sum(times), "work_s": sum(times),
            "children": children}


PASSES = {"operators": pass_operators, "su3": pass_su3, "suites": pass_suites}


# -- machine record -------------------------------------------------------------

def calibration_s() -> float:
    """The meter's stdlib-only Fraction kernel at 40000 steps: context
    for machine drift, not a metric."""
    t = time.perf_counter()
    probe_kernel(40000)
    return time.perf_counter() - t


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": os.getloadavg()}


# -- main ---------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    state = RunState(workload, seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "run_id": state.run_id,
              "machine": machine(), "calibration_before_s": calibration_s()}
    if trace:
        # the untraced pass is the reference for the tracing overhead
        main = PASSES[workload](state, seconds, False)
        probes = setup_probes(state, True)
        traced = PASSES[workload](state, seconds, True)
        complete = bool(main and probes and traced)
    else:
        probes = setup_probes(state, False)
        main = PASSES[workload](state, seconds, False)
        probes += setup_probes(state, False)
        complete = bool(main and probes)
    record["calibration_after_s"] = calibration_s()
    # a machine whose speed changed during the run shows here; such a
    # run's timings are not comparable with its neighbours'
    record["calibration_drift"] = \
        record["calibration_after_s"] / record["calibration_before_s"] - 1
    record["context"] = state.context
    record["errors"] = state.errors[:20]
    if not complete:
        return {"correct": False, "attempted": max(state.attempted, 1),
                "failed": max(state.failed, 1), "metrics": {}}, record
    if trace:
        metrics = layers.per_layer(
            [c["trace"] for c in traced["children"]],
            [p["trace"] for p in probes], [p["import_s"] for p in probes],
            traced["work_s"] / main["work_s"] - 1)
        units = dict(layers.metric_names())
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": peak_kb / 1024,
            **_stream_metrics(main["latencies"]),
            "cold_s": main["cold_s"],
        }
        units = dict(END_TO_END)
    result = {"correct": state.failed == 0, "attempted": state.attempted,
              "failed": state.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "g2forge" / "__init__.py").is_file():
        print(f"perfbench: no g2forge sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    for sub in ("records", "children"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(OUT / "records" / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
