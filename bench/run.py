"""Layered benchmark for trapcav.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: force-grid, analysis, cli (listed in BENCHMARK.json) and
adaptive-hard (see bench/workloads.py).  adaptive-hard is left out of
BENCHMARK.json: at the seed commit each run is a single ~20 s operation that
hits the panel cap, and its run-to-run spread of ops_per_s (0.28 scaled,
0.16 unscaled over five seeds) is too wide for a bound, because the
calibration of bench/speed.py does not follow its memory-bound panel
bookkeeping.  Each run is one fresh process and a closed loop with a single
caller: the next operation starts when the previous one has returned and
been checked.  A run makes a fixed number of operations, about S seconds of
work at the seed commit (workloads.op_count), so that the same seed and S
always give the same operations, counts and failures.  trapcav is imported
from ./src.

--trace 0 measures the end-to-end metrics with no tracing installed.  Each
operation's and each set-up probe's wall time is scaled to a reference
machine speed by bench/speed.py, which explains why; the unscaled figures
and the scales are printed as well.

    setup_s         median over nine fresh processes, spread evenly over
                    the run, of the wall time from spawn to the first timed
                    operation (import trapcav, input generation, warm-up),
                    each scaled by process start-up slices taken just
                    before and after it; loading the reference is excluded
    ops_per_s       operations per second of operation time
    latency_ms_p50  median operation time
    peak_rss_mb     ru_maxrss of this process; for cli, of the largest child
    ok_ratio        operations that did not fail / attempted operations
    latency_ms_p90  printed when the run has at least 100 operations
    fail_ratio      failed / attempted operations (printed, 1 - ok_ratio)

--trace 1 takes a quarter of the inputs and runs each twice, untraced and
then with the timing wrappers of bench/tracing.py installed, and reports
per-layer metrics from the traced runs (per traced operation unless the unit
says otherwise) together with the tracing overhead, the ratio of traced to
untraced wall time.

Every output is checked against bench/reference.py, whose float64 evaluator
is itself checked against 30-digit mpmath and the exact phi = 0 force on two
cavities per run (results cached in .bench_out/).  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  ``failed`` counts
every failed operation; ``correct`` is false when the reference self-check
fails or an operation fails other than by one of the documented defects of
the seed program (bench/workloads.py).  Details of each run, with the machine
description, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array

import reference
import speed
import workloads
from tracing import RIEMANN_ARRAYS_PER_CELL, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
STARTUP_PROBES = 5
# traced runs take this share of the inputs of an untraced run of the same
# length, as each runs twice and tracing slows in-process work two- to
# threefold
TRACED_SHARE = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description="trapcav layered benchmark")
    parser.add_argument("--workload", required=True, choices=("force-grid", "analysis", "adaptive-hard", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for setup_s
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_trapcav() -> None:
    if not os.path.isfile(os.path.join(SRC, "trapcav", "__init__.py")):
        raise SystemExit(f"bench: no trapcav package under {SRC}")
    sys.path.insert(0, SRC)
    import trapcav

    if not os.path.abspath(trapcav.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported trapcav from {trapcav.__file__}, not {SRC}")


def _setup(args):
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, ROOT, OUT)
    inputs = wl.inputs(args.seed)
    # draw the first input here, so that set-up covers input generation
    inputs = itertools.chain([next(inputs)], inputs)
    wl.warmup()
    return wl, inputs


def _wall(cmd, env=None, until_line=False) -> tuple[float, bytes, bytes]:
    """Seconds from spawn to exit (or to the first stdout line), stdout, stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if until_line:
        proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    out, err = proc.communicate()
    if not until_line:
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: {cmd!r} exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    return elapsed, out, err


def _setup_probe(args, spawns) -> tuple[float, float]:
    """Start time and seconds from spawning a fresh process to its first
    operation, between two calibration slices of process start-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    spawns.sample()
    t0 = time.perf_counter()
    dt = _wall(cmd, until_line=True)[0]
    spawns.sample()
    return t0, dt


def _startup_decomposition() -> dict[str, float]:
    """Bare interpreter start, and the trapcav.cli / numpy shares of -X importtime."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare = statistics.median(_wall([sys.executable, "-c", "pass"])[0] for _ in range(STARTUP_PROBES))
    cli, numpy = [], []
    for _ in range(STARTUP_PROBES):
        _, _, err = _wall([sys.executable, "-X", "importtime", "-c", "import trapcav.cli"], env=env)
        cumulative = {}
        for line in err.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        cli.append(cumulative.get("trapcav.cli", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_s": bare, "cli.import_s": statistics.median(cli), "cli.numpy_import_s": statistics.median(numpy)}


def _timed(wl, item, tracer=None):
    """(seconds, outcome); an exception raised by trapcav is the outcome."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = wl.run(item)
        else:
            outcome = tracer.call("bench.op", wl.run, item, tracer)
    except Exception as err:  # a raising operation is a failed one, not a crash
        outcome = err
    return time.perf_counter() - t0, outcome


class Tally:
    """Checks each operation as it completes and keeps only the counts."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.accuracy_failures = 0
        self.reasons: set[str] = set()
        self.unexpected: list[str] = []
        self.output_bytes = 0
        self.nonzero_exits = 0

    def add(self, item, outcome) -> None:
        if self.first is None:
            self.first = item
        self.attempted += 1
        if isinstance(outcome, Exception):
            verdict = workloads.Verdict(False, f"raised {type(outcome).__name__}: {outcome}")
        else:
            try:
                verdict = self.wl.check(item, outcome)
            except (KeyError, TypeError, ValueError) as err:
                verdict = workloads.Verdict(False, f"malformed output: {type(err).__name__}: {err}")
        if isinstance(item, workloads.CliOp) and not isinstance(outcome, Exception):
            code, out, _ = outcome
            self.output_bytes += len(out)
            self.nonzero_exits += code != 0
        self.accuracy_failures += verdict.accuracy_failures
        if not verdict.ok:
            self.failed += 1
            self.reasons.add(verdict.reason)
            if not verdict.defect:
                self.unexpected.append(verdict.reason)


def _reference_self_check(args, first) -> list[str]:
    """mpmath and exact phi = 0 checks of the float64 reference, cached per case."""
    cav = getattr(first, "cav", first)
    rng = random.Random(f"self-check:{args.seed}")
    cases = [(cav.R / cav.a, cav.phi), (100.0 * 10.0 ** rng.random(), 0.0)]
    path = os.path.join(OUT, "mpmath-cache.json")
    try:
        with open(path, encoding="utf-8") as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        cache = {}
    mp = {}
    for rho, phi in cases:
        key = f"{rho!r},{phi!r}"
        if key not in cache:
            cache[key] = reference.forces_mp(rho, phi)
        mp[(rho, phi)] = tuple(cache[key])
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cache, fh)
    os.replace(tmp, path)
    return reference.self_check(cases, mp=mp)


def _environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _p90(latencies):
    if len(latencies) < 100:
        return None
    ordered = sorted(latencies)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _measure(args, wl, inputs, tally, ops_speed, spawns):
    """Untraced closed loop.  Between operations run a calibration slice
    whenever one is due, and the set-up probes, spread evenly over the run.

    Returns each operation's scaled and unscaled seconds, the scaled and
    unscaled set-up probe times, and the peak RSS."""
    starts, durations = array("d"), array("d")
    probes = []
    ops = workloads.op_count(wl, args.seconds)
    for i in range(ops):
        if ops_speed.due():
            ops_speed.sample()
        if len(probes) * ops <= SETUP_PROBES * i:
            probes.append(_setup_probe(args, spawns))
        item = next(inputs)
        starts.append(time.perf_counter())
        dt, outcome = _timed(wl, item)
        durations.append(dt)
        tally.add(item, outcome)
    ops_speed.sample()
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(args, spawns))
    scaled = [dt * ops_speed.factor(t0) for t0, dt in zip(starts, durations)]
    setups = [dt * spawns.factor(t0) for t0, dt in probes]
    rss_kb = wl.max_rss_kb if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return scaled, list(durations), setups, [dt for _, dt in probes], rss_kb


def _measure_traced(args, wl, inputs, tally, tracer):
    """Each input untraced, then traced: per-layer spans and the overhead."""
    plain, traced = [], []
    for _ in range(workloads.op_count(wl, args.seconds, TRACED_SHARE)):
        item = next(inputs)
        dt, _ = _timed(wl, item)
        plain.append(dt)
        tracer.install()
        try:
            dt, outcome = _timed(wl, item, tracer)
        finally:
            tracer.uninstall()
        traced.append(dt)
        tally.add(item, outcome)
    return plain, traced


def _layer_metrics(tracer, tally, plain, traced, startup):
    n = len(traced)
    totals = tracer.layer_totals()
    counts = tracer.counts

    def layer(prefix, field):
        return sum(v[field] for k, v in totals.items() if k.startswith(prefix + "."))

    def span(name, field):
        return totals.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    forces_calls = layer("forces", "calls")
    analysis_calls = layer("analysis", "calls")
    m = {
        "geometry.calls": (layer("geometry", "calls") / n, "count/op"),
        "geometry.self_s": (layer("geometry", "self_s") / n, "s/op"),
        "kernels.calls": (layer("kernels", "calls") / n, "count/op"),
        "kernels.self_s": (layer("kernels", "self_s") / n, "s/op"),
        "kernels.unique_points_ratio": (ratio(counts["forces.distinct_points"], counts["forces.kernel_calls"]), "ratio"),
        "quadrature.integrals": (span("quadrature.integrate_adaptive", "calls") / n, "count/op"),
        "quadrature.evals": (counts["quadrature.evals"] / n, "count/op"),
        "quadrature.panels": (counts["quadrature.evals"] / 15 / n, "count/op"),
        "quadrature.self_s": (span("quadrature.integrate_adaptive", "self_s") / n, "s/op"),
        "quadrature.pairwise_sum_calls": (span("quadrature.pairwise_sum", "calls") / n, "count/op"),
        "quadrature.pairwise_sum_s": (span("quadrature.pairwise_sum", "self_s") / n, "s/op"),
        "quadrature.not_converged": (counts["quadrature.not_converged"], "count"),
        "forces.calls": (forces_calls / n, "count/op"),
        "forces.self_s": (layer("forces", "self_s") / n, "s/op"),
        "forces.evals_per_call": (ratio(counts["forces.kernel_calls"], forces_calls), "count/call"),
        "forces.not_converged": (counts["forces.not_converged"], "count"),
        "forces.accuracy_failures": (tally.accuracy_failures, "count"),
        "analysis.calls": (analysis_calls / n, "count/op"),
        "analysis.self_s": (layer("analysis", "self_s") / n, "s/op"),
        "analysis.forces_per_call": (ratio(tracer.child_calls("forces", "analysis"), analysis_calls), "count/call"),
        "oracle.calls": (layer("oracle", "calls") / n, "count/op"),
        "oracle.self_s": (layer("oracle", "self_s") / n, "s/op"),
        "oracle.riemann_cells": (counts["oracle.riemann_cells"] / n, "count/op"),
        "oracle.riemann_bytes_computed": (counts["oracle.riemann_cells"] * 8 * RIEMANN_ARRAYS_PER_CELL / n, "bytes/op"),
        **{k: (v, "s") for k, v in startup.items()},
        "cli.run_self_s": (span("cli.main", "self_s") / n, "s/op"),
        "cli.output_bytes": (tally.output_bytes / n, "bytes/op"),
        "cli.nonzero_exits": (tally.nonzero_exits, "count"),
        "trace.overhead_ratio": (sum(traced) / sum(plain), "ratio"),
        "trace.ops": (n, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_trapcav()
    if args.setup_probe:
        _setup(args)
        print("ready", flush=True)
        return 0

    startup = _startup_decomposition() if args.trace else {}
    wl, inputs = _setup(args)
    tally = Tally(wl)

    tracer = None
    if args.trace:
        tracer = Tracer()
        plain, traced = _measure_traced(args, wl, inputs, tally, tracer)
    else:
        # cli operations are fresh processes, timed against process start-up
        spawns = speed.processes()
        ops_speed = spawns if args.workload == "cli" else speed.in_process()
        scaled, raw, setups, raw_setups, rss_kb = _measure(args, wl, inputs, tally, ops_speed, spawns)

    problems = _reference_self_check(args, tally.first)
    attempted, failed = tally.attempted, tally.failed
    correct = not problems and not tally.unexpected

    if args.trace:
        metrics = _layer_metrics(tracer, tally, plain, traced, startup)
        report = {}
    else:
        p90 = _p90(scaled)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(scaled), "unit": "1/s"},
            "latency_ms_p50": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        report = {
            "latency_ms_p90": {"value": None if p90 is None else p90 * 1e3, "unit": "ms"},
            "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
            "speed_factor": {"value": ops_speed.median_factor(), "unit": "ratio"},
            "spawn_factor": {"value": spawns.median_factor(), "unit": "ratio"},
            "setup_s_unscaled": {"value": statistics.median(raw_setups), "unit": "s"},
            "ops_per_s_unscaled": {"value": attempted / sum(raw), "unit": "1/s"},
            "latency_ms_p50_unscaled": {"value": statistics.median(raw) * 1e3, "unit": "ms"},
        }

    env = _environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"trapcav benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, m in {**metrics, **report}.items():
        value = "n/a (fewer than 100 ops)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}  (n={attempted})")
    print(f"  failed {failed} of {attempted}; {len(tally.unexpected)} not a documented defect")
    for reason in sorted(tally.reasons)[:10]:
        print(f"    failure: {reason}")
    for problem in problems:
        print(f"  reference self-check: {problem}")
    print(f"  reference self-check: {'ok' if not problems else 'FAILED'}")
    record = {"environment": env, "args": vars(args), "metrics": metrics, "report": report,
              "attempted": attempted, "failed": failed, "correct": correct,
              "failure_reasons": sorted(tally.reasons)[:20], "unexpected_failures": tally.unexpected[:20],
              "self_check_problems": problems}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"spans-{tag}.npz"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
