"""orbitlab benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload {mc_a9,census_ladder,surgery_nd}
                             [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; orbitlab is imported from ./src.
Everything runs in this process on one thread, except the set-up probes:
fresh copies of this script, run one after another, each of which imports
orbitlab, builds the inputs and runs one warm-up operation.

A run builds the workload's inputs from --seed, runs one untimed warm-up pass,
then repeats passes over the workload's operations while the next one still
fits in --seconds (at least MIN_ROUNDS of them).  Every pass must give the
same outputs and exact counts as the warm-up pass, and the warm-up pass is
checked against the oracles.

--trace 0 reports the end-to-end metrics:
  setup_s      median over the probes of process start to the end of the
               warm-up operation, in reference seconds
  wall_s       time of one pass in reference seconds: the sum over its
               operations of each operation's median time over the passes
Reference seconds take the host's changes of speed out: a reference kernel
runs between the operations (between the probes, a fresh interpreter that
imports fixed modules), and each stretch of program time is rescaled by how
long the kernel took around it (perfbench/hostref.py).
  ok_frac      operations that did not fail over operations attempted
  peak_rss_mb  maximum resident set size of this process up to the end of
               the warm-up pass
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead and the raw (unscaled) times, and writes the
spans to .perfbench_out/.
perfbench/METRICS.md says what each metric counts and should move.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# One thread: no BLAS or OpenMP worker threads in this process or the probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mc_a9", "census_ladder", "surgery_nd")
SETUP_PROBES = 7
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The run cannot produce trustworthy numbers."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import orbitlab from ./src of this checkout, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "orbitlab", "__init__.py")):
        raise BenchError(f"no orbitlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import orbitlab

    if os.path.dirname(os.path.dirname(os.path.abspath(orbitlab.__file__))) != SRC:
        raise BenchError(f"orbitlab imported from {orbitlab.__file__}, not {SRC}")


def build(name: str, seed: int):
    # workloads imports orbitlab, so it can only load after import_program
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, OUT)


def probe_setup(args) -> tuple:
    """Median of SETUP_PROBES fresh processes' start-to-warm-up times, in
    reference seconds and raw.  An interpreter that imports a fixed set of
    modules runs before and after each probe as its reference."""
    from hostref import HostClock, ImportKernel

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    clock = HostClock(ImportKernel())
    clock.ref()
    for _ in range(SETUP_PROBES):
        with clock.op():
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
        clock.ref()
    return statistics.median(clock.scaled()), statistics.median(clock.raw())


def same_pass(result, warm, counts_seen: dict, mode: str):
    """Outputs must equal the warm-up pass; exact counts must repeat within
    each mode (traced passes count more than untraced ones)."""
    if result.outputs != warm.outputs:
        raise BenchError(f"a {mode} pass gave different outputs from the warm-up pass")
    first = counts_seen.setdefault(mode, result.counts)
    if result.counts != first:
        raise BenchError(f"{mode} pass counts {result.counts} differ from {first}")
    if (result.attempted, result.failed) != (warm.attempted, warm.failed):
        raise BenchError(f"a {mode} pass attempted/failed differ from the warm-up pass")


def timed_passes(workload, warm, kernel, seconds: float, trace: bool):
    """Repeat passes (an untraced and, with `trace`, a traced one per round)
    while the next round still fits in `seconds`, and at least MIN_ROUNDS."""
    from tracing import Tracer

    walls, traced_walls, traces = [], [], []
    counts_seen: dict = {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        rounds = len(walls)
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
        r = workload.run_pass(kernel=kernel)
        same_pass(r, warm, counts_seen, "untraced")
        walls.append(r)
        if trace:
            tracer = Tracer()
            rt = workload.run_pass(tracer)
            same_pass(rt, warm, counts_seen, "traced")
            traced_walls.append(rt)
            traces.append(tracer)
    return walls, traced_walls, traces, counts_seen


def pass_wall(passes: list, scaled: bool = False) -> float:
    """Time of one pass, built operation by operation: the sum over the
    pass's timed operations of each one's median over the passes, in
    reference seconds if `scaled`, else raw.  A burst of host load that
    slows one operation in one pass does not move it."""
    return sum(statistics.median(op) for op in
               zip(*(p.scaled if scaled else p.times for p in passes)))


def _m(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(workload, walls, traced_walls, traces, counts_seen, raw_setup_s) -> dict:
    """Per-pass per-layer metrics: exact counts from the first traced pass
    (they repeat), times as the mean over traced passes."""
    t0 = traces[0]
    k = len(traces)
    counts = counts_seen["traced"]
    rows = [
        (
            sorted(s.name for s in t.spans),
            {kind: tuple(v[:2]) for kind, v in t.dynamics.items()},
            t.counters,
        )
        for t in traces
    ]
    if any(row != rows[0] for row in rows):
        raise BenchError("traced passes differ in their exact counts")

    def calls(name):
        return len(t0.named(name))

    def secs(name):
        return sum(t.total_s(name) for t in traces) / k

    def self_secs(name):
        return sum(t.self_s(name) for t in traces) / k

    def dyn(kind):
        c, p = t0.dynamics[kind][:2]
        return c, p, sum(t.dynamics[kind][2] for t in traces) / k

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    sc, _, ss = dyn("scalar")
    vc, vp, vs = dyn("vector")
    nc, _, ns = dyn("nd")
    fp_calls = calls("census.find_periodic")
    evals = t0.counters.get("census.evaluations", 0)
    gl_calls = calls("hyperbolicity.gamma_linear")
    expansions = t0.counters.get("gridlab.expansions", 0)

    # a sample's time runs from its perturbation draw to the next one, or to
    # the end of run_experiment for the last sample
    per_sample = []
    for t in traces:
        for idx, run in enumerate(t.spans):
            if run.name == "experiment.run_experiment":
                starts = [s.start for s in t.spans
                          if s.name == "perturbation.sample" and s.parent == idx]
                ends = starts[1:] + [run.end]
                per_sample.extend(b - a for a, b in zip(starts, ends))
    if per_sample:
        q = statistics.quantiles(per_sample, n=10, method="inclusive")
        p50, p80 = statistics.median(per_sample), q[7]
    else:
        p50 = p80 = 0.0
    num_samples = getattr(workload, "NUM_SAMPLES", 0)

    return {
        "perturbation.sample.calls": _m(calls("perturbation.sample"), "count"),
        "perturbation.sample.s": _m(secs("perturbation.sample"), "s"),
        "dynamics.scalar.calls": _m(sc, "count"),
        "dynamics.scalar.s": _m(ss, "s"),
        "dynamics.scalar.ns_per_call": _m(ratio(ss, sc, 1e9), "ns"),
        "dynamics.vector.calls": _m(vc, "count"),
        "dynamics.vector.points": _m(vp, "count"),
        "dynamics.vector.s": _m(vs, "s"),
        "dynamics.vector.ns_per_point": _m(ratio(vs, vp, 1e9), "ns"),
        "dynamics.range.s": _m(secs("dynamics.range"), "s"),
        "dynamics.nd.calls": _m(nc, "count"),
        "dynamics.nd.s": _m(ns, "s"),
        "census.find_periodic.calls": _m(fp_calls, "count"),
        "census.find_periodic.s": _m(secs("census.find_periodic"), "s"),
        "census.find_periodic.self_s": _m(self_secs("census.find_periodic"), "s"),
        "census.evaluations": _m(evals, "count"),
        "census.certified_frac": _m(ratio(t0.counters.get("census.certified", 0), fp_calls), "fraction"),
        "census.wasted_eval_frac": _m(ratio(t0.counters.get("census.wasted_evaluations", 0), evals), "fraction"),
        "census.ih_check.calls": _m(calls("census.ih_check"), "count"),
        "census.ih_check.s": _m(secs("census.ih_check"), "s"),
        "census.ih_check.self_s": _m(self_secs("census.ih_check"), "s"),
        "census.max_certified_period.quadratic": _m(counts.get("census.max_certified_period.quadratic", 0), "period"),
        "census.max_certified_period.chaotic": _m(counts.get("census.max_certified_period.chaotic", 0), "period"),
        "hyperbolicity.gamma_linear.calls": _m(gl_calls, "count"),
        "hyperbolicity.gamma_linear.s": _m(secs("hyperbolicity.gamma_linear"), "s"),
        "hyperbolicity.gamma_linear.us_per_call": _m(ratio(secs("hyperbolicity.gamma_linear"), gl_calls, 1e6), "us"),
        "lagrange.kernel.calls": _m(calls("lagrange.kernel"), "count"),
        "lagrange.kernel.s": _m(secs("lagrange.kernel"), "s"),
        "lagrange.surgery.calls": _m(calls("lagrange.surgery"), "count"),
        "lagrange.surgery.s": _m(secs("lagrange.surgery"), "s"),
        "gridlab.enumerate.s": _m(secs("gridlab.enumerate"), "s"),
        "gridlab.expansions": _m(expansions, "count"),
        "gridlab.us_per_expansion": _m(ratio(secs("gridlab.enumerate"), expansions, 1e6), "us"),
        "experiment.sample.p50_s": _m(p50, "s"),
        "experiment.sample.p80_s": _m(p80, "s"),
        "experiment.samples_per_s": _m(ratio(num_samples, pass_wall(walls, scaled=True)), "1/s"),
        "experiment.fit_C.s": _m(secs("experiment.fit_C"), "s"),
        "experiment.emit_reports.s": _m(secs("experiment.emit_reports"), "s"),
        "experiment.report_bytes": _m(counts.get("experiment.report_bytes", 0), "bytes"),
        "cli.self_s": _m(self_secs("cli.main"), "s"),
        "tracing.traced_wall_s": _m(pass_wall(traced_walls), "s"),
        "tracing.overhead_s": _m(pass_wall(traced_walls) - pass_wall(walls), "s"),
        "host.raw_wall_s": _m(pass_wall(walls), "s"),
        "host.raw_setup_s": _m(raw_setup_s, "s"),
        "host.speed": _m(statistics.median(p.speed for p in walls), "ratio"),
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources: runs with the same digest
    and seed must count exactly the same."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "orbitlab"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_counts_repeat(args, counts: dict):
    """Compare this run's exact counts with the last run of the same
    sources, workload, seed and trace flag, then record them."""
    path = os.path.join(OUT, f"counts-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {"source": source_digest(), "counts": counts}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
        if prev["source"] == record["source"] and prev["counts"] != counts:
            raise BenchError(f"exact counts {counts} differ from an earlier run's {prev['counts']}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.setup_probe:
        build(args.workload, args.seed).warmup_op()
        return 0

    setup_s, raw_setup_s = probe_setup(args)
    from hostref import KERNELS
    from workloads import OracleError
    from tracing import write_dump

    workload = build(args.workload, args.seed)
    warm = workload.run_pass()
    # read after one pass, before the reference kernel's buffers exist:
    # later passes allocate the same, but how many of them fit in the run
    # depends on the host's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel = KERNELS[workload.KERNEL]()
    walls, traced_walls, traces, counts_seen = timed_passes(
        workload, warm, kernel, args.seconds, bool(args.trace)
    )
    passes = len(walls) + len(traced_walls)
    attempted = warm.attempted * passes
    failed = warm.failed * passes

    correct = True
    try:
        workload.check(warm)
    except OracleError as err:
        print(f"perfbench: oracle failed: {err}", file=sys.stderr)
        correct = False

    if args.trace:
        metrics = layer_metrics(workload, walls, traced_walls, traces, counts_seen, raw_setup_s)
        exact = dict(counts_seen["traced"])
        exact.update((k, v["value"]) for k, v in metrics.items()
                     if v["unit"] in ("count", "bytes", "period"))
        dump = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        write_dump(dump, traces)
        print(f"spans: {os.path.relpath(dump, ROOT)} ({len(traces)} traced passes)")
    else:
        metrics = {
            "setup_s": _m(setup_s, "s"),
            "wall_s": _m(pass_wall(walls, scaled=True), "s"),
            "ok_frac": _m((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": _m(peak_rss_mb, "MB"),
        }
        exact = dict(counts_seen["untraced"])
    check_counts_repeat(args, exact)

    for label, key in (("raw", "times"), ("reference", "scaled")):
        totals = [sum(getattr(p, key)) for p in walls]
        print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes, {label} pass "
              f"time min {min(totals):.4f} s median {statistics.median(totals):.4f} s "
              f"max {max(totals):.4f} s")
    print(f"raw set-up {raw_setup_s:.4f} s; {warm.failed} of {warm.attempted} operations "
          f"failed per pass")
    print("exact counts: " + json.dumps(exact, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
