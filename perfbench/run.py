"""Benchmark of ``padic_sr.analyze``, the per-cover certification pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload odd_survey --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; there is nothing to
build.  One process with one thread runs one workload (see ``workloads.py``):

* ``--trace 0`` times whole rounds of covers until ``--seconds`` have passed
  and at least ``MIN_SAMPLES`` covers are timed, with unwrapped code, and
  reports the end-to-end metrics.
* ``--trace 1`` times ``trace_rounds`` rounds unwrapped, then the next
  ``trace_rounds`` rounds with the tracer of ``tracer.py`` installed, and
  reports the per-layer metrics; the spans are written to
  ``perfbench/out/``.

Times are reported at a fixed reference machine speed.  The speed of a
shared machine can drift by a large factor over minutes, so a short probe of
fixed exact arithmetic (``probe_ns``, untouched by any change to the package)
runs after every set-up and after every cover, for at least ``PROBE_SHARE``
of the cover's time; each time is scaled by ``PROBE_REF_NS`` over the mean
probe time measured next to it (per round for covers).  The unscaled figures
are printed beside the scaled ones.

Every report passes through the gate of ``gate.py``.  Human-readable lines
(environment, every metric with its unit and base) come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when the
gate held for every cover; a cover that raises a ``padic_sr`` domain error
(``ArtifactError``) is a counted failure, any other exception breaks the gate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from gate import check_report
from tracer import ROOT, STAGES, COUNTED, Tracer
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Covers timed at least, so that ten or more lie beyond the p90.
MIN_SAMPLES = 100
#: Set-ups before and again after the timed pass; setup_s is their median.
SETUP_REPEATS = 5
#: Steps of one probe slice, and its time at the reference machine speed.
PROBE_STEPS = 100
PROBE_REF_NS = 1_000_000
#: Probe slices after a cover last at least this share of its latency.
PROBE_SHARE = 0.1
#: Covers generated per second of run time: room for a 5 ms/cover program.
POOL_RATE = 200

#: Per-layer metric names, in report order.
LAYERS = sorted({name for name, *_ in STAGES}) + [ROOT]
KNOWN_FAILURES = ("IrreducibilityUnverified",)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_package():
    """Import padic_sr afresh from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "padic_sr" or m.startswith("padic_sr.")]:
        del sys.modules[name]
    pkg = importlib.import_module("padic_sr")
    if Path(pkg.__file__).resolve().parent.parent != CHECKOUT / "src":
        raise ImportError(f"padic_sr imported from {pkg.__file__}, "
                          f"not from {CHECKOUT / 'src'}")
    return pkg


def probe_ns():
    """Time of a fixed slice of exact arithmetic that no change to padic_sr
    touches, so it measures the speed of the machine at that moment."""
    t0 = perf_counter_ns()
    acc = {}
    for i in range(1, PROBE_STEPS + 1):
        x = Fraction(i * i + 1, 2 * i + 3) * Fraction(3 * i + 1, i + 5) \
            + Fraction(i, 7)
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + x
    return perf_counter_ns() - t0


def setup(workload, seed, rounds):
    """Import the package and generate the covers, SETUP_REPEATS times.

    Returns (set-up seconds of each repeat at the reference machine speed,
    package, errors module, rounds).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter_ns()
        pkg = load_package()
        errors = sys.modules["padic_sr.errors"]
        covers = generate(workload, seed, rounds, pkg.branch_signature,
                          (errors.Disconnected, errors.NotThreePoint))
        times.append((perf_counter_ns() - t0) * PROBE_REF_NS / probe_ns()
                     / 1e9)
    return times, pkg, errors, covers


class Pass:
    """Outcomes of one pass over whole rounds of covers.  A round's times
    are scaled by PROBE_REF_NS over the mean of its probe slices."""

    def __init__(self):
        self.rounds = []  # ([ns per cover], wall ns, mean probe ns)
        self.failures = Counter()  # exception class name -> covers
        self.violations = []

    @property
    def attempted(self):
        return sum(len(lat) for lat, _, _ in self.rounds)

    @property
    def failed(self):
        return sum(self.failures.values())

    def covers_per_s(self):
        return self.attempted * 1e9 / sum(
            ns * PROBE_REF_NS / probe for _, ns, probe in self.rounds)

    def latencies(self):
        """Per-cover latencies at the reference machine speed."""
        return sorted(x * PROBE_REF_NS / probe
                      for lat, _, probe in self.rounds for x in lat)


def run_pass(rounds, call, artifact_error, seconds=None):
    """Run whole rounds: all of them, or until ``seconds`` have passed and
    MIN_SAMPLES covers are timed.  ``call(index, p, n, a, b)`` analyzes one
    cover; a round's wall time leaves out the gate and the probes."""
    res = Pass()
    start = perf_counter_ns()
    for rnd in rounds:
        lat = []
        probe_ns_sum = slices = 0
        other_ns = 0
        round_start = perf_counter_ns()
        for cover in rnd:
            t0 = perf_counter_ns()
            try:
                report, error = call(res.attempted + len(lat), *cover), None
            except Exception as exc:  # every outcome is recorded below
                report, error = None, exc
            t1 = perf_counter_ns()
            lat.append(t1 - t0)
            if error is not None:
                res.failures[type(error).__name__] += 1
                if not isinstance(error, artifact_error):
                    res.violations.append(
                        f"{cover}: uncaught {type(error).__name__}: {error}")
            else:
                res.violations.extend(
                    f"{cover}: {v}" for v in check_report(*cover[:2], report))
            spent = 0
            while not spent or spent < PROBE_SHARE * lat[-1]:
                spent += probe_ns()
                slices += 1
            probe_ns_sum += spent
            other_ns += perf_counter_ns() - t1
        res.rounds.append((lat, perf_counter_ns() - round_start - other_ns,
                           probe_ns_sum / slices))
        if seconds is not None and res.attempted >= MIN_SAMPLES and \
                perf_counter_ns() - start >= seconds * 1e9:
            break
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(res):
    share = res.failed / res.attempted
    print(f"failed_ratio       {share:.4f} ratio  ({res.failed} failed / "
          f"{res.attempted} attempted)")
    for name, count in sorted(res.failures.items()):
        print(f"  failures.{name}  {count}")


def end_to_end(res, setup_times):
    lat = res.latencies()
    raw = sorted(x for r, _, _ in res.rounds for x in r)
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[-1]
    beyond = sum(1 for x in lat if x > p90)
    wall = sum(ns for _, ns, _ in res.rounds)
    probe = statistics.median(p for _, _, p in res.rounds)
    certified = res.attempted - res.failed
    setup_s = statistics.median(setup_times)
    print(f"probe slice        {probe:.0f} ns median, reference "
          f"{PROBE_REF_NS} ns")
    print(f"covers_per_s       {res.covers_per_s():.3f} 1/s  ({len(res.rounds)} "
          f"rounds of {len(res.rounds[0][0])} covers; unscaled "
          f"{res.attempted} covers / {wall / 1e9:.3f} s = "
          f"{res.attempted * 1e9 / wall:.3f} 1/s)")
    print(f"cover_p50_ns       {p50:.0f} ns  (n = {len(lat)}; unscaled "
          f"{statistics.median(raw):.0f} ns)")
    print(f"cover_p90_ns       {p90:.0f} ns  (n = {len(lat)}, {beyond} beyond; "
          f"unscaled {statistics.quantiles(raw, n=10)[-1]:.0f} ns)")
    _print_failures(res)
    print(f"certified_ratio    {certified / res.attempted:.4f} ratio  "
          f"({certified} certified / {res.attempted} attempted)")
    print(f"setup_s            {setup_s:.4f} s  (median of "
          f"{len(setup_times)} set-ups, {min(setup_times):.4f} to "
          f"{max(setup_times):.4f}, at the reference speed)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_kb        {rss} kB")
    return {
        "covers_per_s": _metric(res.covers_per_s(), "1/s"),
        "cover_p50_ns": _metric(p50, "ns"),
        "cover_p90_ns": _metric(p90, "ns"),
        "certified_ratio": _metric(certified / res.attempted, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_kb": _metric(rss, "kB"),
    }


def per_layer(plain, traced, tracer):
    covers = traced.attempted
    self_ns = tracer.self_ns()
    total_ns = tracer.total_ns()
    calls = tracer.calls()
    total = sum(self_ns.values())
    metrics = {}
    print(f"traced pass: {covers} covers, {total / covers:.0f} ns/cover "
          "in spans (unscaled); per layer: self ns/cover, share of traced "
          "time, inclusive ns/cover, share, calls")
    for layer in LAYERS:
        print(f"  {layer:36s} {self_ns[layer] / covers:12.0f} "
              f"{self_ns[layer] / total:6.1%} "
              f"{total_ns[layer] / covers:12.0f} "
              f"{total_ns[layer] / total:6.1%}  {calls[layer]}")
        metrics[f"{layer}.self_ns"] = _metric(self_ns[layer] / covers,
                                              "ns/cover")
        if layer != ROOT:
            metrics[f"{layer}.total_ns"] = _metric(total_ns[layer] / covers,
                                                   "ns/cover")
            metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
    for name, *_ in COUNTED:
        print(f"  {name:36s} {calls[name]} calls (counted only)")
        metrics[f"{name}.calls"] = _metric(calls[name], "count")
    covered = 1 - self_ns[ROOT] / total
    print(f"trace.stage_share  {covered:.4f}  (stage self time "
          f"{(total - self_ns[ROOT]) / 1e9:.3f} s / traced cover time "
          f"{total / 1e9:.3f} s)")
    ratio = traced.covers_per_s() / plain.covers_per_s()
    print(f"trace.overhead_ratio {ratio:.4f}  (traced "
          f"{traced.covers_per_s():.3f} 1/s / untraced "
          f"{plain.covers_per_s():.3f} 1/s, {plain.attempted} covers each)")
    _print_failures(traced)
    other = traced.failed
    for name in KNOWN_FAILURES:
        metrics[f"failures.{name}"] = _metric(traced.failures[name], "count")
        other -= traced.failures[name]
    metrics["failures.other"] = _metric(other, "count")
    metrics["trace.stage_share"] = _metric(covered, "ratio")
    metrics["trace.overhead_ratio"] = _metric(ratio, "ratio")
    metrics["trace.covers"] = _metric(covers, "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (CHECKOUT / "src" / "padic_sr" / "__init__.py").is_file():
        print(f"error: no padic_sr sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    sys.path.insert(0, str(CHECKOUT / "src"))
    if args.trace:
        n_rounds = 2 * workload.trace_rounds
    else:
        n_rounds = math.ceil(max(args.seconds * POOL_RATE, MIN_SAMPLES)
                             / len(workload.cells))
    setup_times, pkg, errors, rounds = setup(workload, args.seed, n_rounds)
    print(f"workload {workload.name} seed {args.seed}: {len(workload.cells)} "
          f"covers per round, {n_rounds} rounds generated; {workload.why}")

    def plain_call(_, p, n, a, b):
        return pkg.analyze(p, n, a, b)

    if not args.trace:
        res = run_pass(rounds, plain_call, errors.ArtifactError, args.seconds)
        passes = [res]
        # set up again after the pass, so the median spans the run's drift
        setup_times += setup(workload, args.seed, n_rounds)[0]
        metrics = end_to_end(res, setup_times)
    else:
        k = workload.trace_rounds
        plain = run_pass(rounds[:k], plain_call, errors.ArtifactError)
        tracer = Tracer()

        def traced_call(i, p, n, a, b):
            return tracer.root(i, pkg.analyze, p, n, a, b)

        with tracer.installed():
            res = run_pass(rounds[k:], traced_call, errors.ArtifactError)
        passes = [plain, res]
        metrics = per_layer(plain, res, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "workload": workload.name,
                                   "seed": args.seed, **tracer.to_json()}))
        print(f"spans written to {out.relative_to(CHECKOUT)}")

    violations = [v for p in passes for v in p.violations]
    for v in violations[:20]:
        print("GATE VIOLATION: " + v)
    if len(violations) > 20:
        print(f"... and {len(violations) - 20} more gate violations")
    print(json.dumps({
        "correct": not violations,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
