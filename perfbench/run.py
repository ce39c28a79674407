"""Benchmark of the orbitope package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop workload (one client) against the sources under src/
for about S seconds of whole request cycles, checks every answer after the
timed loop and prints a summary followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
installs span wrappers around the layers' public functions, traces the
set-up and a fixed number of request cycles, then runs S seconds untraced,
and reports the per-layer metrics and the tracing overhead; the spans are
written to .perfbench_out/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer as tracing
import workloads

SETUP_REPS = 3  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples above the reported tail percentile
TRACED_CYCLES = 1  # request cycles a traced run records spans for


def run_loop(wl, seconds=None, cycles=None, tracer=None):
    """Whole cycles until `seconds` of requests have run (or exactly
    `cycles` cycles).  Returns ([(req, answer, error, latency_s)], elapsed_s)."""
    records, elapsed, done = [], 0.0, 0
    while elapsed < seconds if cycles is None else done < cycles:
        reqs = wl.cycle()
        t_cycle = time.perf_counter()
        for req in reqs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    answer = wl.call(req)
                else:
                    answer = tracer.run("bench.request", len(records), wl.call, req)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                answer, error = None, exc
            records.append((req, answer, error, time.perf_counter() - t0))
        elapsed += time.perf_counter() - t_cycle
        done += 1
    return records, elapsed


def check_all(wl, records) -> list[bool]:
    """Whether each request completed with a correct answer."""
    oks, failed = [], 0
    for req, answer, error, _ in records:
        ok = error is None
        if ok:
            try:
                ok = wl.check(req, answer)
            except Exception as exc:  # a check that raises is a wrong answer
                error = exc
                ok = False
        oks.append(ok)
        failed += not ok
        if not ok and failed <= 3:
            detail = "".join(traceback.format_exception(error)) if error else "wrong answer"
            print(f"FAILED {req!r}: {detail}", file=sys.stderr)
    return oks


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def load():
    """Fresh import of the package from src/."""
    mods = tracing.import_orbitope(fresh=True)
    origin = os.path.dirname(mods["polytope"].__file__)
    if os.path.realpath(origin) != os.path.realpath(os.path.join(workloads.SRC, "orbitope")):
        raise RuntimeError(f"orbitope imported from {origin}, not from {workloads.SRC}")
    return mods


def end_to_end(wl, seconds: float):
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(load())
        setup_times.append(time.perf_counter() - t0)
    wl.prepare()
    records, elapsed = run_loop(wl, seconds)
    rss = peak_rss_mb(children=isinstance(wl, workloads.CliCold))
    oks = check_all(wl, records)
    failed = oks.count(False)

    n = len(records)
    lat = sorted(r[3] * 1e3 for r in records)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    tail_at = n - 1 - beyond
    metrics = {
        "throughput_ops_s": ((n - failed) / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (lat[tail_at], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"{wl.name}: {n} requests in {elapsed:.2f} s, seed {wl.seed}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{100.0 * (tail_at + 1) / n:.1f}: {beyond} of {n} samples beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{t:.3f}" for t in setup_times) + ")"
        print(f"  {name:<18} {value:12.4f} {unit}{note}")
    print(f"  {'error_rate':<18} {failed / n:12.4f} ratio  ({failed} of {n} failed or wrong)")
    return n, failed, failed == 0, metrics


def traced(wl, seconds: float):
    mods = load()
    tracer = tracing.Tracer(mods)
    tracer.start()
    wl.tracer = tracer
    tracer.run("bench.setup", "setup", wl.setup, mods)
    tracer.stop()
    wl.prepare()
    # The traced cycles come first, so they are the same inputs in every
    # run of a seed and the counts repeat exactly.
    tracer.start()
    traced_records, traced_s = run_loop(wl, cycles=TRACED_CYCLES, tracer=tracer)
    tracer.stop()
    wl.tracer = None
    plain, plain_s = run_loop(wl, seconds)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(workloads.OUT_DIR, f"spans-{wl.name}-{wl.seed}.json"))

    traced_oks, plain_oks = check_all(wl, traced_records), check_all(wl, plain)
    failed = (traced_oks + plain_oks).count(False)
    plain_tput = plain_oks.count(True) / plain_s
    traced_tput = traced_oks.count(True) / traced_s
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (1.0 - traced_tput / plain_tput, "ratio")
    checked, unbalanced = tracer.unbalanced_requests()

    print(f"{wl.name} (traced): seed {wl.seed}; traced set-up plus {len(traced_records)} "
          f"requests in {TRACED_CYCLES} cycle")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:14.4f} {unit}")
    print(f"  throughput_ops_s untraced {plain_tput:.4f} ({len(plain)} requests), "
          f"traced {traced_tput:.4f} ({len(traced_records)} requests)")
    print(f"  span self times sum to the root span's wall time in "
          f"{checked - unbalanced} of {checked} traced requests (set-up included)")
    attempted = len(traced_records) + len(plain)
    return attempted, failed, failed == 0 and unbalanced == 0, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "orbitope", "__init__.py")):
        print(f"error: no orbitope package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    os.environ.pop("ORBITOPE_THREADS", None)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    measure = traced if args.trace else end_to_end
    attempted, failed, correct, metrics = measure(wl, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
