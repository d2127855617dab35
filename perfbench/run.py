#!/usr/bin/env python3
"""Serving benchmark for xseq: build, run one workload, record the row.

One run (the last stdout line is the result object):

    python3 perfbench/run.py --workload cold_param --seed 1 --seconds 10 --trace 0

Workloads: cold_param, warm_hot, mixed_rw (see perfbench/NOTES.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.

Other modes (run from the repository root):

    python3 perfbench/run.py --steady 5 [--seconds S]
        runs each workload on seeds 1..N and prints, per end-to-end metric
        (bounded or not), the median, the quartiles and the quartile spread
        over the median.
    python3 perfbench/run.py --overhead [--seed N]
        runs each workload untraced and traced on one seed and prints the
        tracing overhead (traced minus untraced) of every end-to-end metric.

The program is built from ../src into .bench_build/perfbench; every run
appends one row (host row included) to perfbench/history.jsonl.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HISTORY = BENCH_DIR / "history.jsonl"
WORKLOADS = ["cold_param", "warm_hot", "mixed_rw"]
# Printed and recorded by every run but not bounded (see NOTES.md).
UNBOUNDED = ["query_p50_us", "query_p99_us", "query_qps"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not (ROOT / "src" / "server" / "server.h").exists():
        log("run.py: xseq sources not found under %s/src" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)
    subprocess.run([str(BUILD_DIR / "stats_test")], check=True,
                   stdout=sys.stderr)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result object, all metrics)."""
    scratch = ROOT / ".bench_build" / ("run-%d" % os.getpid())
    cmd = [str(BUILD_DIR / "serve_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", str(scratch),
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    all_metrics = None
    result = None
    for line in lines:
        if line.startswith("ALL_METRICS "):
            all_metrics = json.loads(line[len("ALL_METRICS "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        # Everything but the result line now; the result line last.
        body = "\n".join(lines[:-1] if result is not None else lines)
        if body:
            print(body)
    if all_metrics is not None and result is not None:
        row = {
            "ts": datetime.datetime.now(datetime.timezone.utc)
                  .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "host": all_metrics["host"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"]
                        for k, v in all_metrics["metrics"].items()},
        }
        with open(HISTORY, "a") as f:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return proc.returncode, result, all_metrics


def bounds():
    """End-to-end metric name -> bound, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def steady(args):
    bound = bounds()
    names = UNBOUNDED + list(bound)
    worst = 0.0
    for w in WORKLOADS:
        values = {n: [] for n in names}
        for seed in range(1, args.steady + 1):
            code, result, every = run_once(w, seed, args.seconds, 0,
                                           echo=False)
            if code != 0 or result is None or not result["correct"]:
                log("run.py: %s seed %d failed (exit %d)" % (w, seed, code))
                sys.exit(1)
            for n in names:
                values[n].append(every["metrics"][n]["value"])
            log("  %s seed %d: %s" % (w, seed, ", ".join(
                "%s=%.4g" % (n, values[n][-1]) for n in names)))
        print("%s (seeds 1..%d, %s s each)" % (w, args.steady, args.seconds))
        print("  %-22s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for n in names:
            v = values[n]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            if n in bound and n != "setup_s":
                worst = max(worst, spread / bound[n])
            print("  %-22s %12.4f %12.4f %12.4f %8.4f %8s" % (
                n, med, q1, q3, spread,
                "%.2f" % bound[n] if n in bound else "-"))
        sys.stdout.flush()
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


def overhead(args):
    names = UNBOUNDED + list(bounds())
    for w in WORKLOADS:
        _, _, plain = run_once(w, args.seed, args.seconds, 0, echo=False)
        _, _, traced = run_once(w, args.seed, args.seconds, 1, echo=False)
        if plain is None or traced is None:
            log("run.py: %s failed" % w)
            sys.exit(1)
        print("%s seed %d: tracing overhead (traced - untraced)" % (
            w, args.seed))
        for n in names:
            a = plain["metrics"][n]["value"]
            b = traced["metrics"][n]["value"]
            rel = (b - a) / a if a else 0.0
            print("  %-22s %12.3f -> %12.3f  (%+.3f, %+.1f%%)" % (
                n, a, b, b - a, 100 * rel))
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run each workload on this many seeds")
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args()

    build()
    if args.steady:
        steady(args)
        return 0
    if args.overhead:
        overhead(args)
        return 0
    if not args.workload:
        p.error("--workload is required")
    code, result, _ = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
