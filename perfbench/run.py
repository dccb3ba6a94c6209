#!/usr/bin/env python3
"""End-to-end benchmark of the XSB engine through its public API.

Run one workload (builds the benchmark first, into .bench_build/):

    python3 perfbench/run.py --workload cold_eval --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--out FILE` also appends
the run's full record (every metric plus the deterministic counters) to FILE
as one JSON line.

Compare two sets of records (e.g. the parent commit and a change):

    python3 perfbench/run.py --compare old.jsonl new.jsonl

Fails on any drift in a deterministic counter between records of the same
workload, seed and trace mode, and reports every end-to-end metric of every
workload as better, same, worse or unresolved against the bounds in
BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
WORKLOADS = ("cold_eval", "warm_serve", "update_stream")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def load_contract():
    """BENCHMARK.json next to perfbench/, or None when absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run(args):
    if not build():
        return 1
    trace_file = os.path.join(ROOT, ".bench_build",
                              "trace-%s.tsv" % args.workload)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-file", trace_file]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log("perfbench: benchmark exited with %d" % done.returncode)
        return done.returncode or 1
    result = json.loads(lines[-1])
    contract = load_contract()
    if contract is not None:
        key = "per_layer" if args.trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in contract[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            log("perfbench: metrics differ from BENCHMARK.json %s: %s" %
                (key, sorted(set(got.items()) ^ set(expected.items()))))
            return 1
    record = None
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            record = line[len("RECORD "):]
        else:
            print(line)
    if args.out and record is not None:
        with open(args.out, "a") as f:
            f.write(record + "\n")
    print(json.dumps(result), flush=True)
    return 0


# --- compare mode -------------------------------------------------------------

def read_records(path):
    """Records from a JSON-lines file (or a saved stdout with RECORD lines)."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("RECORD "):
                line = line[len("RECORD "):]
            if line.startswith("{") and '"workload"' in line:
                records.append(json.loads(line))
    return records


def spread(values):
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(old, new, better, bound):
    """better / same / worse / unresolved for one metric of one workload.

    While both sides' spreads are within the bound, the change of the median
    decides. When either spread exceeds it, the medians cannot tell a change
    from noise: only a complete separation (every new run beats every old
    run, or the reverse) gives a verdict, and anything else is unresolved.
    """
    old_med = statistics.median(old)
    new_med = statistics.median(new)
    change = (new_med - old_med) / old_med if old_med else 0.0
    worsening = change if better == "lower" else -change
    noise = max(spread(old), spread(new))

    def beats(a, b):  # a is better than b
        return a < b if better == "lower" else a > b

    if noise > bound:
        if all(beats(n, o) for o in old for n in new):
            return "better", change, noise
        if worsening > bound and all(beats(o, n) for o in old for n in new):
            return "worse", change, noise
        return "unresolved", change, noise
    if worsening > bound:
        return "worse", change, noise
    wins = sum(1 for o, n in zip(old, new) if beats(n, o))
    if -worsening > spread(old) and wins >= 0.9 * min(len(old), len(new)):
        return "better", change, noise
    return "same", change, noise


def compare(old_path, new_path):
    contract = load_contract()
    if contract is None:
        log("perfbench: --compare needs BENCHMARK.json")
        return 2
    old, new = read_records(old_path), read_records(new_path)
    failed = False

    # Deterministic counters must repeat exactly for the same inputs.
    def keyed(records):
        out = {}
        for r in records:
            key = (r["workload"], r["seed"], r["trace"])
            out.setdefault(key, r.get("deterministic", {}))
        return out
    old_det, new_det = keyed(old), keyed(new)
    checked = 0
    for key in sorted(set(old_det) & set(new_det)):
        a, b = old_det[key], new_det[key]
        for name in sorted(set(a) | set(b)):
            checked += 1
            if a.get(name) != b.get(name):
                failed = True
                print("DRIFT %s seed %s trace %s: %s %s -> %s" %
                      (key[0], key[1], key[2], name, a.get(name), b.get(name)))
    print("deterministic counters compared: %d" % checked)

    # How much the hypervisor took from each side: a worse or unresolved
    # verdict next to a high steal share says more about the host.
    for workload in WORKLOADS:
        def steal(records):
            shares = [r.get("steal_share", 0) for r in records
                      if r["workload"] == workload and r["trace"] == 0]
            return 100 * statistics.median(shares) if shares else None
        a, b = steal(old), steal(new)
        if a is not None and b is not None:
            print("host steal %-14s old median %.1f%%, new median %.1f%%" %
                  (workload, a, b))

    # End-to-end metrics per workload against the bounds.
    print("%-14s %-18s %12s %12s %8s %7s  %s" %
          ("workload", "metric", "old median", "new median", "change",
           "spread", "verdict"))
    for workload in WORKLOADS:
        for metric in contract["end_to_end"]:
            name = metric["name"]

            def values(records):
                return [r["metrics"][name]["value"] for r in records
                        if r["workload"] == workload and r["trace"] == 0
                        and name in r["metrics"]]
            a, b = values(old), values(new)
            if not a or not b:
                continue
            result, change, noise = verdict(a, b, metric["better"],
                                            metric["bound"])
            failed = failed or result == "worse"
            print("%-14s %-18s %12.6g %12.6g %+7.1f%% %6.1f%%  %s" %
                  (workload, name, statistics.median(a), statistics.median(b),
                   100 * change, 100 * noise, result))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files of records")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
