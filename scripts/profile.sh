#!/usr/bin/env bash
# CPU and allocation profile of one perfbench workload at -O2.
#
# Builds perfbench (perfbench/CMakeLists.txt, -O2) with frame pointers and
# debug information into the output directory, and the preload library
# scripts/profile_preload.cc next to it, then runs the workload three times
# under that library. The first run's SIGPROF samples give each function's
# self and inclusive share of CPU samples, attributed to the physical
# function (inlined callees count toward their caller). The other two runs,
# a short one and one as long as the first, record the stack of every
# allocation: the difference between their allocation
# counts, divided by the difference in ops, gives allocations per op by call
# site, free of the one-time setup. A site is the innermost frame, inlined
# ones included, outside the C++ library. Addresses are resolved with
# addr2line.
#
# Usage: scripts/profile.sh [--workload W] [--seed N] [--seconds S]
#                           [--out DIR]
#   --workload   perfbench workload (default cold_eval)
#   --seed       workload seed (default 31)
#   --seconds    seconds of the main and the long allocation run (default
#                10; the short run is a fifth of it, at least 1)
#   --out        build and dump directory (default profile-out)
set -euo pipefail

usage() {
  sed -n '/^# Usage:/,/^#   --out/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload=cold_eval
seed=31
seconds=10
out=profile-out
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) usage ;;
  esac
done

repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
jobs=$(( $(nproc 2>/dev/null || echo 4) < 4 ? $(nproc 2>/dev/null || echo 4) : 4 ))

echo "== building perfbench with frame pointers into $out/build ==" >&2
cmake -S "$repo/perfbench" -B "$out/build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" >/dev/null
cmake --build "$out/build" -j "$jobs" >/dev/null
g++ -std=c++20 -O2 -fPIC -shared -o "$out/libxsbprof.so" \
  "$repo/scripts/profile_preload.cc" -ldl
binary="$out/build/perfbench_e2e"

short=$(( seconds / 5 > 0 ? seconds / 5 : 1 ))
run() {  # run MODE SECONDS DUMP -> prints the run's op count
  XSB_PROFILE_MODE="$1" XSB_PROFILE_OUT="$3" LD_PRELOAD="$out/libxsbprof.so" \
    "$binary" --workload "$workload" --seed "$seed" --seconds "$2" \
    --trace 0 --trace-file "$out/trace.tsv" | tail -n 1 |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["attempted"])'
}
echo "== $workload, seed $seed: ${seconds} s sampled run, then" \
  "${short} s and ${seconds} s allocation runs ==" >&2
cpu_ops=$(run cpu "$seconds" "$out/cpu.dump")
short_ops=$(run alloc "$short" "$out/short.dump")
long_ops=$(run alloc "$seconds" "$out/long.dump")

python3 - "$out/cpu.dump" "$out/short.dump" "$out/long.dump" "$cpu_ops" \
  "$short_ops" "$long_ops" "$binary" "$workload" "$seed" <<'EOF'
import collections
import re
import subprocess
import sys

(cpu_path, short_path, long_path, cpu_ops, short_ops, long_ops, binary,
 workload, seed) = sys.argv[1:]
cpu_ops, short_ops, long_ops = int(cpu_ops), int(short_ops), int(long_ops)
TOP = 25  # rows per table


def parse(path):
    meta, samples, sites = {}, [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "S":
                samples.append(parts[1:])
            elif parts[0] == "A":
                sites.append((int(parts[1]), parts[2:]))
            else:
                meta[parts[0]] = int(parts[1])
    return meta, samples, sites


cpu_meta, samples, _ = parse(cpu_path)
short_meta, _, short_sites = parse(short_path)
long_meta, _, long_sites = parse(long_path)


def split(addr):
    module, _, offset = addr.rpartition(":")
    return module, int(offset, 16)


# Symbolize every address: sample leaves as they are, return addresses one
# byte back, so they fall inside the call instruction.
wanted = collections.defaultdict(set)
for stack in samples:
    for i, addr in enumerate(stack):
        module, offset = split(addr)
        if module != "?":
            wanted[module].add(offset if i == 0 else offset - 1)
for _, stack in short_sites + long_sites:
    for addr in stack:
        module, offset = split(addr)
        if module != "?":
            wanted[module].add(offset - 1)

frames = {}  # (module, offset) -> [(function, file:line), ...] innermost first
for module, offsets in wanted.items():
    offsets = sorted(offsets)
    done = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", module] +
        ["%x" % o for o in offsets],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    current = None
    lines = done.stdout.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = (module, int(line, 16))
            frames[current] = []
            i += 1
            continue
        if current is not None and i + 1 < len(lines):
            frames[current].append((line, lines[i + 1]))
            i += 2
            continue
        i += 1


def short_name(name):
    name = name.replace("(anonymous namespace)", "{anon}")
    name = re.sub(r"(?<!operator)\(.*", "", name)
    return name if len(name) <= 90 else name[:87] + "..."


def chain(addr, leaf):
    module, offset = split(addr)
    if module == "?":
        return [("??", "??:0")]
    key = (module, offset if leaf else offset - 1)
    found = frames.get(key) or [("??", "??:0")]
    if module != binary:
        base = module.rsplit("/", 1)[-1]
        return [(f + " [" + base + "]", loc) for f, loc in found]
    return found


LIBRARY = re.compile(r"^([\w:]+ )?(std::|__gnu_cxx::|operator new|__)")


def is_library(function, location, addr):
    module, _ = split(addr)
    return (module != binary or "/include/c++/" in location or
            LIBRARY.match(function) is not None)


def site_of(stack):
    for addr in stack:
        for function, location in chain(addr, leaf=False):
            if not is_library(function, location, addr):
                loc = location.rsplit("/", 1)[-1].split(" ")[0]
                return "%s (%s)" % (short_name(function), loc)
    return "(library only)"


def by_site(sites):
    counts = collections.Counter()
    for count, stack in sites:
        counts[site_of(stack)] += count
    return counts


ops = long_ops - short_ops
print("%s, seed %s: %d ops in the sampled run; %d and %d in the allocation "
      "runs" % (workload, seed, cpu_ops, short_ops, long_ops))
if ops > 0:
    total = long_meta["allocations"] - short_meta["allocations"]
    print("\nallocations per op (long minus short run): %.1f" % (total / ops))
    short_counts, long_counts = by_site(short_sites), by_site(long_sites)
    rows = []
    for site in set(short_counts) | set(long_counts):
        rows.append(((long_counts[site] - short_counts[site]) / ops, site))
    rows.sort(reverse=True)
    print("  %9s  %s" % ("per op", "call site"))
    for per_op, site in rows[:TOP]:
        if abs(per_op) < 0.05:
            break
        print("  %9.1f  %s" % (per_op, site))

n = len(samples)
print("\nCPU samples: %d (%d dropped)" % (n, cpu_meta.get("dropped", 0)))
if n:
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    for stack in samples:
        physical = []
        for i, addr in enumerate(stack):
            physical.append(short_name(chain(addr, leaf=(i == 0))[-1][0]))
        self_counts[physical[0]] += 1
        for function in set(physical):
            incl_counts[function] += 1
    print("  %6s  %6s  %s" % ("self%", "incl%", "function (by self)"))
    for function, count in self_counts.most_common(TOP):
        print("  %6.1f  %6.1f  %s" % (100.0 * count / n,
                                       100.0 * incl_counts[function] / n,
                                       function))
    print("  %6s  %6s  %s" % ("self%", "incl%", "function (by inclusive)"))
    for function, count in incl_counts.most_common(TOP):
        print("  %6.1f  %6.1f  %s" % (100.0 * self_counts[function] / n,
                                       100.0 * count / n, function))
EOF
