#!/usr/bin/env bash
# A/B comparison of two revisions on the end-to-end benchmark
# (perfbench/run.py). Both revisions are checked out as git worktrees under a
# temporary directory, and each builds its own benchmark there. The script
# runs N pairs, one run of each revision per pair on a fresh seed, the order
# alternating from pair to pair, and appends every run's record to
# old.jsonl / new.jsonl in the output directory. It then runs
# `perfbench/run.py --compare` (deterministic-counter drift and the
# BENCHMARK.json verdicts) and prints, per end-to-end metric, each side's
# median and quartiles and the number of pairs the new revision won.
# Exits with the status of --compare.
#
# Usage: scripts/ab.sh OLD NEW [--workload W] [--pairs N] [--seconds S]
#                      [--seed-base N] [--out DIR]
#   --workload   perfbench workload (default cold_eval)
#   --pairs      number of pairs (default 10)
#   --seconds    seconds per run (default 30)
#   --seed-base  pair i runs seed BASE+i (default: derived from the clock)
#   --out        output directory (default ab-out; existing files are
#                appended to)
set -euo pipefail

usage() {
  sed -n '/^# Usage:/,/^#   --out/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
old_rev=$1
new_rev=$2
shift 2
workload=cold_eval
pairs=10
seconds=30
seed_base=$(( $(date +%s) % 100000 * 100 ))
out=ab-out
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed-base) seed_base=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) usage ;;
  esac
done

repo=$(git rev-parse --show-toplevel)
old_sha=$(git -C "$repo" rev-parse --verify "$old_rev^{commit}")
new_sha=$(git -C "$repo" rev-parse --verify "$new_rev^{commit}")
mkdir -p "$out"
out=$(cd "$out" && pwd)

tmp=$(mktemp -d)
cleanup() {
  git -C "$repo" worktree remove --force "$tmp/old" 2>/dev/null || true
  git -C "$repo" worktree remove --force "$tmp/new" 2>/dev/null || true
  git -C "$repo" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$repo" worktree add --detach "$tmp/old" "$old_sha" >/dev/null
git -C "$repo" worktree add --detach "$tmp/new" "$new_sha" >/dev/null

echo "old ${old_sha:0:12}  new ${new_sha:0:12}  workload $workload," \
  "$pairs pair(s) of ${seconds}s, seeds from $seed_base"

run() {  # run old|new SEED
  local side=$1 seed=$2
  echo "pair seed $seed: $side"
  (cd "$tmp/$side" &&
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 --out "$out/$side.jsonl" >/dev/null)
}

for ((i = 0; i < pairs; i++)); do
  seed=$((seed_base + i))
  if ((i % 2 == 0)); then
    run old "$seed"
    run new "$seed"
  else
    run new "$seed"
    run old "$seed"
  fi
done

status=0
(cd "$tmp/new" &&
  python3 perfbench/run.py --compare "$out/old.jsonl" "$out/new.jsonl") ||
  status=$?

python3 - "$tmp/new/BENCHMARK.json" "$out/old.jsonl" "$out/new.jsonl" \
  "$workload" <<'PY'
import json
import statistics
import sys

contract_path, old_path, new_path, workload = sys.argv[1:]
with open(contract_path) as f:
    metrics = json.load(f)["end_to_end"]


def records(path):
    out = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["workload"] == workload and r["trace"] == 0:
                out[r["seed"]] = r["metrics"]
    return out


old, new = records(old_path), records(new_path)
seeds = sorted(set(old) & set(new))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


print("%-18s %28s %28s %6s" % ("metric", "old q1 / median / q3",
                               "new q1 / median / q3", "wins"))
for metric in metrics:
    name = metric["name"]
    pairs = [(old[s][name]["value"], new[s][name]["value"]) for s in seeds
             if name in old[s] and name in new[s]]
    if not pairs:
        continue
    lower = metric["better"] == "lower"
    wins = sum(1 for o, n in pairs if (n < o if lower else n > o))
    a = quartiles([o for o, _ in pairs])
    b = quartiles([n for _, n in pairs])
    print("%-18s %8.4g /%8.4g /%8.4g %8.4g /%8.4g /%8.4g %3d/%d" %
          ((name,) + a + b + (wins, len(pairs))))
PY
exit "$status"
