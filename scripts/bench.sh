#!/usr/bin/env bash
# Builds the optimized (default, RelWithDebInfo) preset and runs the
# benchmark suite uniformly. Every suite's stdout lands in
# bench-out/<name>.log; suites with machine-readable output additionally
# write bench-out/BENCH_<name>.json — the same shape as the BENCH_*.json
# snapshots tracked at the repo root, so refreshing a tracked snapshot is
# `./scripts/bench.sh && cp bench-out/BENCH_foo.json BENCH_foo.json` plus
# updating its commentary fields. Every emitted JSON is stamped with
# hardware_threads, seed_commit, and date (keys the bench itself did not
# already write). A bench binary exiting non-zero fails the script.
# CI runs this non-gating and uploads bench-out/ as an artifact.
#
# Usage: scripts/bench.sh [--quick]
#   --quick   only the JSON-emitting suites (the ones PRs track)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== Build (default preset, optimized) =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

mkdir -p bench-out

run() {  # run <name> [args...] — log stdout; a failing bench fails the script
  local name=$1
  shift
  echo "== bench: $name =="
  ./build/bench/"$name" "$@" | tee "bench-out/$name.log" || {
    echo "bench $name exited non-zero" >&2
    exit 1
  }
}

# Adds provenance keys to a BENCH_*.json, skipping any the bench already
# wrote itself (e.g. concurrent_queries records hardware_threads). Inserted
# right after the opening brace, so the file stays valid JSON.
stamp() {
  local f=$1 extra=""
  grep -q '"hardware_threads"' "$f" ||
    extra+="  \"hardware_threads\": $(nproc 2>/dev/null || echo 1),\\n"
  grep -q '"seed_commit"' "$f" ||
    extra+="  \"seed_commit\": \"$(git rev-parse --short HEAD 2>/dev/null ||
      echo unknown)\",\\n"
  grep -q '"date"' "$f" ||
    extra+="  \"date\": \"$(date -u +%Y-%m-%d)\",\\n"
  [[ -z "$extra" ]] && return 0
  awk -v extra="$extra" 'NR==1 { print; printf "%s", extra; next } { print }' \
    "$f" > "$f.tmp" && mv "$f.tmp" "$f"
}

# JSON-emitting suites: arg 1 is the snapshot path.
run subst_factoring bench-out/BENCH_subst_factoring.json
run incremental_updates bench-out/BENCH_incremental.json
run concurrent_queries bench-out/BENCH_concurrent.json
run subsumption bench-out/BENCH_subsumption.json
run meta_overhead bench-out/BENCH_meta_overhead.json
run fig5_path bench-out/BENCH_fig5_path.json

if [[ "$quick" == 0 ]]; then
  run leftrec_chain
  run datalog_suite
  run table3_join
  run table2_negation
  run fig2_win_calls
  run indexing_ablation
  run micro_core --benchmark_filter='AnswerInsertTrie|CallTrie|Intern|Encode'
fi

for f in bench-out/BENCH_*.json; do
  stamp "$f"
done

echo "All benchmarks done; outputs in bench-out/."
