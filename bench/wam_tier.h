#ifndef XSB_BENCH_WAM_TIER_H_
#define XSB_BENCH_WAM_TIER_H_

// Shared harness for timing a goal on the raw WAM layer: the bytecode
// emulator, the top rung of the Table 3 ladder (see DESIGN.md "Execution
// tiers").

#include <cstdint>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "db/loader.h"
#include "parser/reader.h"
#include "wam/compile.h"
#include "wam/emulator.h"

namespace xsb::bench {

struct WamTierRun {
  double seconds = 0;          // best per-solve wall time
  size_t answers = 0;          // answers from one solve
  uint64_t instructions = 0;   // WAM instructions retired by one solve
  uint64_t choice_points = 0;  // choice points pushed by one solve
  uint64_t switch_structure_hits = 0;  // functor-keyed dispatches in one solve
};

// Consults `program`, compiles it, and times `goal` on one emulator. Each
// timed iteration runs the solve `reps` times (amplifies sub-millisecond
// workloads above timer noise); the returned per-solve time divides that
// back out. The first solve is untimed warmup.
inline WamTierRun TimeWamTier(const std::string& program,
                              const std::string& goal, int reps = 1,
                              double min_seconds = 0.05,
                              int max_repeats = 7) {
  SymbolTable symbols;
  TermStore store(&symbols);
  Program prog(&symbols);
  Loader loader(&store, &prog);
  if (!loader.ConsultString(program).ok()) std::abort();
  Result<wam::CompiledModule> compiled = wam::CompileModule(&store, prog, {});
  if (!compiled.ok()) std::abort();
  wam::Emulator emulator(&store, &compiled.value());
  Result<Word> g = ParseTermString(&store, prog.ops(), goal);
  if (!g.ok()) std::abort();

  WamTierRun run;
  auto solve = [&]() {
    size_t trail = store.TrailMark();
    size_t count = 0;
    Status s = emulator.Solve(g.value(), [&count]() {
      ++count;
      return wam::WamAction::kContinue;
    });
    store.UndoTrail(trail);
    if (!s.ok()) std::abort();
    run.answers = count;
  };
  solve();  // warmup, off the clock
  uint64_t instr0 = emulator.stats().instructions;
  uint64_t cps0 = emulator.stats().choice_points;
  uint64_t swh0 = emulator.stats().switch_structure_hits;
  solve();
  run.instructions = emulator.stats().instructions - instr0;
  run.choice_points = emulator.stats().choice_points - cps0;
  run.switch_structure_hits =
      emulator.stats().switch_structure_hits - swh0;
  run.seconds = TimeBest(
                    [&]() {
                      for (int i = 0; i < reps; ++i) solve();
                    },
                    min_seconds, max_repeats) /
                reps;
  return run;
}

}  // namespace xsb::bench

#endif  // XSB_BENCH_WAM_TIER_H_
