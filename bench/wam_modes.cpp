// WAM mode-specialization bench: the same compiled module run with the
// mode-specialized entry code ON vs OFF (CompileOptions::specialize), over
//   * chain400_path — right-recursive reachability over a 400-node chain
//     (the PR 1 baseline workload shape, non-tabled here: acyclic, so plain
//     WAM terminates), first argument proven ground by a query entry seed;
//   * nrev30 — naive reverse of a 30-element ground list, exercising the
//     read-mode structure instructions (kGetStructureRd/kUnifyConstantRd)
//     on app/3's proven-ground first argument.
// Reports wall time and the emulator's instruction counter (deterministic:
// the specialized entries skip switch_on_term, verified first-argument
// gets, and write-mode branches). Non-gating; scripts/bench.sh writes
// bench-out/BENCH_modes.json.
//
// Usage: wam_modes [OUT.json]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "bench/bench_util.h"
#include "db/loader.h"
#include "parser/reader.h"
#include "wam/compile.h"
#include "wam/emulator.h"

namespace {

using namespace xsb;

struct Workload {
  const char* key;
  std::string program;
  std::string goal;
  const char* entry_pred;
  int entry_arity;
  analysis::InstVec entry_call;
};

struct Column {
  double time_ms = 0;
  uint64_t instructions = 0;
  uint64_t mode_checks = 0;
  uint64_t mode_fallbacks = 0;
  uint64_t choice_points = 0;
  uint64_t switch_structure_hits = 0;
  size_t answers = 0;
};

struct Row {
  const char* key;
  Column spec;
  Column generic;
};

Column RunOne(TermStore* store, Program* program,
              const wam::CompiledModule& module, const std::string& goal) {
  Result<Word> g = ParseTermString(store, program->ops(), goal);
  if (!g.ok()) std::abort();
  Column col;
  wam::Emulator emulator(store, &module);
  auto solve = [&]() {
    size_t trail = store->TrailMark();
    size_t count = 0;
    Status s = emulator.Solve(g.value(), [&count]() {
      ++count;
      return wam::WamAction::kContinue;
    });
    store->UndoTrail(trail);
    if (!s.ok()) std::abort();
    col.answers = count;
  };
  solve();  // warm + deterministic counters from exactly the timed shape
  uint64_t instr0 = emulator.stats().instructions;
  uint64_t checks0 = emulator.stats().mode_checks;
  uint64_t falls0 = emulator.stats().mode_fallbacks;
  uint64_t cps0 = emulator.stats().choice_points;
  uint64_t swh0 = emulator.stats().switch_structure_hits;
  solve();
  col.instructions = emulator.stats().instructions - instr0;
  col.mode_checks = emulator.stats().mode_checks - checks0;
  col.mode_fallbacks = emulator.stats().mode_fallbacks - falls0;
  col.choice_points = emulator.stats().choice_points - cps0;
  col.switch_structure_hits =
      emulator.stats().switch_structure_hits - swh0;
  col.time_ms = bench::TimeBest(solve, 0.1, 400) * 1e3;
  return col;
}

Row Run(const Workload& w) {
  SymbolTable symbols;
  TermStore store(&symbols);
  Program program(&symbols);
  Loader loader(&store, &program);
  if (!loader.ConsultString(w.program).ok()) std::abort();

  // Seed the analysis with the query's call shape (the in-program clauses
  // alone cannot reveal how the top-level goal binds the entry arguments).
  analysis::AnalyzeOptions options;
  analysis::ModeEntry entry;
  entry.functor = symbols.InternFunctor(symbols.InternAtom(w.entry_pred),
                                        w.entry_arity);
  entry.call = w.entry_call;
  options.mode_entries.push_back(entry);
  analysis::AnalyzeAndPublish(&program, options);

  wam::CompileOptions on;
  on.specialize = true;
  Result<wam::CompiledModule> spec = CompileModule(&store, program, {}, on);
  if (!spec.ok()) std::abort();
  wam::CompileOptions off;
  off.specialize = false;
  Result<wam::CompiledModule> generic =
      CompileModule(&store, program, {}, off);
  if (!generic.ok()) std::abort();

  Row row;
  row.key = w.key;
  row.generic = RunOne(&store, &program, generic.value(), w.goal);
  row.spec = RunOne(&store, &program, spec.value(), w.goal);
  if (row.spec.answers != row.generic.answers) std::abort();
  std::printf(
      "%-16s answers=%5zu  spec: time_ms=%8.3f instr=%8llu cps=%5llu "
      "checks=%6llu fallbacks=%3llu | generic: time_ms=%8.3f instr=%8llu "
      "cps=%5llu\n",
      row.key, row.spec.answers, row.spec.time_ms,
      static_cast<unsigned long long>(row.spec.instructions),
      static_cast<unsigned long long>(row.spec.choice_points),
      static_cast<unsigned long long>(row.spec.mode_checks),
      static_cast<unsigned long long>(row.spec.mode_fallbacks),
      row.generic.time_ms,
      static_cast<unsigned long long>(row.generic.instructions),
      static_cast<unsigned long long>(row.generic.choice_points));
  return row;
}

std::string NrevList(int n) {
  std::string list = "[";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) list += ",";
    list += std::to_string(i);
  }
  return list + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("WAM mode specialization: spec on vs off");

  const analysis::InstVec gf = {analysis::Inst::kGround,
                                analysis::Inst::kFree};
  std::vector<Workload> workloads{
      {"chain400_path",
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n" +
           bench::ChainEdges(400),
       "path(1, X)", "path", 2, gf},
      {"nrev30",
       "app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "nrev([], []).\n"
       "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n",
       "nrev(" + NrevList(30) + ", R)", "nrev", 2, gf},
  };
  std::vector<Row> rows;
  for (const Workload& w : workloads) rows.push_back(Run(w));

  std::printf(
      "\nThe specialized entries are guarded (kCheckMode): the instruction\n"
      "delta is pure savings on pattern-conformant calls, and a violating\n"
      "call costs one failed guard plus the generic copy.\n");

  if (argc > 1) {
    auto column = [](const Column& c) {
      return "{\"time_ms\": " + bench::Fmt(c.time_ms, 3) +
             ", \"instructions\": " + std::to_string(c.instructions) +
             ", \"mode_checks\": " + std::to_string(c.mode_checks) +
             ", \"mode_fallbacks\": " + std::to_string(c.mode_fallbacks) +
             ", \"choice_points\": " + std::to_string(c.choice_points) +
             ", \"switch_structure_hits\": " +
             std::to_string(c.switch_structure_hits) + "}";
    };
    std::string json = "{\n  \"bench\": \"wam_modes\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      int64_t saved = static_cast<int64_t>(r.generic.instructions) -
                      static_cast<int64_t>(r.spec.instructions);
      json += "    {\"workload\": \"" + std::string(r.key) +
              "\", \"answers\": " + std::to_string(r.spec.answers) +
              ", \"instructions_saved\": " + std::to_string(saved) +
              ", \"spec_on\": " + column(r.spec) +
              ", \"spec_off\": " + column(r.generic) + "}";
      json += (i + 1 < rows.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::ofstream out(argv[1]);
    out << json;
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
