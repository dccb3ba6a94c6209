// Micro-benchmarks of the engine's primitive operations, on
// google-benchmark: unification, flattening (the table-space copy path),
// index probes, clause resolution, and answer insertion. These are the
// constants behind every macro number in the other bench binaries.

#include <benchmark/benchmark.h>

#include "db/loader.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "tabling/table_space.h"
#include "term/flat.h"
#include "term/intern.h"
#include "term/store.h"

namespace xsb {
namespace {

struct Fixture {
  Fixture() : store(&symbols), program(&symbols) {}
  Word Parse(const std::string& text) {
    Result<Word> r = ParseTermString(&store, program.ops(), text);
    if (!r.ok()) std::abort();
    return r.value();
  }
  SymbolTable symbols;
  TermStore store;
  Program program;
};

void BM_UnifyFlatTerms(benchmark::State& state) {
  Fixture f;
  Word a = f.Parse("f(g(1,2), h(X, [a,b,c]), Y)");
  Word b = f.Parse("f(g(1,2), h(q, [a,b,c]), r(s))");
  for (auto _ : state) {
    size_t trail = f.store.TrailMark();
    benchmark::DoNotOptimize(f.store.Unify(a, b));
    f.store.UndoTrail(trail);
  }
}
BENCHMARK(BM_UnifyFlatTerms);

void BM_FlattenTerm(benchmark::State& state) {
  Fixture f;
  Word t = f.Parse("path(edge(a,b), [1,2,3,4,5], g(h(i(j))))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Flatten(f.store, t));
  }
}
BENCHMARK(BM_FlattenTerm);

void BM_UnflattenTerm(benchmark::State& state) {
  Fixture f;
  FlatTerm flat =
      Flatten(f.store, f.Parse("path(edge(a,b), [1,2,3,4,5], g(h(X)))"));
  for (auto _ : state) {
    size_t heap = f.store.HeapMark();
    benchmark::DoNotOptimize(Unflatten(&f.store, flat));
    f.store.TruncateHeap(heap);
  }
}
BENCHMARK(BM_UnflattenTerm);

void BM_FirstArgIndexProbe(benchmark::State& state) {
  Fixture f;
  Loader loader(&f.store, &f.program);
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    text += "e(" + std::to_string(i) + "," + std::to_string(i + 1) + "). ";
  }
  if (!loader.ConsultString(text).ok()) std::abort();
  Predicate* pred = f.program.Lookup(
      f.symbols.InternFunctor(f.symbols.InternAtom("e"), 2));
  Word goal = f.Parse("e(500, X)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->Candidates(f.store, goal));
  }
}
BENCHMARK(BM_FirstArgIndexProbe);

void BM_ClauseResolutionStep(benchmark::State& state) {
  Fixture f;
  Loader loader(&f.store, &f.program);
  if (!loader.ConsultString("e(1,2). e(2,3). e(3,4).").ok()) std::abort();
  Machine machine(&f.store, &f.program);
  Word goal = f.Parse("e(2, X)");
  for (auto _ : state) {
    size_t trail = f.store.TrailMark();
    Result<bool> r = machine.SolveOnce(goal);
    benchmark::DoNotOptimize(r);
    f.store.UndoTrail(trail);
  }
}
BENCHMARK(BM_ClauseResolutionStep);

void BM_AnswerInsertTrie(benchmark::State& state) {
  Fixture f;
  int64_t i = 0;
  TableSpace tables(f.store.symbols());
  Word goal = f.Parse("p(X)");
  FunctorId p1 = f.symbols.InternFunctor(f.symbols.InternAtom("p"), 1);
  auto [id, created] = tables.LookupOrCreate(f.store, goal, p1, 0);
  Word var = f.store.Deref(f.store.Arg(goal, 0));
  for (auto _ : state) {
    size_t trail = f.store.TrailMark();
    f.store.Bind(var, IntCell(i++ % 4096));
    size_t saved = 0;
    benchmark::DoNotOptimize(tables.AddAnswer(id, f.store, goal, &saved));
    f.store.UndoTrail(trail);
  }
}
BENCHMARK(BM_AnswerInsertTrie);

void BM_CallTrieVariantHit(benchmark::State& state) {
  // The tabling hot path: variant check of an already-tabled call, walked
  // straight off the live heap term (no FlatTerm materialization).
  Fixture f;
  TableSpace tables(f.store.symbols());
  Word goal = f.Parse("path(f(a, g(1,2)), X, Y)");
  FunctorId path3 = f.symbols.InternFunctor(f.symbols.InternAtom("path"), 3);
  tables.LookupOrCreate(f.store, goal, path3, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables.Lookup(f.store, goal));
  }
}
BENCHMARK(BM_CallTrieVariantHit);

void BM_InternGroundHit(benchmark::State& state) {
  // Steady-state cost of re-encoding an already-interned ground term (the
  // common case: repeated answers and calls over a warmed table space).
  Fixture f;
  InternTable interns(&f.symbols);
  Word t = f.Parse("f(g(1,2), h(a, [b,c]))");
  TokenScratch scratch;
  interns.EncodeHeap(f.store, t, &scratch, nullptr);
  for (auto _ : state) {
    scratch.Reset();
    interns.EncodeHeap(f.store, t, &scratch, nullptr);
    benchmark::DoNotOptimize(scratch.tokens.data());
  }
}
BENCHMARK(BM_InternGroundHit);

void BM_EncodeAnswerBindings(benchmark::State& state) {
  // The per-answer encode step of AnswerTrie::Insert: the bindings are
  // tokenized straight from the heap, ground compounds collapsed to
  // interned tokens.
  Fixture f;
  InternTable interns(&f.symbols);
  Word t = f.Parse("p(g(7), f(1,2,3), X)");
  TokenScratch scratch;
  for (auto _ : state) {
    scratch.Reset();
    for (int i = 0; i < 3; ++i) {
      interns.EncodeHeap(f.store, f.store.Arg(f.store.Deref(t), i), &scratch,
                         nullptr);
    }
    benchmark::DoNotOptimize(scratch.tokens.data());
  }
}
BENCHMARK(BM_EncodeAnswerBindings);

}  // namespace
}  // namespace xsb

BENCHMARK_MAIN();
