// Concurrency tests for the shared-table serving layer: QueryService
// correctness under parallel load, epoch-protected retirement while readers
// enumerate, the two-instances-same-process regression, and unit stress for
// the lock-free primitives (EpochManager, InternTable, SymbolTable). All
// tests also run under the `tsan` preset (scripts/check.sh).

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/query_service.h"
#include "tabling/epoch.h"
#include "term/cell.h"
#include "term/intern.h"
#include "term/symbols.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

constexpr const char* kPathProgram =
    ":- table path/2.\n"
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- path(X,Z), edge(Z,Y).\n";

std::string ChainEdges(int n) {
  std::ostringstream out;
  for (int i = 1; i < n; ++i) {
    out << "edge(" << i << "," << i + 1 << ").\n";
  }
  return out.str();
}

std::vector<std::string> SortedAnswers(
    const Result<std::vector<Answer>>& result) {
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.status().ToString());
  std::vector<std::string> out;
  if (!result.ok()) return out;
  for (const Answer& answer : result.value()) {
    out.push_back(answer.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Satellite 1: no hidden shared state between engine instances ----------

TEST(TwoEnginesTest, InterleavedQueriesAgree) {
  Engine a;
  Engine b;
  std::string program = std::string(kPathProgram) + ChainEdges(30);
  ASSERT_TRUE(a.ConsultString(program).ok());
  ASSERT_TRUE(b.ConsultString(program).ok());
  // Interleave queries so each engine's tables grow while the other serves;
  // any shared mutable scratch between instances corrupts one of them.
  for (int i = 1; i <= 10; ++i) {
    std::string goal = "path(" + std::to_string(i) + ", X)";
    std::vector<std::string> from_a = SortedAnswers(a.FindAll(goal));
    std::vector<std::string> from_b = SortedAnswers(b.FindAll(goal));
    EXPECT_EQ(from_a, from_b) << goal;
    EXPECT_EQ(from_a.size(), static_cast<size_t>(30 - i)) << goal;
  }
}

TEST(TwoEnginesTest, ParallelEnginesAgree) {
  // Fully independent engines evaluated from two threads: exercises every
  // function-local static and global reachable from Machine/Evaluator.
  std::string program = std::string(kPathProgram) + ChainEdges(40);
  std::vector<size_t> counts(2, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Engine engine;
      ASSERT_TRUE(engine.ConsultString(program).ok());
      Result<size_t> count = engine.Count("path(X, Y)");
      ASSERT_TRUE(count.ok());
      counts[t] = count.value();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counts[0], 40u * 39u / 2u);
  EXPECT_EQ(counts[0], counts[1]);
}

// --- Lock-free primitive stress --------------------------------------------

TEST(EpochManagerTest, RetirementWaitsForActiveReaders) {
  EpochManager epochs;
  // No slots active: everything reclaims immediately (engine fast path).
  EXPECT_TRUE(epochs.SafeToReclaim(epochs.Retire()));

  int reader = epochs.AcquireSlot();
  ASSERT_GE(reader, 0);
  epochs.Enter(reader);
  uint64_t stamp = epochs.Retire();
  // The reader entered before the retirement, so it may still hold a
  // reference to the retired object.
  EXPECT_FALSE(epochs.SafeToReclaim(stamp));
  epochs.Exit(reader);
  EXPECT_TRUE(epochs.SafeToReclaim(stamp));

  // A reader that enters *after* the retirement does not block it.
  epochs.Enter(reader);
  EXPECT_TRUE(epochs.SafeToReclaim(stamp));
  epochs.Exit(reader);
  epochs.ReleaseSlot(reader);
}

TEST(EpochManagerTest, ConcurrentEnterExitRetire) {
  EpochManager epochs;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      int slot = epochs.AcquireSlot();
      ASSERT_GE(slot, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        EpochGuard guard(&epochs, slot);
        // Entered readers always announce an epoch <= the next retirement.
        EXPECT_LE(epochs.MinActive(), epochs.Retire());
      }
      epochs.ReleaseSlot(slot);
    });
  }
  for (int i = 0; i < 2000; ++i) epochs.Retire();
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) thread.join();
  // All slots idle again: every stamp is reclaimable.
  EXPECT_TRUE(epochs.SafeToReclaim(epochs.current()));
}

// Atoms get no name/0 functor until one is interned for them, so data
// constants do not grow the functor ids that predicate tables index by.
TEST(SymbolTableTest, FunctorsAreInternedOnDemand) {
  SymbolTable symbols;
  AtomId data = symbols.InternAtom("data_constant");
  EXPECT_EQ(symbols.FindFunctor(data, 0), SymbolTable::kNoFunctor);
  EXPECT_EQ(symbols.FindFunctor(data, 2), SymbolTable::kNoFunctor);
  FunctorId f0 = symbols.InternFunctor(data, 0);
  FunctorId f2 = symbols.InternFunctor(data, 2);
  EXPECT_NE(f0, f2);
  EXPECT_EQ(symbols.FindFunctor(data, 0), f0);
  EXPECT_EQ(symbols.FindFunctor(data, 2), f2);
  EXPECT_EQ(symbols.InternFunctor(data, 0), f0);
  EXPECT_EQ(symbols.FindFunctor(symbols.dot(), 2), symbols.cons());
}

TEST(SymbolTableTest, ConcurrentInterningDeduplicates) {
  SymbolTable symbols;
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  std::vector<std::vector<AtomId>> ids(kThreads,
                                       std::vector<AtomId>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        // Every thread interns the same names, racing on first use.
        ids[t][i] = symbols.InternAtom("atom_" + std::to_string(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t][i], ids[0][i]);
    EXPECT_EQ(symbols.AtomName(ids[0][i]), "atom_" + std::to_string(i));
  }
}

TEST(InternTableTest, ConcurrentInterningDeduplicates) {
  SymbolTable symbols;
  InternTable interns(&symbols);
  AtomId f = symbols.InternAtom("f");
  FunctorId functor = symbols.InternFunctor(f, 2);
  constexpr int kThreads = 4;
  constexpr int kTerms = 300;  // enough to force dedup-table growth
  std::vector<std::vector<Word>> tokens(kThreads,
                                        std::vector<Word>(kTerms));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTerms; ++i) {
        Word args[2] = {MakeCell(Tag::kInt, static_cast<uint64_t>(i)),
                        MakeCell(Tag::kInt, static_cast<uint64_t>(i + 1))};
        tokens[t][i] = interns.InternNode(functor, args, 2);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kTerms; ++i) {
    Word args[2] = {MakeCell(Tag::kInt, static_cast<uint64_t>(i)),
                    MakeCell(Tag::kInt, static_cast<uint64_t>(i + 1))};
    // Hash-consing survived the races: one token per distinct term, and
    // the lock-free probe finds it.
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(tokens[t][i], tokens[0][i]);
    EXPECT_EQ(interns.FindNode(functor, args, 2), tokens[0][i]);
  }
  EXPECT_EQ(interns.num_terms(), static_cast<size_t>(kTerms));
}

// --- QueryService ----------------------------------------------------------

TEST(QueryServiceTest, WarmTableServesAllWorkers) {
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(60)).ok());
  // Warm the table once...
  std::vector<std::string> expected =
      SortedAnswers(service.Query("path(1, X)"));
  ASSERT_EQ(expected.size(), 59u);
  // ...then hit it concurrently from every worker.
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(service.Submit("path(1, X)"));
  for (auto& future : futures) {
    EXPECT_EQ(SortedAnswers(future.get()), expected);
  }
  QueryService::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries_served, 33u);
  EXPECT_EQ(stats.per_worker.size(), 4u);
  // Every repeat was served lock-free off the published table.
  EXPECT_GE(stats.shared_table_hits, 32u);
}

TEST(QueryServiceTest, ColdConcurrentVariantComputedOnce) {
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(80)).ok());
  // All workers race on the same cold variant: the first caller computes,
  // the rest either park on the completion condvar or serve warm.
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit("path(1, X)"));
  std::vector<std::string> expected = SortedAnswers(futures[0].get());
  EXPECT_EQ(expected.size(), 79u);
  for (size_t i = 1; i < futures.size(); ++i) {
    EXPECT_EQ(SortedAnswers(futures[i].get()), expected);
  }
  // Exactly one evaluation happened: one subgoal, created once.
  EXPECT_EQ(service.tables().stats().subgoals_created.load(), 1u);
}

TEST(QueryServiceTest, DistinctVariantsEvaluateConcurrently) {
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(40)).ok());
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int i = 1; i <= 20; ++i) {
    futures.push_back(service.Submit("path(" + std::to_string(i) + ", X)"));
  }
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(SortedAnswers(futures[i - 1].get()).size(),
              static_cast<size_t>(40 - i))
        << "path(" << i << ", X)";
  }
}

void YieldAtSweep(const char* point) {
  if (std::string_view(point) == "retired.sweep") std::this_thread::yield();
}

TEST(QueryServiceTest, AbolishDuringConcurrentEnumeration) {
  // N workers enumerate a completed table in a loop while abolish queries
  // retire it from another worker: epoch-deferred reclamation must keep
  // every open snapshot readable, and re-evaluation after each abolish must
  // rebuild the exact same answers. Every worker sweeps the retired list
  // after each query; the yield at the start of each sweep widens the
  // window between a sweep and its lock (see EpochReclaimTest).
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(50)).ok());
  std::vector<std::string> expected =
      SortedAnswers(service.Query("path(1, X)"));
  ASSERT_EQ(expected.size(), 49u);

  TableSpace::SetSchedulePerturb(&YieldAtSweep);
  std::vector<std::future<Result<std::vector<Answer>>>> reads;
  std::vector<std::future<Result<std::vector<Answer>>>> abolishes;
  for (int round = 0; round < 40; ++round) {
    for (int r = 0; r < 3; ++r) reads.push_back(service.Submit("path(1, X)"));
    abolishes.push_back(service.Submit("abolish_table_call(path(1, X))"));
  }
  for (auto& future : reads) {
    EXPECT_EQ(SortedAnswers(future.get()), expected);
  }
  for (auto& future : abolishes) {
    Result<std::vector<Answer>> result = future.get();
    EXPECT_TRUE(result.ok());
  }
  TableSpace::SetSchedulePerturb(nullptr);
  // Quiesce (pause-the-world releases all retired snapshots), then check
  // that the abolishes really exercised retire + reclaim.
  ASSERT_TRUE(service.Update("true").ok());
  QueryService::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.epochs_retired, 0u);
  EXPECT_EQ(service.tables().num_retired_answers(), 0u);
}

// Stands in for two threads that act between the start of a reclaim sweep
// and its lock: a reader enters its epoch (as on the lock-free warm path),
// then another thread abolishes the table that reader may now hold.
struct SweepRace {
  TableSpace* tables = nullptr;
  int slot = -1;
  bool fired = false;
};
SweepRace sweep_race;
void EnterAndAbolishBeforeTheSweepLock(const char* point) {
  if (std::string_view(point) != "retired.sweep" || sweep_race.fired) return;
  sweep_race.fired = true;
  sweep_race.tables->epochs().Enter(sweep_race.slot);
  sweep_race.tables->Dispose(0);
}

TEST(EpochReclaimTest, SweepKeepsATableRetiredUnderAReaderBeforeItsLock) {
  // The sweep must judge every table it finds on the retired list against
  // the readers announced by then; an epoch minimum read before the lock
  // misses this reader and recycles the table under it.
  Engine engine;
  ASSERT_TRUE(
      engine.ConsultString(std::string(kPathProgram) + ChainEdges(8)).ok());
  ASSERT_EQ(engine.Count("path(1, X)").value(), 7u);
  TableSpace& tables = engine.evaluator().tables();
  ASSERT_EQ(tables.num_subgoals(), 1u);
  const AnswerTable* held = tables.subgoal(0).table();
  sweep_race = {&tables, tables.epochs().AcquireSlot(), false};
  ASSERT_GE(sweep_race.slot, 0);
  TableSpace::SetSchedulePerturb(&EnterAndAbolishBeforeTheSweepLock);
  tables.ReleaseRetiredAnswers();
  TableSpace::SetSchedulePerturb(nullptr);
  ASSERT_TRUE(sweep_race.fired);
  // The reader still pins the abolished table: parked, not cleared.
  EXPECT_EQ(tables.num_retired_answers(), 1u);
  EXPECT_EQ(held->size(), 7u);
  tables.epochs().Exit(sweep_race.slot);
  tables.ReleaseRetiredAnswers();
  EXPECT_EQ(tables.num_retired_answers(), 0u);
  tables.epochs().ReleaseSlot(sweep_race.slot);
  EXPECT_EQ(engine.Count("path(1, X)").value(), 7u);
}

TEST(QueryServiceTest, IncrementalRetractDuringServing) {
  QueryService service({.num_workers = 2});
  ASSERT_TRUE(service
                  .Consult(":- table path/2.\n"
                           ":- incremental(edge/2).\n"
                           "path(X,Y) :- edge(X,Y).\n"
                           "path(X,Y) :- path(X,Z), edge(Z,Y).\n" +
                           ChainEdges(20))
                  .ok());
  ASSERT_EQ(SortedAnswers(service.Query("path(1, X)")).size(), 19u);
  // Retract the tail edge: pause-the-world update, incremental
  // invalidation through the shared space, lazy re-evaluation on the next
  // call — interleaved with concurrent serving before and after.
  ASSERT_TRUE(service.Update("retract(edge(19, 20))").ok());
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit("path(1, X)"));
  for (auto& future : futures) {
    EXPECT_EQ(SortedAnswers(future.get()).size(), 18u);
  }
  ASSERT_TRUE(service.Update("assert(edge(19, 20))").ok());
  EXPECT_EQ(SortedAnswers(service.Query("path(1, X)")).size(), 19u);
  EXPECT_GT(service.tables().stats().tables_reevaluated.load(), 0u);
}

TEST(QueryServiceTest, StatsBuiltinExposesServiceCounters) {
  // table_stats/2 reports the shared-serving counters (satellite: counter
  // exposure); through the service the warm hits show up.
  QueryService service({.num_workers = 2});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(10)).ok());
  ASSERT_EQ(SortedAnswers(service.Query("path(1, X)")).size(), 9u);
  ASSERT_EQ(SortedAnswers(service.Query("path(1, X)")).size(), 9u);
  Result<std::vector<Answer>> stats =
      service.Query("table_stats(all, Stats)");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  std::string rendered = stats.value()[0].ToString();
  EXPECT_NE(rendered.find("shared_table_hits"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("waits_on_inprogress"), std::string::npos);
  EXPECT_NE(rendered.find("epochs_retired"), std::string::npos);
  // Warm path only: the coarse-fallback counter must be present and zero.
  EXPECT_NE(rendered.find("coarse_fallbacks - 0"), std::string::npos)
      << rendered;
}

// Counts NotifyCompletion calls through the schedule-perturbation hook.
std::atomic<int> completion_notifies{0};
void CountCompletionNotifies(const char* point) {
  if (std::string_view(point) == "completion.notify") ++completion_notifies;
}

TEST(QueryServiceTest, AbolishAllWakesParkedCallersOnce) {
  // Clearing a shared table space disposes every subgoal in place (readers
  // may hold their ids), then wakes parked callers once, not once per
  // subgoal.
  QueryService service({.num_workers = 2});
  ASSERT_TRUE(
      service.Consult(std::string(kPathProgram) + ChainEdges(12)).ok());
  for (int i = 1; i <= 6; ++i) {
    std::string goal = "path(" + std::to_string(i) + ", X)";
    ASSERT_EQ(SortedAnswers(service.Query(goal)).size(),
              static_cast<size_t>(12 - i));
  }
  ASSERT_EQ(service.tables().num_subgoals(), 6u);
  completion_notifies = 0;
  TableSpace::SetSchedulePerturb(&CountCompletionNotifies);
  service.control_session().evaluator().AbolishAllTables();
  TableSpace::SetSchedulePerturb(nullptr);
  EXPECT_EQ(completion_notifies.load(), 1);
  EXPECT_EQ(service.tables().stats().subgoals_disposed.load(), 6u);
  EXPECT_EQ(SortedAnswers(service.Query("path(3, X)")).size(), 9u);
}

// --- Baseline updates raised inside a worker's batch -----------------------

TEST(ServiceBaselineUpdate, UpdateInsideATabledGoalReturnsAndReachesWorkers) {
  // go's assert fires inside a worker's batch, which holds shards. The
  // baseline's abolish must be deferred rather than wait for those shards
  // (the worker would wait on itself), and be applied before any worker
  // reads a table again. A regression hangs: ctest's TIMEOUT catches it.
  QueryService service({.num_workers = 2, .incremental = false});
  ASSERT_TRUE(service
                  .Consult(":- table go/0.\n"
                           ":- table t/0.\n"
                           ":- table s/1.\n"
                           ":- incremental(e/1).\n"
                           "e(0).\n"
                           "go :- assert(e(1)).\n"
                           "t :- e(1).\n"
                           "s(X) :- e(X).\n")
                  .ok());
  std::vector<std::future<Result<std::vector<Answer>>>> before;
  for (int i = 0; i < 4; ++i) before.push_back(service.Submit("tnot(t)"));
  for (auto& future : before) {
    EXPECT_EQ(SortedAnswers(future.get()).size(), 1u);
  }

  EXPECT_EQ(SortedAnswers(service.Query("go")).size(), 1u);

  // Several at once, so both workers serve some.
  std::vector<std::future<Result<std::vector<Answer>>>> negations;
  std::vector<std::future<Result<std::vector<Answer>>>> collections;
  for (int i = 0; i < 4; ++i) {
    negations.push_back(service.Submit("tnot(t)"));
    collections.push_back(service.Submit("tfindall(X, s(X), L)"));
  }
  for (auto& future : negations) {
    EXPECT_EQ(SortedAnswers(future.get()).size(), 0u);
  }
  for (auto& future : collections) {
    Result<std::vector<Answer>> answers = future.get();
    ASSERT_TRUE(answers.ok() && answers.value().size() == 1u);
    EXPECT_EQ(answers.value()[0]["L"], "[0,1]");
  }
}

// --- Multi-thread vs single-thread differential ----------------------------

class ConcurrentDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentDifferential, AgreesWithSingleThread) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  int nodes = 8 + static_cast<int>(rng() % 8);
  int edges = nodes + static_cast<int>(rng() % (2 * nodes));
  std::ostringstream program;
  program << kPathProgram;
  for (int i = 0; i < edges; ++i) {
    program << "edge(" << 1 + rng() % nodes << "," << 1 + rng() % nodes
            << ").\n";
  }
  std::string text = program.str();

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text).ok());
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(service.Consult(text).ok());

  // A mix of open, half-bound and ground queries, all in flight at once.
  std::vector<std::string> goals;
  for (int i = 1; i <= nodes; ++i) {
    goals.push_back("path(" + std::to_string(i) + ", X)");
    goals.push_back("path(X, " + std::to_string(i) + ")");
  }
  goals.push_back("path(X, Y)");
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (const std::string& goal : goals) futures.push_back(service.Submit(goal));
  for (size_t i = 0; i < goals.size(); ++i) {
    std::vector<std::string> concurrent = SortedAnswers(futures[i].get());
    std::vector<std::string> reference =
        SortedAnswers(engine.FindAll(goals[i]));
    EXPECT_EQ(concurrent, reference) << goals[i] << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentDifferential,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace xsb
