// Schedule-randomizing stress tests for parallel evaluation of independent
// tabled subgoals (the shard-ownership protocol replacing the global eval
// lock). A seeded SchedulePerturb hook injects random yields/sleeps at every
// lock acquisition / wait / publication point inside the table space, so one
// pass over the suite explores many interleavings; every answer set is
// checked against a single-threaded Engine oracle. Worker count comes from
// XSB_TEST_WORKERS (the CI TSan matrix runs 2/4/8); on failure the active
// seed plus a ring buffer of recent perturbation points is written to
// parallel_eval_trace.txt for upload as a CI artifact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/query_service.h"
#include "tabling/table_space.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

int TestWorkers() {
  const char* env = std::getenv("XSB_TEST_WORKERS");
  if (env == nullptr) return 4;
  int n = std::atoi(env);
  return n >= 1 ? n : 4;
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

// --- SchedulePerturb hook ---------------------------------------------------

// Seeded random yields/sleeps, plus a ring buffer of the points each thread
// passed (the schedule trace uploaded on CI failure).
struct PerturbState {
  std::atomic<bool> on{false};
  std::atomic<uint32_t> seed{0};
  std::atomic<uint64_t> hits{0};
  std::mutex trace_mutex;
  std::vector<std::string> trace;  // bounded ring, newest last
};

PerturbState& Perturb() {
  static PerturbState state;
  return state;
}

void PerturbHook(const char* point) {
  PerturbState& state = Perturb();
  if (!state.on.load(std::memory_order_acquire)) return;
  state.hits.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state.trace_mutex);
    if (state.trace.size() >= 4096) {
      state.trace.erase(state.trace.begin(), state.trace.begin() + 2048);
    }
    std::ostringstream line;
    line << std::this_thread::get_id() << " " << point;
    state.trace.push_back(line.str());
  }
  thread_local std::mt19937 rng(
      state.seed.load(std::memory_order_relaxed) ^
      static_cast<uint32_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  switch (rng() % 8) {
    case 0:
    case 1:
      std::this_thread::yield();
      break;
    case 2:
      std::this_thread::sleep_for(std::chrono::microseconds(rng() % 50));
      break;
    case 3:
      std::this_thread::sleep_for(std::chrono::microseconds(rng() % 300));
      break;
    default:
      break;  // run through
  }
}

// Installs the randomized hook for one test scope; on destruction after a
// failure, dumps the seed and the recent schedule to the trace artifact.
class PerturbScope {
 public:
  explicit PerturbScope(uint32_t seed) {
    PerturbState& state = Perturb();
    {
      std::lock_guard<std::mutex> lock(state.trace_mutex);
      state.trace.clear();
    }
    state.seed.store(seed, std::memory_order_relaxed);
    state.on.store(true, std::memory_order_release);
    TableSpace::SetSchedulePerturb(&PerturbHook);
  }
  ~PerturbScope() {
    TableSpace::SetSchedulePerturb(nullptr);
    PerturbState& state = Perturb();
    state.on.store(false, std::memory_order_release);
    if (testing::Test::HasFailure()) {
      std::ofstream out("parallel_eval_trace.txt", std::ios::app);
      out << "=== " << testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()
          << " seed=" << state.seed.load() << " workers=" << TestWorkers()
          << " ===\n";
      std::lock_guard<std::mutex> lock(state.trace_mutex);
      for (const std::string& line : state.trace) out << line << "\n";
    }
  }
  PerturbScope(const PerturbScope&) = delete;
  PerturbScope& operator=(const PerturbScope&) = delete;
};

// --- Generated programs -----------------------------------------------------

// `families` independent transitive-closure families path_i/edge_i: disjoint
// call-graph SCCs, so the analyzer gives them (mod collisions) disjoint
// shard reach masks and cold queries over different families evaluate
// concurrently. With `extras` the edge sets get a few random edges per seed
// (the stress suites); without, the chain is deterministic so tests can
// assert exact answer counts.
std::string IndependentFamilies(int families, int chain, uint32_t seed,
                                bool extras = true) {
  std::mt19937 rng(seed);
  std::ostringstream out;
  for (int f = 0; f < families; ++f) {
    out << ":- table path" << f << "/2.\n";
    out << "path" << f << "(X,Y) :- edge" << f << "(X,Y).\n";
    out << "path" << f << "(X,Y) :- path" << f << "(X,Z), edge" << f
        << "(Z,Y).\n";
    for (int i = 1; i < chain; ++i) {
      out << "edge" << f << "(" << i << "," << i + 1 << ").\n";
    }
    if (!extras) continue;
    // A few random extra edges so the families differ per seed.
    for (int i = 0; i < 3; ++i) {
      out << "edge" << f << "(" << 1 + rng() % chain << ","
          << 1 + rng() % chain << ").\n";
    }
  }
  return out.str();
}

// Known-dependent pairs on top of the independent families: bridge/2 joins
// two families' closures, and a mutually recursive pair spans another two.
std::string DependentToppings(int families) {
  std::ostringstream out;
  out << ":- table bridge/2.\n"
      << "bridge(X,Y) :- path0(X,Z), path1(Z,Y).\n"
      << ":- table even/2.\n:- table odd/2.\n"
      << "even(X,X) :- path2(X,_).\n"
      << "even(X,Y) :- odd(X,Z), edge3(Z,Y).\n"
      << "odd(X,Y) :- even(X,Z), edge2(Z,Y).\n";
  (void)families;
  return out.str();
}

std::vector<std::string> StressGoals(int families, bool dependent,
                                     uint32_t seed) {
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::vector<std::string> goals;
  for (int f = 0; f < families; ++f) {
    goals.push_back("path" + std::to_string(f) + "(1, X)");
    goals.push_back("path" + std::to_string(f) + "(" +
                    std::to_string(1 + rng() % 5) + ", X)");
  }
  if (dependent) {
    goals.push_back("bridge(1, X)");
    goals.push_back("even(1, X)");
    goals.push_back("odd(1, X)");
    goals.push_back("bridge(2, X)");
  }
  std::shuffle(goals.begin(), goals.end(), rng);
  return goals;
}

// Runs `goals` cold and overlapping on a fresh perturbed QueryService and
// checks every answer set against the single-threaded oracle.
void RunStress(const std::string& program,
               const std::vector<std::string>& goals, uint32_t seed) {
  // Oracle first, before the hook slows everything down.
  Engine oracle;
  ASSERT_TRUE(oracle.ConsultString(program).ok());
  std::vector<std::vector<std::string>> expected;
  expected.reserve(goals.size());
  for (const std::string& goal : goals) {
    expected.push_back(SortedAnswers(oracle.FindAll(goal)));
  }

  QueryService service({.num_workers = TestWorkers()});
  ASSERT_TRUE(service.Consult(program).ok());
  PerturbScope perturb(seed);
  // Two waves: the first is all-cold and overlapping, the second re-issues
  // every goal (warm serves race the stragglers of the first wave).
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int wave = 0; wave < 2; ++wave) {
    for (const std::string& goal : goals) futures.push_back(service.Submit(goal));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(SortedAnswers(futures[i].get()), expected[i % goals.size()])
        << "goal " << goals[i % goals.size()] << " seed " << seed;
  }
  EXPECT_GT(Perturb().hits.load(), 0u);
}

class ParallelEvalStress : public testing::TestWithParam<uint32_t> {};

TEST_P(ParallelEvalStress, IndependentSubgoalsMatchOracle) {
  uint32_t seed = GetParam();
  std::string program = IndependentFamilies(6, 24, seed);
  RunStress(program, StressGoals(6, /*dependent=*/false, seed), seed);
}

TEST_P(ParallelEvalStress, DependentSubgoalsMatchOracle) {
  uint32_t seed = GetParam();
  std::string program =
      IndependentFamilies(4, 16, seed) + DependentToppings(4);
  RunStress(program, StressGoals(4, /*dependent=*/true, seed), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEvalStress, testing::Range(0u, 6u));

// --- Concurrency proof ------------------------------------------------------

// Two cold queries over shard-disjoint families must *overlap*: each worker
// blocks inside the post-acquisition hook until both hold their shards at
// the same time. Under the old global eval lock the second acquisition could
// never happen while the first was parked, so this test fails by timeout
// flag. Deterministic on a single core — the block point is a condition
// wait, not a busy race.
std::atomic<int> g_inside{0};
std::atomic<bool> g_overlap_seen{false};

void OverlapHook(const char* point) {
  if (std::string_view(point) != "shards.acquired") return;
  g_inside.fetch_add(1);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (g_inside.load() >= 2) {
      g_overlap_seen.store(true);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ParallelEvalTest, IndependentColdQueriesOverlap) {
  if (TestWorkers() < 2) GTEST_SKIP() << "needs >= 2 workers";
  QueryService service({.num_workers = TestWorkers()});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(2, 20, 7, /*extras=*/false)).ok());
  SymbolTable* symbols = service.program().symbols();
  const Predicate* p0 = service.program().Lookup(
      symbols->InternFunctor(symbols->InternAtom("path0"), 2));
  const Predicate* p1 = service.program().Lookup(
      symbols->InternFunctor(symbols->InternAtom("path1"), 2));
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  // The analyzer must have given the two families disjoint reach masks —
  // that is the property that makes them run concurrently.
  ASSERT_NE(p0->eval_reach_mask(), 0u);
  ASSERT_NE(p1->eval_reach_mask(), 0u);
  ASSERT_EQ(p0->eval_reach_mask() & p1->eval_reach_mask(), 0u);

  g_inside.store(0);
  g_overlap_seen.store(false);
  TableSpace::SetSchedulePerturb(&OverlapHook);
  auto a = service.Submit("path0(1, X)");
  auto b = service.Submit("path1(1, X)");
  EXPECT_EQ(SortedAnswers(a.get()).size(), 19u);
  EXPECT_EQ(SortedAnswers(b.get()).size(), 19u);
  TableSpace::SetSchedulePerturb(nullptr);
  EXPECT_TRUE(g_overlap_seen.load())
      << "two shard-disjoint cold evaluations never overlapped";
  EXPECT_GT(service.Stats().parallel_batches, 0u);
  EXPECT_EQ(service.Stats().coarse_fallbacks, 0u);
}

// --- Deadlock watchdog / coarse fallback ------------------------------------

// A dependency asserted *after* analysis makes path0's reach mask stale: it
// does not cover path1's shard. With path1's shard held externally, a cold
// path0 evaluation must escalate, lose, unwind, and restart under the
// all-shards coarse lock (counted in coarse_fallbacks) — and complete once
// the shard frees, rather than deadlocking.
TEST(ParallelEvalTest, StaleMaskEngagesCoarseFallbackNotDeadlock) {
  QueryService service({.num_workers = TestWorkers()});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(2, 10, 11, /*extras=*/false)).ok());
  SymbolTable* symbols = service.program().symbols();
  const Predicate* p0 = service.program().Lookup(
      symbols->InternFunctor(symbols->InternAtom("path0"), 2));
  const Predicate* p1 = service.program().Lookup(
      symbols->InternFunctor(symbols->InternAtom("path1"), 2));
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  ASSERT_EQ(p0->eval_reach_mask() & p1->eval_reach_mask(), 0u);

  // The cross-family rule the analyzer never saw.
  ASSERT_TRUE(service.Update("assertz((path0(X,Y) :- path1(X,Y)))").ok());
  ASSERT_EQ(p0->eval_reach_mask() & EvalShardBit(p1->eval_shard()), 0u)
      << "mask should be stale (that is the point of the test)";

  // Hold path1's shard so the mid-batch escalation inside the path0
  // evaluation must fail.
  ShardMask held = EvalShardBit(p1->eval_shard());
  service.tables().AcquireShards(held);
  auto future = service.Submit("path0(1, X)");
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.Stats().coarse_fallbacks == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(service.Stats().coarse_fallbacks, 1u)
      << "stale-mask evaluation never fell back to coarse locking";
  // The coarse restart is now parked on the full mask; freeing the shard
  // must let it complete within the watchdog bound.
  service.tables().ReleaseShards(held);
  EXPECT_EQ(SortedAnswers(future.get()).size(), 9u);

  // The counter also surfaces through table_stats/2.
  auto stats = service.Query("table_stats(all, S)");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_NE(stats.value()[0].ToString().find("coarse_fallbacks"),
            std::string::npos);
}

// A fully cyclic cross-shard program (both directions asserted after
// analysis) evaluated cold from many workers at once, with the randomized
// hook on: every schedule must terminate — contended escalations unwind to
// the coarse path instead of hold-and-waiting — and agree with the oracle.
TEST(ParallelEvalTest, CyclicCrossShardProgramCompletes) {
  std::string base = IndependentFamilies(2, 12, 13, /*extras=*/false);
  std::string cross =
      "assertz((path0(X,Y) :- path1(X,Y))), "
      "assertz((path1(X,Y) :- path0(X,Y)))";
  Engine oracle;
  ASSERT_TRUE(oracle.ConsultString(base).ok());
  ASSERT_TRUE(oracle.Count(cross).ok());
  std::vector<std::string> expected0 =
      SortedAnswers(oracle.FindAll("path0(1, X)"));
  std::vector<std::string> expected1 =
      SortedAnswers(oracle.FindAll("path1(1, X)"));

  QueryService service({.num_workers = TestWorkers()});
  ASSERT_TRUE(service.Consult(base).ok());
  ASSERT_TRUE(service.Update(cross).ok());
  PerturbScope perturb(13);
  std::vector<std::future<Result<std::vector<Answer>>>> futures;
  for (int round = 0; round < 4; ++round) {
    futures.push_back(service.Submit("path0(1, X)"));
    futures.push_back(service.Submit("path1(1, X)"));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(SortedAnswers(futures[i].get()),
              i % 2 == 0 ? expected0 : expected1);
  }
  // waits_on_inprogress / coarse_fallbacks are schedule-dependent here; the
  // assertion is termination + soundness, which future.get() already is.
}

// The published reach masks really partition independent families: every
// family owns its own shard bit and no two families' masks intersect (up to
// the 16-shard modulus, which this small program cannot collide).
// --- Deferral: a cold first goal gives way instead of waiting -----------------

// Polls `done` for up to ten seconds.
template <typename Pred>
bool Eventually(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Schedule control for the deferral tests, installed as the perturbation
// hook: counts blocking shard acquisitions, holds every non-blocking one
// while the gate is closed (so a test can queue several jobs before a
// worker looks at the first), and optionally holds the first batch to
// reach publication, its tables still incomplete.
std::atomic<int> g_blocking_acquires{0};
std::atomic<bool> g_try_gate_closed{false};
std::atomic<bool> g_hold_publish{false};
std::atomic<bool> g_publish_held{false};

void DeferralHook(const char* point) {
  std::string_view p(point);
  if (p == "shards.acquire") {
    g_blocking_acquires.fetch_add(1);
  } else if (p == "shards.try") {
    Eventually([] { return !g_try_gate_closed.load(); });
  } else if (p == "batch.publish") {
    bool expected = true;
    if (!g_hold_publish.compare_exchange_strong(expected, false)) return;
    g_publish_held.store(true);
    Eventually([] { return !g_publish_held.load(); });
  }
}

class ParallelEvalDeferral : public ::testing::Test {
 protected:
  void SetUp() override {
    g_blocking_acquires.store(0);
    g_try_gate_closed.store(false);
    g_hold_publish.store(false);
    g_publish_held.store(false);
    TableSpace::SetSchedulePerturb(&DeferralHook);
  }
  void TearDown() override { TableSpace::SetSchedulePerturb(nullptr); }

  static bool Ready(
      const std::future<Result<std::vector<Answer>>>& f,
      std::chrono::milliseconds wait = std::chrono::milliseconds(0)) {
    return f.wait_for(wait) == std::future_status::ready;
  }

  static ShardMask OwnShard(QueryService& service, const char* name) {
    SymbolTable* symbols = service.program().symbols();
    const Predicate* pred = service.program().Lookup(
        symbols->InternFunctor(symbols->InternAtom(name), 2));
    EXPECT_NE(pred, nullptr);
    EXPECT_GE(pred->eval_shard(), 0);
    return EvalShardBit(pred->eval_shard());
  }
};

// With family A's shard held, a cold A query is requeued and the B query
// queued behind it runs on the one worker; A completes once A's shard is
// free. Without deferral B waits behind A until the shard is released.
TEST_F(ParallelEvalDeferral, QueryBehindABusyShardDoesNotBlockTheNext) {
  QueryService service({.num_workers = 1});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(2, 10, 21, /*extras=*/false)).ok());
  ShardMask held = OwnShard(service, "path0");
  ASSERT_EQ(held & OwnShard(service, "path1"), 0u);
  service.tables().AcquireShards(held);
  g_try_gate_closed.store(true);
  auto a = service.Submit("path0(1, X)");
  auto b = service.Submit("path1(1, X)");
  g_try_gate_closed.store(false);
  EXPECT_TRUE(Ready(b, std::chrono::seconds(10)))
      << "the B query waited behind the blocked A query";
  EXPECT_FALSE(Ready(a)) << "A ran while its shard was held";
  service.tables().ReleaseShards(held);
  EXPECT_EQ(SortedAnswers(a.get()).size(), 9u);
  EXPECT_EQ(SortedAnswers(b.get()).size(), 9u);
  QueryService::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deferrals, 1u);
  EXPECT_EQ(stats.queries_served, 2u);
}

// A deferred job's second run waits: with nothing else queued, the worker
// picks the job again and parks on the busy shard instead of requeueing it
// over and over.
TEST_F(ParallelEvalDeferral, AJobIsDeferredAtMostOnce) {
  QueryService service({.num_workers = 1});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(2, 10, 22, /*extras=*/false)).ok());
  ShardMask held = OwnShard(service, "path0");
  service.tables().AcquireShards(held);
  g_blocking_acquires.store(0);  // the test's own acquisition
  auto a = service.Submit("path0(1, X)");
  EXPECT_TRUE(Eventually([&] { return g_blocking_acquires.load() > 0; }))
      << "the requeued job never waited for the shard";
  EXPECT_EQ(service.Stats().deferrals, 1u);
  EXPECT_FALSE(Ready(a, std::chrono::milliseconds(20)));
  EXPECT_EQ(service.Stats().deferrals, 1u);
  service.tables().ReleaseShards(held);
  EXPECT_EQ(SortedAnswers(a.get()).size(), 9u);
  EXPECT_EQ(service.Stats().deferrals, 1u);
  EXPECT_EQ(service.Stats().queries_served, 1u);
}

// Only a query's first goal may defer: here the cold call comes after an
// assertz, so the query waits for the shard rather than run twice, and the
// side effect happens once.
TEST_F(ParallelEvalDeferral, GoalAfterASideEffectWaitsInstead) {
  QueryService service({.num_workers = 1});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(2, 10, 23, /*extras=*/false)).ok());
  ShardMask held = OwnShard(service, "path0");
  service.tables().AcquireShards(held);
  g_blocking_acquires.store(0);  // the test's own acquisition
  auto a = service.Submit("assertz(mark(1)), path0(1, X)");
  EXPECT_TRUE(Eventually([&] { return g_blocking_acquires.load() > 0; }))
      << "the query never reached the busy shard";
  EXPECT_FALSE(Ready(a, std::chrono::milliseconds(20)));
  service.tables().ReleaseShards(held);
  EXPECT_EQ(SortedAnswers(a.get()).size(), 9u);
  EXPECT_EQ(service.Stats().deferrals, 0u);
  EXPECT_EQ(SortedAnswers(service.Query("mark(X)")),
            std::vector<std::string>{"X = 1"});
}

// The other wait a first goal can meet: its variant is being evaluated by
// another worker. The second caller gives way to the next query, then
// waits for the evaluation on its second run.
TEST_F(ParallelEvalDeferral, VariantInProgressGivesWayToTheNextQuery) {
  QueryService service({.num_workers = 2});
  ASSERT_TRUE(
      service.Consult(IndependentFamilies(3, 10, 24, /*extras=*/false)).ok());
  // The first evaluation of path0(1, X) stops just before it publishes,
  // its table still incomplete.
  g_hold_publish.store(true);
  auto first = service.Submit("path0(1, X)");
  ASSERT_TRUE(Eventually([] { return g_publish_held.load(); }));
  // The other worker is kept on a path2 query until both of the next two
  // jobs are queued.
  g_try_gate_closed.store(true);
  auto gate = service.Submit("path2(1, X)");
  auto second = service.Submit("path0(1, X)");
  auto other = service.Submit("path1(1, X)");
  g_try_gate_closed.store(false);
  EXPECT_TRUE(Ready(other, std::chrono::seconds(10)))
      << "the path1 query waited behind the parked path0 caller";
  EXPECT_FALSE(Ready(second));
  g_publish_held.store(false);
  EXPECT_EQ(SortedAnswers(first.get()).size(), 9u);
  EXPECT_EQ(SortedAnswers(gate.get()).size(), 9u);
  EXPECT_EQ(SortedAnswers(second.get()).size(), 9u);
  EXPECT_EQ(SortedAnswers(other.get()).size(), 9u);
  EXPECT_EQ(service.Stats().deferrals, 1u);
}

TEST(ParallelEvalTest, AnalyzerPublishesDisjointReachMasks) {
  QueryService service({.num_workers = 1});
  ASSERT_TRUE(service.Consult(IndependentFamilies(4, 6, 3)).ok());
  SymbolTable* symbols = service.program().symbols();
  std::vector<ShardMask> masks;
  for (int f = 0; f < 4; ++f) {
    const Predicate* pred = service.program().Lookup(symbols->InternFunctor(
        symbols->InternAtom("path" + std::to_string(f)), 2));
    ASSERT_NE(pred, nullptr);
    ASSERT_GE(pred->eval_shard(), 0);
    ASSERT_NE(pred->eval_reach_mask() & EvalShardBit(pred->eval_shard()), 0u);
    masks.push_back(pred->eval_reach_mask());
  }
  for (size_t i = 0; i < masks.size(); ++i) {
    for (size_t j = i + 1; j < masks.size(); ++j) {
      EXPECT_EQ(masks[i] & masks[j], 0u) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace xsb
