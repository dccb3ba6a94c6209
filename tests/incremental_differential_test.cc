// Differential update fuzzing for incremental table maintenance: seeded
// random programs subjected to random assert/retract/query interleavings.
// After every mutation the same query is answered five ways —
//   1. the persistent engine maintaining tables incrementally,
//   2. a persistent engine in baseline mode (updates abolish all tables),
//   3. a fresh engine consulted from scratch with the current facts,
//   4. bottom-up semi-naive evaluation of the current facts,
//   5. a persistent parallel QueryService (4 workers) mirroring every
//      update, with the step's queries submitted concurrently so cold
//      re-evaluation after invalidation races across the worker pool —
// and all five must agree. Each step also probes the table-completion
// entry on (1), (2) and (5): a ground tnot over the query predicate and a
// tfindall over the query, checked against (3).
// A divergence in (1) alone pins an invalidation
// bug (a table that should have been marked stale survived, or a
// re-evaluation picked up stale subsidiary answers); the fresh-engine and
// bottom-up oracles share no update machinery at all; (5) additionally
// exercises the shard-ownership protocol on the invalidate-then-requery
// path.
//
// Failures print an `ops:` repro line with the exact interleaving so a seed
// can be replayed by hand.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bottomup/seminaive.h"
#include "server/query_service.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

using AnswerSet = std::set<std::pair<std::string, std::string>>;
using Fact = std::pair<int, int>;

// One fuzzed scenario: rules over an incremental base predicate, the tabled
// query predicate, and its bottom-up equivalent.
struct Scenario {
  std::string directives;  // table + incremental declarations
  std::string rules;       // shared between SLG and bottom-up
  std::string base;        // the incremental predicate's name
  std::string query;       // e.g. "path(X, Y)"
  std::string query_pred;  // e.g. "path"
};

Scenario TransitiveClosure(bool left_recursive) {
  Scenario s;
  s.directives =
      ":- table path/2.\n"
      ":- incremental(edge/2).\n";
  s.rules = left_recursive
                ? "path(X,Y) :- edge(X,Y).\n"
                  "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                : "path(X,Y) :- edge(X,Y).\n"
                  "path(X,Y) :- edge(X,Z), path(Z,Y).\n";
  s.base = "edge";
  s.query = "path(X, Y)";
  s.query_pred = "path";
  return s;
}

Scenario SameGeneration() {
  Scenario s;
  s.directives =
      ":- table sg/2.\n"
      ":- incremental(par/2).\n";
  s.rules =
      "sg(X,Y) :- par(P,X), par(P,Y).\n"
      "sg(X,Y) :- par(XP,X), par(YP,Y), sg(XP,YP).\n";
  s.base = "par";
  s.query = "sg(X, Y)";
  s.query_pred = "sg";
  return s;
}

// Two mutually recursive tabled predicates over the same incremental base:
// invalidation must propagate around the table-to-table dependency cycle.
Scenario MutualReachability() {
  Scenario s;
  s.directives =
      ":- table odd/2.\n"
      ":- table even/2.\n"
      ":- incremental(edge/2).\n";
  s.rules =
      "odd(X,Y) :- edge(X,Y).\n"
      "odd(X,Y) :- edge(X,Z), even(Z,Y).\n"
      "even(X,Y) :- edge(X,Z), odd(Z,Y).\n";
  s.base = "edge";
  s.query = "odd(X, Y)";
  s.query_pred = "odd";
  return s;
}

std::string FactText(const std::string& base, const std::set<Fact>& facts) {
  std::string text;
  for (auto [a, b] : facts) {
    text +=
        base + "(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  return text;
}

std::string FactTerm(const std::string& base, Fact f) {
  return base + "(" + std::to_string(f.first) + "," +
         std::to_string(f.second) + ")";
}

AnswerSet Collect(Engine& engine, const std::string& query) {
  AnswerSet result;
  Status status = engine.ForEach(query, [&result](const Answer& a) {
    result.insert({a["X"], a["Y"]});
    return true;
  });
  EXPECT_TRUE(status.ok()) << status.message();
  return result;
}

AnswerSet FreshAnswers(const Scenario& s, const std::set<Fact>& facts) {
  Engine engine;
  EXPECT_TRUE(
      engine.ConsultString(s.directives + s.rules + FactText(s.base, facts))
          .ok());
  return Collect(engine, s.query);
}

AnswerSet BottomUpAnswers(const Scenario& s, const std::set<Fact>& facts) {
  // Semi-naive needs at least one fact per extensional predicate to know it;
  // an empty base means an empty derived relation.
  if (facts.empty()) return AnswerSet();
  datalog::DatalogProgram dl;
  EXPECT_TRUE(
      datalog::ParseDatalog(s.rules + FactText(s.base, facts), &dl).ok());
  datalog::Evaluation eval(&dl);
  EXPECT_TRUE(eval.Run().ok());
  AnswerSet result;
  datalog::PredId id = dl.InternPred(s.query_pred, 2);
  for (const datalog::Tuple& t : eval.relation(id).tuples()) {
    result.insert({dl.consts().ToString(t[0]), dl.consts().ToString(t[1])});
  }
  return result;
}

// Parses a rendered list of X-Y pairs, "[1 - 2,2 - 3]". A repeated pair
// adds a ("duplicate", pair) marker, so it cannot compare equal to a set.
AnswerSet ParsePairList(const std::string& list) {
  AnswerSet result;
  std::string items = list.substr(1, list.size() - 2);  // strip [ ]
  size_t start = 0;
  while (start < items.size()) {
    size_t end = items.find(',', start);
    if (end == std::string::npos) end = items.size();
    std::string item = items.substr(start, end - start);
    size_t dash = item.find('-');
    std::string x = item.substr(0, item.find_last_not_of(' ', dash - 1) + 1);
    std::string y = item.substr(item.find_first_not_of(' ', dash + 1));
    if (!result.insert({x, y}).second) result.insert({"duplicate", item});
    start = end + 1;
  }
  return result;
}

// The pairs of tfindall(X-Y, Query, L)'s one answer.
AnswerSet CollectList(Engine& engine, const std::string& goal) {
  std::string list = "[]";
  Status status = engine.ForEach(goal, [&list](const Answer& a) {
    list = a["L"];
    return false;
  });
  EXPECT_TRUE(status.ok()) << status.message();
  return ParsePairList(list);
}

AnswerSet CollectService(QueryService& service, const std::string& query) {
  AnswerSet result;
  Result<std::vector<Answer>> answers = service.Query(query);
  EXPECT_TRUE(answers.ok())
      << (answers.ok() ? "" : answers.status().ToString());
  if (!answers.ok()) return result;
  for (const Answer& a : answers.value()) {
    result.insert({a["X"], a["Y"]});
  }
  return result;
}

Scenario PickScenario(uint32_t seed) {
  switch (seed % 4) {
    case 0:
      return TransitiveClosure(/*left_recursive=*/true);
    case 1:
      return TransitiveClosure(/*left_recursive=*/false);
    case 2:
      return SameGeneration();
    default:
      return MutualReachability();
  }
}

class IncrementalUpdateFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IncrementalUpdateFuzz, AgreesWithFromScratchAtEveryStep) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed * 2654435761u + 17);
  Scenario s = PickScenario(seed);
  const int num_nodes = 4 + static_cast<int>(rng() % 4);  // 4..7

  // Seed facts.
  std::set<Fact> facts;
  int initial = 2 + static_cast<int>(rng() % (2 * num_nodes));
  for (int k = 0; k < initial; ++k) {
    facts.insert({1 + static_cast<int>(rng() % num_nodes),
                  1 + static_cast<int>(rng() % num_nodes)});
  }

  Engine incremental;
  ASSERT_TRUE(incremental
                  .ConsultString(s.directives + s.rules +
                                 FactText(s.base, facts))
                  .ok());
  Engine::Options baseline_options;
  baseline_options.incremental = false;
  Engine baseline(baseline_options);
  ASSERT_TRUE(baseline
                  .ConsultString(s.directives + s.rules +
                                 FactText(s.base, facts))
                  .ok());
  QueryService service({.num_workers = 4});
  ASSERT_TRUE(service
                  .Consult(s.directives + s.rules + FactText(s.base, facts))
                  .ok());

  // Picks the tnot probe's pair; separate from `rng`, so the update
  // sequence of every seed is unchanged by the probes.
  std::mt19937 probe_rng(seed);

  std::string ops = "consult";  // repro line, grows one entry per step
  const int steps = 10 + static_cast<int>(rng() % 6);
  for (int step = 0; step < steps; ++step) {
    // Mutate: mostly asserts/retracts of random facts; occasionally touch a
    // specific variant first so several tables are live when the update hits.
    int roll = static_cast<int>(rng() % 10);
    Fact f = {1 + static_cast<int>(rng() % num_nodes),
              1 + static_cast<int>(rng() % num_nodes)};
    if (roll < 4) {
      // Assert (skipped when present: duplicate clauses would desync the
      // shadow set, and they add nothing under set semantics).
      if (facts.insert(f).second) {
        std::string goal = "assert(" + FactTerm(s.base, f) + ")";
        ops += " | " + goal;
        ASSERT_TRUE(incremental.Holds(goal).ok());
        ASSERT_TRUE(baseline.Holds(goal).ok());
        ASSERT_TRUE(service.Update(goal).ok());
      } else {
        ops += " | noop";
      }
    } else if (roll < 8) {
      // Retract: half the time an existing fact, else a random (likely
      // absent) one — both engines must agree that it failed.
      if (!facts.empty() && rng() % 2 == 0) {
        auto it = facts.begin();
        std::advance(it, rng() % facts.size());
        f = *it;
      }
      std::string goal = "retract(" + FactTerm(s.base, f) + ")";
      ops += " | " + goal;
      Result<bool> inc = incremental.Holds(goal);
      Result<bool> base = baseline.Holds(goal);
      ASSERT_TRUE(inc.ok() && base.ok());
      EXPECT_EQ(inc.value(), base.value()) << "ops: " << ops;
      EXPECT_EQ(inc.value(), facts.count(f) == 1) << "ops: " << ops;
      // Update() reports a failed goal as a status error, which is exactly
      // the retract-of-absent-fact case.
      EXPECT_EQ(service.Update(goal).ok(), facts.count(f) == 1)
          << "ops: " << ops;
      facts.erase(f);
    } else {
      // Query a ground-ish variant to multiply the live tables.
      std::string variant = s.query_pred + "(" +
                            std::to_string(1 + rng() % num_nodes) + ", Y)";
      ops += " | ?" + variant;
      ASSERT_TRUE(incremental.Holds(variant).ok());
      ASSERT_TRUE(baseline.Holds(variant).ok());
      ASSERT_TRUE(service.Query(variant).ok());
    }

    // Two variant probes race the full query across the service's worker
    // pool, so the post-update cold re-evaluation happens under contention.
    auto probe1 = service.Submit(
        s.query_pred + "(" + std::to_string(1 + rng() % num_nodes) + ", Y)");
    auto probe2 = service.Submit(
        s.query_pred + "(" + std::to_string(1 + rng() % num_nodes) + ", Y)");
    AnswerSet inc = Collect(incremental, s.query);
    AnswerSet base = Collect(baseline, s.query);
    AnswerSet fresh = FreshAnswers(s, facts);
    AnswerSet bottom_up = BottomUpAnswers(s, facts);
    AnswerSet parallel = CollectService(service, s.query);
    EXPECT_TRUE(probe1.get().ok());
    EXPECT_TRUE(probe2.get().ok());
    EXPECT_EQ(inc, fresh) << "seed " << seed << " step " << step
                          << "\nops: " << ops;
    EXPECT_EQ(base, fresh) << "seed " << seed << " step " << step
                           << "\nops: " << ops;
    EXPECT_EQ(bottom_up, fresh) << "seed " << seed << " step " << step
                                << "\nops: " << ops;
    EXPECT_EQ(parallel, fresh) << "seed " << seed << " step " << step
                               << "\nops: " << ops;

    // Completion-entry probes against the fresh engine's answers.
    std::pair<std::string, std::string> pair = {
        std::to_string(1 + probe_rng() % num_nodes),
        std::to_string(1 + probe_rng() % num_nodes)};
    const std::string negation = "tnot(" + s.query_pred + "(" + pair.first +
                                 ", " + pair.second + "))";
    const std::string collection = "tfindall(X-Y, " + s.query + ", L)";
    const bool absent = fresh.count(pair) == 0;
    Result<std::vector<Answer>> service_negation = service.Query(negation);
    Result<std::vector<Answer>> service_collection = service.Query(collection);
    ASSERT_TRUE(service_negation.ok() && service_collection.ok());
    ASSERT_EQ(service_collection.value().size(), 1u);
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " " + negation +
                              "\nops: " + ops;
    EXPECT_EQ(incremental.Holds(negation).value(), absent) << where;
    EXPECT_EQ(baseline.Holds(negation).value(), absent) << where;
    EXPECT_EQ(service_negation.value().empty(), !absent) << where;
    EXPECT_EQ(CollectList(incremental, collection), fresh) << where;
    EXPECT_EQ(CollectList(baseline, collection), fresh) << where;
    EXPECT_EQ(ParsePairList(service_collection.value()[0]["L"]), fresh)
        << where;
    if (HasFailure()) break;  // one repro line is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalUpdateFuzz,
                         ::testing::Range(0u, 56u));

}  // namespace
}  // namespace xsb
