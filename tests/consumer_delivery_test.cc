// Consumer answer delivery: suspended consumers drain their producers'
// answers through the machine's answer choice point (Machine::RunAnswers),
// one delivery pass per consumer, newest consumer first. These tests pin
// that the delivery mechanism leaves the evaluation itself unchanged: the
// answer sets match an independent oracle (bottom-up semi-naive evaluation
// or a direct computation), and the evaluation counters equal the values
// the per-answer resumption loop produced before it. Then the edge cases of
// a pass that is cut short or disturbed partway through its cursor, and
// what a small table costs in memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bottomup/seminaive.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

using AnswerSet = std::set<std::vector<std::string>>;
using EdgeList = std::vector<std::pair<int, int>>;

// The evaluation counters a delivery change must not move.
struct Counters {
  uint64_t subgoals_created = 0;
  uint64_t answers_inserted = 0;
  uint64_t duplicate_answers = 0;
  uint64_t consumer_suspensions = 0;
  uint64_t consumer_resumptions = 0;

  bool operator==(const Counters&) const = default;

  Counters& operator+=(const Counters& o) {
    subgoals_created += o.subgoals_created;
    answers_inserted += o.answers_inserted;
    duplicate_answers += o.duplicate_answers;
    consumer_suspensions += o.consumer_suspensions;
    consumer_resumptions += o.consumer_resumptions;
    return *this;
  }
};

std::ostream& operator<<(std::ostream& os, const Counters& c) {
  return os << "{" << c.subgoals_created << ", " << c.answers_inserted << ", "
            << c.duplicate_answers << ", " << c.consumer_suspensions << ", "
            << c.consumer_resumptions << "}";
}

Counters CountersOf(Engine& engine) {
  const TableStats& s = engine.evaluator().tables().stats();
  return Counters{s.subgoals_created.load(), s.answers_inserted.load(),
                  s.duplicate_answers.load(), s.consumer_suspensions.load(),
                  s.consumer_resumptions.load()};
}

// Answers of `goal` as tuples of the named variables' renderings.
AnswerSet Answers(Engine& engine, const std::string& goal,
                  const std::vector<std::string>& vars) {
  AnswerSet out;
  Status s = engine.ForEach(goal, [&](const Answer& a) {
    std::vector<std::string> row;
    for (const std::string& v : vars) row.push_back(a[v]);
    out.insert(row);
    return true;
  });
  EXPECT_TRUE(s.ok()) << goal << ": " << s.message();
  return out;
}

// Tuples of `pred`/arity whose first column is `first`, evaluated
// bottom-up over the same rules (the CORAL/LDL-style oracle).
AnswerSet BottomUp(const std::string& program, const std::string& pred,
                   int arity, const std::string& first) {
  datalog::DatalogProgram dl;
  Status parsed = datalog::ParseDatalog(program, &dl);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  datalog::Evaluation eval(&dl);
  EXPECT_TRUE(eval.Run().ok());
  AnswerSet out;
  datalog::PredId id = dl.InternPred(pred, arity);
  for (const datalog::Tuple& t : eval.relation(id).tuples()) {
    if (dl.consts().ToString(t[0]) != first) continue;
    std::vector<std::string> row;
    for (int i = 1; i < arity; ++i) row.push_back(dl.consts().ToString(t[i]));
    out.insert(row);
  }
  return out;
}

std::string Edges(const std::string& name, const EdgeList& edges) {
  std::string text;
  for (auto [a, b] : edges) {
    text += name + "(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  return text;
}

// name(A,B,C) facts from {A, B, C} triples.
std::string Triples(const std::string& name,
                    const std::vector<std::vector<int>>& triples) {
  std::string text;
  for (const std::vector<int>& t : triples) {
    text += name + "(" + std::to_string(t[0]) + "," + std::to_string(t[1]) +
            "," + std::to_string(t[2]) + ").\n";
  }
  return text;
}

// --- The five cold_eval shapes, small, plus a min-subsumption table -------

TEST(ConsumerDelivery, RightRecursiveChain) {
  EdgeList edges;
  for (int i = 1; i < 16; ++i) edges.push_back({i, i + 1});
  const std::string rules =
      "rpath(X,Y) :- redge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Z), rpath(Z,Y).\n" +
      Edges("redge", edges);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table rpath/2.\n" + rules).ok());
  EXPECT_EQ(Answers(engine, "rpath(1,Y)", {"Y"}),
            BottomUp(rules, "rpath", 2, "1"));
  EXPECT_EQ(CountersOf(engine), (Counters{16, 120, 0, 15, 105}));
}

TEST(ConsumerDelivery, LeftRecursiveCycle) {
  EdgeList edges;
  for (int i = 1; i <= 12; ++i) edges.push_back({i, i % 12 + 1});
  edges.push_back({3, 8});
  edges.push_back({10, 2});
  const std::string rules =
      "lpath(X,Y) :- lpath(X,Z), cedge(Z,Y).\n"
      "lpath(X,Y) :- cedge(X,Y).\n" +
      Edges("cedge", edges);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table lpath/2.\n" + rules).ok());
  EXPECT_EQ(Answers(engine, "lpath(1,Y)", {"Y"}),
            BottomUp(rules, "lpath", 2, "1"));
  EXPECT_EQ(CountersOf(engine), (Counters{1, 12, 3, 1, 12}));
}

TEST(ConsumerDelivery, SameGeneration) {
  // Three layers of four: node L*10+I has two parents in the layer above.
  std::string facts;
  for (int layer = 0; layer < 3; ++layer) {
    for (int i = 0; i < 4; ++i) {
      std::string node = std::to_string(layer * 10 + i);
      facts += "person(" + node + ").\n";
      if (layer == 0) continue;
      int above = (layer - 1) * 10;
      for (int parent : {above + i, above + (i + 1) % 4}) {
        std::string p = std::to_string(parent);
        facts += "par(" + node + "," + p + "). child(" + p + "," + node +
                 ").\n";
      }
    }
  }
  const std::string rules =
      "sg(X,X) :- person(X).\n"
      "sg(X,Y) :- par(X,XP), sg(XP,YP), child(YP,Y).\n" +
      facts;
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(":- table sg/2.\n" + rules).ok());
  EXPECT_EQ(Answers(engine, "sg(21,Y)", {"Y"}),
            BottomUp(rules, "sg", 2, "21"));
  EXPECT_EQ(CountersOf(engine), (Counters{6, 13, 13, 6, 10}));
}

TEST(ConsumerDelivery, WinOnBinaryTree) {
  // Complete binary tree of height 5 (node i has children 2i and 2i+1); a
  // node wins exactly when its height above the leaves is odd.
  const int height = 5;
  const int nodes = (1 << (height + 1)) - 1;
  std::string program =
      ":- table win/1.\n"
      "win(X) :- move(X,Y), tnot(win(Y)).\n";
  AnswerSet expected;
  for (int i = 1; i <= nodes; ++i) {
    std::string n = std::to_string(i);
    program += "node(" + n + ").\n";
    if (2 * i < nodes) {
      program += "move(" + n + "," + std::to_string(2 * i) + ").\n";
      program += "move(" + n + "," + std::to_string(2 * i + 1) + ").\n";
    }
    int depth = 0;
    for (int k = i; k > 1; k /= 2) ++depth;
    if ((height - depth) % 2 == 1) expected.insert({n});
  }
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "node(X), win(X)", {"X"}), expected);
  EXPECT_EQ(CountersOf(engine), (Counters{63, 21, 21, 0, 0}));
}

TEST(ConsumerDelivery, LeftRecursiveGrammar) {
  // 1 + 2 * ( 3 + 4 ) * 5 + 6, as tok(I, Kind, I+1) facts.
  std::istringstream kinds(
      "num plus num times lp num plus num rp times num plus num");
  std::string toks;
  int length = 0;
  for (std::string kind; kinds >> kind; ++length) {
    toks += "tok(" + std::to_string(length) + "," + kind + "," +
            std::to_string(length + 1) + ").\n";
  }
  const std::string rules =
      "expr(I,K) :- expr(I,J), tok(J,plus,J1), term(J1,K).\n"
      "expr(I,K) :- term(I,K).\n"
      "term(I,K) :- term(I,J), tok(J,times,J1), factor(J1,K).\n"
      "term(I,K) :- factor(I,K).\n"
      "factor(I,K) :- tok(I,num,K).\n"
      "factor(I,K) :- tok(I,lp,J), expr(J,J1), tok(J1,rp,K).\n" +
      toks;
  const std::string tables = ":- table expr/2.\n:- table term/2.\n";
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(tables + rules).ok());
  AnswerSet answers = Answers(engine, "expr(0,K)", {"K"});
  EXPECT_EQ(answers, BottomUp(rules, "expr", 2, "0"));
  EXPECT_EQ(answers.count({std::to_string(length)}), 1u);
  EXPECT_EQ(CountersOf(engine), (Counters{7, 14, 0, 13, 23}));
}

// All-pairs shortest costs over positive weights (Floyd-Warshall) on nodes
// 1..n; a pair is connected by a path of at least one edge.
std::map<std::pair<int, int>, int> ShortestCosts(
    int n, const std::vector<std::vector<int>>& weighted) {
  const int kInf = 1 << 28;
  std::vector<std::vector<int>> d(n + 1, std::vector<int>(n + 1, kInf));
  for (const std::vector<int>& e : weighted) {
    d[e[0]][e[1]] = std::min(d[e[0]][e[1]], e[2]);
  }
  for (int k = 1; k <= n; ++k) {
    for (int i = 1; i <= n; ++i) {
      for (int j = 1; j <= n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  std::map<std::pair<int, int>, int> out;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (d[i][j] < kInf) out[{i, j}] = d[i][j];
    }
  }
  return out;
}

// sp(1,Y,C) rows of the shortest-cost oracle.
AnswerSet ShortestFromOne(int n, const std::vector<std::vector<int>>& w) {
  AnswerSet out;
  for (const auto& [key, cost] : ShortestCosts(n, w)) {
    if (key.first != 1) continue;
    out.insert({std::to_string(key.second), std::to_string(cost)});
  }
  return out;
}

const char kShortestPath[] =
    ":- table sp(_, _, min).\n"
    "sp(X,Y,C) :- w(X,Y,C).\n"
    "sp(X,Y,C) :- sp(X,Z,C1), w(Z,Y,C2), C is C1+C2.\n";

TEST(ConsumerDelivery, MinSubsumptionShortestPath) {
  // A weighted cycle with chords whose direct edges are worse than the
  // detours, so answers are replaced (and retired) while consumers drain.
  const std::vector<std::vector<int>> weighted = {
      {1, 2, 2}, {2, 3, 2}, {3, 4, 2}, {4, 5, 2}, {5, 6, 2}, {6, 1, 2},
      {1, 4, 9}, {2, 6, 7}, {3, 5, 5}, {1, 3, 6}, {4, 6, 5}, {5, 2, 1}};
  const std::string program = kShortestPath + Triples("w", weighted);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "sp(1,Y,C)", {"Y", "C"}),
            ShortestFromOne(6, weighted));
  EXPECT_EQ(CountersOf(engine), (Counters{1, 10, 0, 1, 7}));
}

// --- Edge cases of in-run delivery -----------------------------------------

TEST(ConsumerDeliveryEdge, CutInContinuationPrunesOneAnswersAlternatives) {
  // Consulting rejects '!' after a tabled call, so the clause is asserted.
  // Its cut sits in the consumer's continuation: it must prune that
  // answer's remaining e/2 alternatives and nothing else.
  const std::string program =
      ":- table p/2.\n"
      "p(X,Y) :- e(X,Y).\n" +
      Edges("e", {{1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}, {5, 8}});
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  ASSERT_TRUE(engine.Holds("assertz((p(X,Y) :- p(X,Z), e(Z,Y), !))").value());
  EXPECT_EQ(Answers(engine, "p(1,Y)", {"Y"}),
            (AnswerSet{{"2"}, {"3"}, {"5"}, {"7"}}));
  EXPECT_EQ(CountersOf(engine), (Counters{1, 4, 0, 1, 4}));
}

const char kReachEdges[] =
    "e(1,2). e(1,3). e(2,4). e(3,4). e(4,5). e(5,6). e(6,2).\n"
    "e(5,7). e(7,8). e(3,9). e(9,10). e(10,3).\n";

const char kReachRules[] =
    "reach(X,Y) :- reach(X,Z), e(Z,Y).\n"
    "reach(X,Y) :- e(X,Y).\n";

// Left recursion: the ground call reach(1,T) consumes reach(1,Z), so its
// answer is derived in a consumer pass over reach(1,Z)'s answers.
const std::string kReachProgram = std::string(":- table reach/2.\n") +
                                  kReachRules + kReachEdges +
                                  "ne(Y) :- e_tnot(reach(1,Y)).\n";

// reach(1,Y) answers, evaluated bottom-up.
AnswerSet ReachableFromOne() {
  return BottomUp(std::string(kReachRules) + kReachEdges, "reach", 2, "1");
}

TEST(ConsumerDeliveryEdge, EarlyCompletionPartwayThroughACursor) {
  // Under early completion reach(1,T) completes at its first answer,
  // partway through the pass that derives it; the rest of that cursor must
  // still be delivered exactly once. A fresh engine per target keeps
  // reach(1,Z) incomplete, so every call runs such a pass.
  Engine::Options options;
  options.early_completion = true;
  AnswerSet reachable = ReachableFromOne();
  Counters total;
  uint64_t early = 0;
  for (int target = 1; target <= 11; ++target) {
    Engine engine(options);
    ASSERT_TRUE(engine.ConsultString(kReachProgram).ok());
    std::string t = std::to_string(target);
    bool holds = reachable.count({t}) == 1;
    EXPECT_EQ(engine.Holds("reach(1," + t + ")").value(), holds) << t;
    EXPECT_EQ(Answers(engine, "reach(1,Y)", {"Y"}), reachable) << t;
    total += CountersOf(engine);
    early += engine.evaluator().stats().early_completions;
  }
  EXPECT_GT(early, 0u);
  EXPECT_EQ(total, (Counters{22, 108, 36, 22, 198}));
}

TEST(ConsumerDeliveryEdge, ExistentialNegationAbortsDuringAPass) {
  // e_tnot(reach(1,T)) stops at the first answer, which a consumer pass
  // derives; the aborted batch disposes its tables, reach(1,Z) included.
  AnswerSet reachable = ReachableFromOne();
  Counters total;
  uint64_t aborts = 0;
  for (int target = 1; target <= 11; ++target) {
    Engine engine;
    ASSERT_TRUE(engine.ConsultString(kReachProgram).ok());
    std::string t = std::to_string(target);
    bool unreachable = reachable.count({t}) == 0;
    EXPECT_EQ(engine.Holds("ne(" + t + ")").value(), unreachable) << t;
    std::string state = unreachable ? "complete" : "undefined";
    std::string goal = "table_state(reach(1," + t + "), S)";
    EXPECT_EQ(Answers(engine, goal, {"S"}), (AnswerSet{{state}})) << t;
    total += CountersOf(engine);
    aborts += engine.evaluator().stats().existential_aborts;
  }
  EXPECT_EQ(aborts, reachable.size());
  // Where the abort lands depends on scheduling. The newest-first sweep
  // drains reach(1,Z) before the root's consumer reads it, so each aborted
  // batch inserts more answers than the oldest-first loop did, which
  // recorded {22, 76, 21, 20, 109}; the calls and suspensions are the same.
  EXPECT_EQ(total, (Counters{22, 90, 27, 20, 127}));
}

TEST(ConsumerDeliveryEdge, MinTableCursorSkipsRetiredAnswers) {
  // The direct edges 1->3 (50) and 3->4 (50) are beaten by detours found
  // later: the beaten answers are retired while the consumer's cursor is
  // still behind them, and must never be delivered.
  const std::vector<std::vector<int>> weighted = {
      {1, 2, 1}, {1, 3, 50}, {2, 3, 1}, {3, 4, 50}, {2, 4, 5}, {4, 5, 1}};
  const std::string program = kShortestPath + Triples("w", weighted);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "sp(1,Y,C)", {"Y", "C"}),
            ShortestFromOne(5, weighted));
  const TableStats& stats = engine.evaluator().tables().stats();
  EXPECT_EQ(CountersOf(engine), (Counters{1, 5, 0, 1, 4}));
  EXPECT_EQ(stats.subsumed_replaced.load(), 1u);
  EXPECT_EQ(stats.subsumed_dropped.load(), 1u);
}

TEST(ConsumerDeliveryEdge, RetractInsideTheContinuation) {
  // The continuation retracts an edge the same evaluation has yet to read:
  // clause resolution sees the retract, the table is built without it.
  const std::string program =
      ":- table p/2.\n"
      ":- dynamic e/2.\n"
      "p(X,Y) :- e(X,Y).\n"
      "p(X,Y) :- p(X,Z), e(Z,Y), (Y == 3 -> retract(e(4,5)) ; true).\n" +
      Edges("e", {{1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 6}});
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "p(1,Y)", {"Y"}),
            (AnswerSet{{"2"}, {"3"}, {"4"}}));
  EXPECT_FALSE(engine.Holds("e(4,5)").value());
  EXPECT_EQ(CountersOf(engine), (Counters{1, 3, 1, 1, 3}));
}

TEST(ConsumerDeliveryEdge, RetractFromAnAnswerCallback) {
  // An answer callback retracts an incremental edge while the cold query's
  // answers are still being returned: the enumeration finishes on the
  // table it started, and the next call re-evaluates without the edge.
  const std::string program =
      ":- table p/2.\n"
      ":- incremental(e/2).\n"
      "p(X,Y) :- p(X,Z), e(Z,Y).\n"
      "p(X,Y) :- e(X,Y).\n" +
      Edges("e", {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  AnswerSet first;
  Status s = engine.ForEach("p(1,Y)", [&](const Answer& a) {
    first.insert({a["Y"]});
    if (a["Y"] == "2") {
      EXPECT_TRUE(engine.Holds("retract(e(3,4))").value());
    }
    return true;
  });
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(first, (AnswerSet{{"2"}, {"3"}, {"4"}, {"5"}}));
  EXPECT_EQ(Answers(engine, "p(1,Y)", {"Y"}), (AnswerSet{{"2"}, {"3"}}));
  EXPECT_EQ(CountersOf(engine), (Counters{1, 6, 0, 2, 6}));
}

// --- Evaluation counters -----------------------------------------------------
//
// The answer-path counters (answers_inserted and the rest) are gathered by
// each session during a batch and added into the shared TableStats when the
// batch ends; table_stats/2 adds them in before it reads them.

// Entry `name` of a table_stats/2 list rendered as "[a - 1,b - 2,...]".
uint64_t StatEntry(const std::string& stats, const std::string& name) {
  for (const char* lead : {"[", ","}) {
    std::string key = lead + name + " - ";
    size_t at = stats.find(key);
    if (at != std::string::npos) {
      return std::stoull(stats.substr(at + key.size()));
    }
  }
  ADD_FAILURE() << "no " << name << " in " << stats;
  return 0;
}

// The rendered table_stats(all, S) list.
std::string AllTableStats(Engine& engine) {
  std::string stats;
  Status s = engine.ForEach("table_stats(all, S)", [&stats](const Answer& a) {
    stats = a["S"];
    return false;
  });
  EXPECT_TRUE(s.ok()) << s.message();
  return stats;
}

TEST(EvaluationCounters, TableStatsInsideABatchSeesItsAnswers) {
  // The third clause runs while t/1's batch is still open, after the first
  // two clauses stored their answers: table_stats/2 counts both.
  const char program[] =
      ":- table t/1.\n"
      "t(1).\n"
      "t(2).\n"
      "t(N) :- table_stats(all, S), entry(answers_inserted, S, K),\n"
      "        N is 100 + K.\n"
      "entry(Name, [Name - V | _], V).\n"
      "entry(Name, [_ | T], V) :- entry(Name, T, V).\n";
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "t(X)", {"X"}), (AnswerSet{{"1"}, {"2"}, {"102"}}));
  EXPECT_EQ(StatEntry(AllTableStats(engine), "answers_inserted"), 3u);
}

TEST(EvaluationCounters, ColdQueryInsertsExactlyItsTableSizes) {
  // Right recursion over a graph with a cycle and converging paths: many
  // subgoals, and duplicate answers, which are not inserted.
  const std::string program =
      ":- table p/2.\n"
      "p(X,Y) :- e(X,Y).\n"
      "p(X,Y) :- e(X,Z), p(Z,Y).\n" +
      Edges("e", {{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 2}, {5, 6}});
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "p(1,Y)", {"Y"}).size(), 5u);
  std::string stats = AllTableStats(engine);
  EXPECT_GT(StatEntry(stats, "subgoals"), 1u);
  EXPECT_EQ(StatEntry(stats, "answers_inserted"), StatEntry(stats, "answers"));
  const TableStats& shared = engine.evaluator().tables().stats();
  EXPECT_EQ(shared.answers_inserted.load(), StatEntry(stats, "answers"));
  EXPECT_GT(shared.duplicate_answers.load(), 0u);
}

TEST(EvaluationCounters, MinTableLiveAnswersAreInsertsLessReplacements) {
  const std::vector<std::vector<int>> weighted = {
      {1, 2, 1}, {1, 3, 50}, {2, 3, 1}, {3, 4, 50}, {2, 4, 5},
      {4, 5, 1}, {5, 1, 2}, {3, 5, 9}, {1, 5, 30}};
  const std::string program = kShortestPath + Triples("w", weighted);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "sp(1,Y,C)", {"Y", "C"}),
            ShortestFromOne(5, weighted));
  std::string stats = AllTableStats(engine);
  uint64_t replaced = StatEntry(stats, "subsumed_replaced");
  EXPECT_GT(replaced, 0u);
  EXPECT_EQ(StatEntry(stats, "answers"),
            StatEntry(stats, "answers_inserted") - replaced);
}

// --- Table memory -----------------------------------------------------------

// The `bytes` entry of table_stats(Goal, S), rendered as "bytes - N".
uint64_t TableBytes(Engine& engine, const std::string& goal) {
  std::string stats;
  auto keep = [&stats](const Answer& a) {
    stats = a["S"];
    return false;
  };
  Status s = engine.ForEach("table_stats(" + goal + ", S)", keep);
  EXPECT_TRUE(s.ok()) << s.message();
  size_t at = stats.find("bytes - ");
  if (at == std::string::npos) return 0;
  return std::stoull(stats.substr(at + 8));
}

TEST(TableMemory, OneAnswerTableStaysUnderOneKilobyte) {
  const char program[] = ":- table p/2.\np(X,Y) :- e(X,Y).\ne(1,2).\n";
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  EXPECT_EQ(Answers(engine, "p(1,Y)", {"Y"}), (AnswerSet{{"2"}}));
  uint64_t bytes = TableBytes(engine, "p(1,_)");
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 1024u);
}

TEST(TableMemory, AbolishAndRequeryRestoresAnswersAndBytes) {
  EdgeList edges;
  for (int i = 1; i <= 20; ++i) edges.push_back({i, i % 20 + 1});
  const std::string program =
      ":- table path/2.\n"
      "path(X,Y) :- path(X,Z), e(Z,Y).\n"
      "path(X,Y) :- e(X,Y).\n" +
      Edges("e", edges);
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program).ok());
  AnswerSet first = Answers(engine, "path(X,Y)", {"X", "Y"});
  EXPECT_EQ(first.size(), 400u);
  uint64_t bytes = TableBytes(engine, "all");
  engine.AbolishAllTables();
  EXPECT_EQ(Answers(engine, "path(X,Y)", {"X", "Y"}), first);
  EXPECT_EQ(TableBytes(engine, "all"), bytes);
}

}  // namespace
}  // namespace xsb
