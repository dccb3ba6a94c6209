#include <gtest/gtest.h>

#include <set>
#include <string>

#include "db/loader.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "tabling/evaluator.h"
#include "term/store.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

class TablingTest : public ::testing::Test {
 protected:
  TablingTest()
      : store_(&symbols_),
        program_(&symbols_),
        loader_(&store_, &program_),
        machine_(&store_, &program_),
        tables_(&symbols_),
        evaluator_(&machine_, &tables_) {}

  void Load(const std::string& text) {
    Status s = loader_.ConsultString(text);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Word Parse(const std::string& text) {
    std::string buffer = text + " .";
    Reader reader(&store_, program_.ops(), buffer, program_.hilog_atoms());
    Result<Word> r = reader.ReadClause();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  size_t Count(const std::string& goal) {
    Result<size_t> r = machine_.CountSolutions(Parse(goal));
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() ? r.value() : size_t(-1);
  }

  bool Holds(const std::string& goal) {
    size_t trail = store_.TrailMark();
    Result<bool> r = machine_.SolveOnce(Parse(goal));
    store_.UndoTrail(trail);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() && r.value();
  }

  Status SolveStatus(const std::string& goal) {
    return machine_.Solve(Parse(goal),
                          []() { return SolveAction::kContinue; });
  }

  std::vector<std::string> Answers(const std::string& templ,
                                   const std::string& goal) {
    Word pair = Parse("'$pair'(" + templ + "," + goal + ")");
    Word t = store_.Arg(store_.Deref(pair), 0);
    Word g = store_.Arg(store_.Deref(pair), 1);
    Result<std::vector<FlatTerm>> r = machine_.FindAll(t, g);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    WriteOptions options;
    options.use_operators = false;
    for (const FlatTerm& flat : r.value()) {
      out.push_back(WriteFlat(&store_, *program_.ops(), flat, options));
    }
    return out;
  }

  // Loads move/2 facts for a complete binary tree of the given height
  // (node 1 is the root; children of i are 2i and 2i+1).
  void LoadBinaryTree(int height) {
    std::string text;
    int internal = (1 << height) - 1;
    for (int i = 1; i <= internal; ++i) {
      text += "move(" + std::to_string(i) + "," + std::to_string(2 * i) +
              ").\nmove(" + std::to_string(i) + "," +
              std::to_string(2 * i + 1) + ").\n";
    }
    Load(text);
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  Loader loader_;
  Machine machine_;
  TableSpace tables_;
  Evaluator evaluator_;
};

TEST_F(TablingTest, LeftRecursionTerminatesOnCycles) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  // Every node reaches every node on a 3-cycle.
  EXPECT_EQ(Count("path(1,X)"), 3u);
  EXPECT_EQ(Answers("X", "path(1,X)"),
            (std::vector<std::string>{"2", "3", "1"}));
}

TEST_F(TablingTest, RightRecursionTerminatesOnCycles) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Z) :- edge(X,Y), path(Y,Z).\n");
  EXPECT_EQ(Count("path(1,X)"), 3u);
  EXPECT_EQ(Count("path(X,Y)"), 9u);
}

TEST_F(TablingTest, DoubleRecursion) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,4). edge(4,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Z) :- path(X,Y), path(Y,Z).\n");
  EXPECT_EQ(Count("path(1,X)"), 4u);
  EXPECT_EQ(Count("path(X,Y)"), 16u);
}

TEST_F(TablingTest, ChainAnswersAreDeduplicated) {
  // A diamond produces 2 derivations of the same answer; tabling returns 1.
  Load(":- table path/2.\n"
       "edge(a,b1). edge(a,b2). edge(b1,c). edge(b2,c).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_EQ(Count("path(a,c)"), 1u);
  EXPECT_GE(evaluator_.tables().stats().duplicate_answers, 1u);
}

TEST_F(TablingTest, CompletedTablesAreReusedAcrossQueries) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_EQ(Count("path(1,X)"), 2u);
  uint64_t created = evaluator_.tables().stats().subgoals_created;
  // Re-running the same query must not create new tables or episodes.
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_EQ(evaluator_.tables().stats().subgoals_created, created);
}

TEST_F(TablingTest, VariantCallsShareATable) {
  Load(":- table p/2.\n"
       "p(X,Y) :- q(X,Y). q(1,2). q(1,3).\n");
  EXPECT_EQ(Count("p(A,B)"), 2u);
  EXPECT_EQ(Count("p(U,V)"), 2u);  // a variant: same table
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 1u);
  EXPECT_EQ(Count("p(1,V)"), 2u);  // not a variant: its own table
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 2u);
}

TEST_F(TablingTest, NonGroundAnswers) {
  Load(":- table p/1.\np(f(_)).\np(g(a)).\n");
  EXPECT_EQ(Count("p(X)"), 2u);
  EXPECT_TRUE(Holds("p(f(anything))"));
}

TEST_F(TablingTest, SameGeneration) {
  Load(":- table sg/2.\n"
       "par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1).\n"
       "sg(X, X).\n"
       "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n");
  // c1 and c2 share parent p1; p1 and p2 share grandparent g1.
  EXPECT_TRUE(Holds("sg(c1, c2)"));
  EXPECT_TRUE(Holds("sg(p1, p2)"));
  EXPECT_FALSE(Holds("sg(c1, p2)"));
}

TEST_F(TablingTest, MutuallyRecursiveTabledPredicates) {
  Load(":- table even/1. :- table odd/1.\n"
       "num(0, none). num(s(X), X).\n"
       "even(0). even(s(X)) :- odd(X).\n"
       "odd(s(X)) :- even(X).\n");
  EXPECT_TRUE(Holds("even(s(s(0)))"));
  EXPECT_FALSE(Holds("odd(s(s(0)))"));
  EXPECT_TRUE(Holds("odd(s(s(s(0))))"));
}

TEST_F(TablingTest, TabledAndNonTabledMix) {
  Load(":- table reach/2.\n"
       "edge(1,2). edge(2,3).\n"
       "reach(X,Y) :- edge(X,Y).\n"
       "reach(X,Y) :- reach(X,Z), edge(Z,Y).\n"
       "report(X, Y) :- reach(X, Y), Y > 2.\n");
  EXPECT_EQ(Answers("Y", "report(1, Y)"), (std::vector<std::string>{"3"}));
}

TEST_F(TablingTest, WinOverTreeStratified) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n");
  LoadBinaryTree(3);  // leaves are 8..15: they have no moves, so they lose
  EXPECT_FALSE(Holds("win(8)"));   // leaf: no move
  EXPECT_TRUE(Holds("win(4)"));    // moves to losing leaves
  EXPECT_FALSE(Holds("win(2)"));   // both children winning
  EXPECT_TRUE(Holds("win(1)"));
}

TEST_F(TablingTest, WinOverChain) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "move(1,2). move(2,3). move(3,4).\n");
  // 4 loses, 3 wins, 2 loses, 1 wins.
  EXPECT_TRUE(Holds("win(1)"));
  EXPECT_FALSE(Holds("win(2)"));
  EXPECT_TRUE(Holds("win(3)"));
  EXPECT_FALSE(Holds("win(4)"));
}

TEST_F(TablingTest, ExistentialNegationSameAnswersAsDefault) {
  Load(":- table win/1. :- table ewin/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "ewin(X) :- move(X,Y), e_tnot ewin(Y).\n");
  LoadBinaryTree(4);
  for (int node : {1, 2, 3, 4, 7, 8, 15, 16, 31}) {
    std::string n = std::to_string(node);
    EXPECT_EQ(Holds("win(" + n + ")"), Holds("ewin(" + n + ")")) << node;
  }
}

TEST_F(TablingTest, ExistentialNegationDisposesTables) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), e_tnot win(Y).\n");
  LoadBinaryTree(3);  // odd height: the root wins
  EXPECT_TRUE(Holds("win(1)"));
  EXPECT_GT(evaluator_.tables().stats().subgoals_disposed, 0u);
  EXPECT_GT(evaluator_.stats().existential_aborts, 0u);
}

TEST_F(TablingTest, ExistentialNegationVisitsFewerNodes) {
  Load(":- table win/1. :- table ewin/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "ewin(X) :- move(X,Y), e_tnot ewin(Y).\n");
  LoadBinaryTree(7);  // odd height: the root wins
  uint64_t before = evaluator_.tables().stats().subgoals_created;
  EXPECT_TRUE(Holds("ewin(1)"));
  uint64_t existential = evaluator_.tables().stats().subgoals_created - before;
  before = evaluator_.tables().stats().subgoals_created;
  EXPECT_TRUE(Holds("win(1)"));
  uint64_t full = evaluator_.tables().stats().subgoals_created - before;
  // Default SLG evaluates the full 2^n tree; existential ~ sqrt(2)^n.
  EXPECT_LT(existential * 4, full);
}

TEST_F(TablingTest, NonStratifiedProgramIsReported) {
  Load(":- table win/1.\n"
       "win(X) :- move(X,Y), tnot win(Y).\n"
       "move(a,b). move(b,a).\n");  // cyclic: not modularly stratified
  Status s = SolveStatus("win(a)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kStratification);
}

TEST_F(TablingTest, FlounderingTnotIsReported) {
  Load(":- table p/1.\np(1).\n");
  Status s = SolveStatus("tnot p(X)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInstantiation);
}

TEST_F(TablingTest, TnotOnNonTabledIsReported) {
  Load("q(1).\n");
  Status s = SolveStatus("tnot q(1)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kType);
}

TEST_F(TablingTest, TnotOnCompletedTableIsConstantTime) {
  Load(":- table p/1.\np(1). p(2).\n");
  EXPECT_FALSE(Holds("tnot p(1)"));
  EXPECT_TRUE(Holds("tnot p(3)"));
  uint64_t batches = evaluator_.stats().batches;
  EXPECT_FALSE(Holds("tnot p(1)"));  // table complete: no new batch
  EXPECT_EQ(evaluator_.stats().batches, batches);
}

TEST_F(TablingTest, TFindallCollectsCompletedAnswers) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3). edge(3,1).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n");
  EXPECT_TRUE(Holds("tfindall(Y, path(1,Y), L), length(L, 3)"));
}

TEST_F(TablingTest, TFindallOnNonTabledGoalIsReported) {
  Load("q(1).\n");
  Status s = SolveStatus("tfindall(X, q(X), L)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kType);
}

TEST_F(TablingTest, TFindallInsideItsOwnComponentIsReported) {
  // q reads p's table through tfindall while p, in q's own recursive
  // component, is still incomplete. Under local scheduling that is a
  // stratification error, not a suspension.
  Load(":- table p/1.\n"
       ":- table q/1.\n"
       "p(X) :- q(X).\n"
       "q(1).\n"
       "q(N) :- tfindall(X, p(X), L), length(L, N).\n");
  Status s = SolveStatus("p(X)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kStratification);
}

TEST_F(TablingTest, TFindallOverMinTableReturnsLiveAnswersInInsertionOrder) {
  // a-2 and b-1 beat (and retire) a-5 and b-3; a replacement is stored
  // as a new answer, after the ones already there.
  Load(":- table dist(_, min).\n"
       "dist(a, 5). dist(b, 3). dist(a, 2). dist(c, 4). dist(b, 1).\n");
  EXPECT_EQ(Answers("L", "tfindall(X-D, dist(X, D), L)"),
            std::vector<std::string>{"[-(a,2),-(c,4),-(b,1)]"});
}

TEST_F(TablingTest, EarlyCompletionOnGroundCalls) {
  Machine machine2(&store_, &program_);
  TableSpace tables2(&symbols_);
  Evaluator::Options options;
  options.early_completion = true;
  Evaluator evaluator2(&machine2, &tables2, options);
  Load(":- table t/1.\n"
       "t(X) :- member_(X, [1,2,3]).\n"
       "member_(X, [X|_]). member_(X, [_|T]) :- member_(X, T).\n");
  size_t trail = store_.TrailMark();
  Result<bool> r = machine2.SolveOnce(Parse("t(2)"));
  store_.UndoTrail(trail);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_GT(evaluator2.stats().early_completions, 0u);
  // Without early completion the default evaluator runs t(2)'s generator to
  // exhaustion but computes the same result.
  EXPECT_TRUE(Holds("t(2)"));
  EXPECT_EQ(evaluator_.stats().early_completions, 0u);
}

TEST_F(TablingTest, SldnfModeBypassesTables) {
  Load(":- table path/2.\n"
       "edge(1,2). edge(2,3).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n");  // right recursion: acyclic ok
  machine_.set_ignore_tabling(true);
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_EQ(evaluator_.tables().num_subgoals(), 0u);
  machine_.set_ignore_tabling(false);
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_GT(evaluator_.tables().num_subgoals(), 0u);
}

TEST_F(TablingTest, TabledHiLogPredicate) {
  Load(":- table apply/3.\n"
       "edge1(1,2). edge1(2,3). edge1(3,1).\n"
       "path(Graph)(X, Y) :- Graph(X, Y).\n"
       "path(Graph)(X, Y) :- path(Graph)(X, Z), Graph(Z, Y).\n");
  EXPECT_EQ(Count("path(edge1)(1, X)"), 3u);
}

TEST_F(TablingTest, AbolishAllTablesForcesRecomputation) {
  Load(":- table p/1.\np(1).\n");
  EXPECT_EQ(Count("p(X)"), 1u);
  uint64_t created = evaluator_.tables().stats().subgoals_created;
  evaluator_.AbolishAllTables();
  EXPECT_EQ(Count("p(X)"), 1u);
  EXPECT_GT(evaluator_.tables().stats().subgoals_created, created);
}

TEST_F(TablingTest, LargeChainLinearAnswers) {
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  for (int i = 1; i < 500; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  Load(text);
  EXPECT_EQ(Count("path(1,X)"), 499u);
}

TEST_F(TablingTest, CycleDoesNotLoop) {
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  constexpr int kCycle = 64;
  for (int i = 1; i <= kCycle; ++i) {
    text += "edge(" + std::to_string(i) + "," +
            std::to_string(i % kCycle + 1) + ").\n";
  }
  Load(text);
  EXPECT_EQ(Count("path(1,X)"), static_cast<size_t>(kCycle));
}

TEST_F(TablingTest, PropertyTabledMatchesSldnfOnAcyclicGraphs) {
  // Property: on acyclic graphs both strategies agree on the answer set.
  std::string text = ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      ":- table rpath/2.\n"
      "redge(X,Y) :- edge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Z), rpath(Z,Y).\n";
  // A small DAG: i -> i+1 and i -> i+2.
  for (int i = 0; i < 12; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 2) + ").\n";
  }
  Load(text);
  for (int start = 0; start < 12; start += 3) {
    std::string q = std::to_string(start);
    size_t tabled = Count("path(" + q + ",X)");
    machine_.set_ignore_tabling(true);
    // SLDNF loops on the left-recursive path/2 (the very problem tabling
    // solves), so the SLDNF side runs the right-recursive rpath/2 and
    // deduplicates its answers.
    size_t sldnf_distinct = 0;
    {
      Word pair = Parse("'$pair'(X, rpath(" + q + ",X))");
      Word templ = store_.Arg(store_.Deref(pair), 0);
      Word g = store_.Arg(store_.Deref(pair), 1);
      Result<std::vector<FlatTerm>> all = machine_.FindAll(templ, g);
      ASSERT_TRUE(all.ok());
      std::vector<FlatTerm> v = all.value();
      std::sort(v.begin(), v.end(),
                [](const FlatTerm& a, const FlatTerm& b) {
                  return a.cells < b.cells;
                });
      v.erase(std::unique(v.begin(), v.end()), v.end());
      sldnf_distinct = v.size();
    }
    machine_.set_ignore_tabling(false);
    EXPECT_EQ(tabled, sldnf_distinct) << "start " << start;
  }
}

class TablingTrieTest : public TablingTest {};

TEST_F(TablingTrieTest, TrieStoreReportsNodesAndInterns) {
  Load(":- table path/2.\n"
       "edge(a,b). edge(b,c). edge(c,d).\n"
       "path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n");
  Result<size_t> n = machine_.CountSolutions(Parse("path(a,X)"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  const TableSpace& tables = evaluator_.tables();
  EXPECT_GT(tables.total_answers(), 0u);
  EXPECT_GT(tables.total_trie_nodes(), 0u);
  // Trie nodes never outnumber total inserted tokens, and shared prefixes
  // make them strictly fewer than answers * path-length here.
  EXPECT_GT(tables.table_bytes(), 0u);
}

}  // namespace
}  // namespace xsb

namespace xsb {
namespace {

class CutSafetyTest : public TablingTest {};

TEST_F(CutSafetyTest, CutAfterTabledCallIsRejected) {
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "bad(X) :- p(X), !.\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermission);
}

TEST_F(CutSafetyTest, CutBeforeTabledCallIsAllowed) {
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "ok(X) :- !, p(X).\n"
      "ok2(X) :- q(X), !, r(X).\nq(1). r(1).\n");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Holds("ok(1)"));
}

TEST_F(CutSafetyTest, CutInsideNegationScopeIsAllowed) {
  // tnot completes its table before returning, so a later cut is safe.
  Status s = loader_.ConsultString(
      ":- table p/1.\np(1).\n"
      "ok(X) :- tnot p(X), !.\n"
      "ok(_).\n");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// --- Incremental table maintenance -------------------------------------------

// These run through the Engine facade: the update/requery lifecycle spans
// consult, builtins, the evaluator and the table space, and the cursor tests
// below need Engine::ForEach's retired-snapshot release discipline.

const char kChainProgram[] =
    ":- table path/2.\n"
    ":- incremental(edge/2).\n"
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
    "edge(1,2). edge(2,3). edge(3,4). edge(4,5).\n";

// The binding of `var` in the first answer of `goal` ("" when it fails).
std::string FirstBinding(Engine& engine, const std::string& goal,
                         const std::string& var) {
  std::string value;
  Status status = engine.ForEach(goal, [&](const Answer& a) {
    value = a[var];
    return false;
  });
  EXPECT_TRUE(status.ok()) << goal << ": " << status.message();
  return value;
}

std::string StateOf(Engine& engine, const std::string& goal) {
  return FirstBinding(engine, "table_state(" + goal + ", S)", "S");
}

TEST(IncrementalMaintenance, AssertInvalidatesAndRequeryAgrees) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "undefined");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");

  ASSERT_TRUE(engine.Holds("assert(edge(5,6))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 15u);
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");
  EXPECT_GE(engine.evaluator().tables().stats().tables_reevaluated, 1u);
}

TEST(IncrementalMaintenance, RetractInvalidatesAndRequeryDropsAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("retract(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
  // Retracting a fact that is not there changes nothing.
  EXPECT_FALSE(engine.Holds("retract(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "complete");
}

TEST(IncrementalMaintenance, RetractallAndAbolishNotifyToo) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("retractall(edge(_, _))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 0u);

  ASSERT_TRUE(engine.Holds("assert(edge(1,2))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 1u);
  ASSERT_TRUE(engine.Holds("abolish(edge/2)").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 0u);
}

TEST(IncrementalMaintenance, AbolishTableCallDisposesOneVariant) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  EXPECT_EQ(engine.Count("path(1, Y)").value(), 4u);
  EXPECT_EQ(engine.Count("path(2, Y)").value(), 3u);
  EXPECT_TRUE(engine.Holds("abolish_table_call(path(1, Y))").value());
  EXPECT_EQ(StateOf(engine, "path(1, Y)"), "undefined");
  EXPECT_EQ(StateOf(engine, "path(2, Y)"), "complete");
  // A second abolish finds nothing; the next call rebuilds the table.
  EXPECT_FALSE(engine.Holds("abolish_table_call(path(1, Y))").value());
  EXPECT_EQ(engine.Count("path(1, Y)").value(), 4u);
}

TEST(IncrementalMaintenance, LateRuntimeDeclarationInvalidatesConservatively) {
  // Tables built before a predicate becomes incremental carry no dependency
  // entries for it; the incremental/1 builtin must invalidate them all.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table path/2.\n"
                      ":- dynamic(edge/2).\n"
                      "path(X,Y) :- edge(X,Y).\n"
                      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                      "edge(1,2). edge(2,3).\n")
                  .ok());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 3u);
  ASSERT_TRUE(engine.Holds("incremental(edge/2)").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  ASSERT_TRUE(engine.Holds("assert(edge(3,4))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
  // The re-evaluated table captured its dependencies at runtime, so further
  // updates invalidate it precisely.
  ASSERT_TRUE(engine.Holds("assert(edge(4,5))").value());
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

TEST(IncrementalMaintenance, UpdateDuringEvaluationCompletesTableAsInvalid) {
  // An assert fired from inside a tabled derivation: the running table may
  // already have read the old clause set, so it must complete as invalid and
  // re-evaluate on the next call.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table p/1.\n"
                      ":- incremental(d/1).\n"
                      "d(1).\n"
                      "p(X) :- d(X).\n"
                      "p(X) :- X = 0, \\+ d(2), assert(d(2)), fail.\n")
                  .ok());
  EXPECT_EQ(engine.Count("p(X)").value(), 1u);
  EXPECT_EQ(StateOf(engine, "p(X)"), "invalid");
  EXPECT_EQ(engine.Count("p(X)").value(), 2u);
  EXPECT_EQ(StateOf(engine, "p(X)"), "complete");
}

TEST(IncrementalMaintenance, BaselineModeAbolishesAndRecomputes) {
  Engine::Options options;
  options.incremental = false;
  Engine engine(options);
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  // Consulting the facts already fired one update event per edge clause.
  uint64_t consult_events = engine.evaluator().stats().update_events;
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  ASSERT_TRUE(engine.Holds("assert(edge(5,6))").value());
  // Baseline: the update dropped the whole table space.
  EXPECT_EQ(StateOf(engine, "path(X, Y)"), "undefined");
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 15u);
  ASSERT_TRUE(engine.Holds("retract(edge(5,6))").value());
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
  EXPECT_EQ(engine.evaluator().stats().update_events, consult_events + 2);
}

TEST(IncrementalMaintenance, BaselineUpdateMidBatchReachesTnotAndTfindall) {
  // go's assert fires while go's own batch runs, so the baseline's abolish
  // is deferred. Every later top-level completion must apply it before it
  // reads a table, and table_state/2 must already report it.
  Engine::Options options;
  options.incremental = false;
  Engine engine(options);
  ASSERT_TRUE(engine
                  .ConsultString(":- table go/0.\n"
                                 ":- table t/0.\n"
                                 ":- table s/1.\n"
                                 ":- incremental(e/1).\n"
                                 "e(0).\n"
                                 "go :- assert(e(1)).\n"
                                 "t :- e(1).\n"
                                 "s(X) :- e(X).\n")
                  .ok());
  EXPECT_TRUE(engine.Holds("tnot(t)").value());
  EXPECT_EQ(FirstBinding(engine, "tfindall(X, s(X), L)", "L"), "[0]");
  ASSERT_TRUE(engine.Holds("go").value());
  EXPECT_EQ(StateOf(engine, "t"), "undefined");
  EXPECT_EQ(StateOf(engine, "s(X)"), "undefined");
  EXPECT_FALSE(engine.Holds("e_tnot(t)").value());
  EXPECT_FALSE(engine.Holds("tnot(t)").value());
  EXPECT_EQ(FirstBinding(engine, "tfindall(X, s(X), L)", "L"), "[0,1]");
}

TEST(IncrementalMaintenance, TfindallInsideATabledRuleIsADependency) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table outer/1.\n"
                                 ":- table inner/1.\n"
                                 ":- incremental(d/1).\n"
                                 "d(1). d(2).\n"
                                 "inner(X) :- d(X).\n"
                                 "outer(N) :- tfindall(X, inner(X), L), "
                                 "length(L, N).\n")
                  .ok());
  EXPECT_EQ(FirstBinding(engine, "outer(N)", "N"), "2");
  EXPECT_EQ(StateOf(engine, "outer(N)"), "complete");
  ASSERT_TRUE(engine.Holds("assert(d(3))").value());
  EXPECT_EQ(StateOf(engine, "inner(X)"), "invalid");
  EXPECT_EQ(StateOf(engine, "outer(N)"), "invalid");
  EXPECT_EQ(FirstBinding(engine, "outer(N)", "N"), "3");
  EXPECT_EQ(StateOf(engine, "outer(N)"), "complete");
}

TEST(IncrementalMaintenance, ClauseInsideATabledRuleIsADependency) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table p/1.\n"
                                 ":- incremental(e/1).\n"
                                 "e(1).\n"
                                 "p(X) :- clause(e(X), true).\n")
                  .ok());
  EXPECT_EQ(FirstBinding(engine, "findall(X, p(X), L)", "L"), "[1]");
  ASSERT_TRUE(engine.Holds("assertz(e(2))").value());
  EXPECT_EQ(StateOf(engine, "p(X)"), "invalid");
  EXPECT_EQ(FirstBinding(engine, "findall(X, p(X), L)", "L"), "[1,2]");
}

// --- Open-cursor freeze semantics --------------------------------------------

TEST(IncrementalCursor, RetractAndReevalDuringOpenEnumerationKeepsSnapshot) {
  // Regression: a retract + nested requery while an answer cursor is open
  // retires the cursor's answer table. The cursor must keep enumerating its
  // frozen snapshot (this is a use-after-free without retirement; the ASan
  // job exists to prove it).
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  std::set<std::string> outer;
  size_t nested_count = 0;
  size_t retired_during = 0;
  bool mutated = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!mutated) {
                               mutated = true;
                               EXPECT_TRUE(
                                   engine.Holds("retract(edge(4,5))").value());
                               // Nested requery: re-evaluates the invalid
                               // table out from under the outer cursor.
                               nested_count =
                                   engine.Count("path(X, Y)").value();
                               retired_during = engine.evaluator()
                                                    .tables()
                                                    .num_retired_answers();
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer.size(), 10u) << "outer cursor must see its frozen snapshot";
  EXPECT_EQ(nested_count, 6u) << "nested query must see the updated world";
  EXPECT_GT(retired_during, 0u);
  // The snapshot is released once the outermost query unwinds.
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}

TEST(IncrementalCursor, AbolishAllTablesDuringOpenEnumerationKeepsSnapshot) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);
  size_t outer = 0;
  bool abolished = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer&) {
                             ++outer;
                             if (!abolished) {
                               abolished = true;
                               engine.AbolishAllTables();
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer, 10u);
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

// --- Substitution-factored answer return under table churn --------------------

TEST(FactoredCursor, FactoredReturnSurvivesRetractDuringOpenEnumeration) {
  // The factored answer path keeps two pieces of retired-table state alive
  // across an open cursor: the answer trie's binding streams AND the call
  // template they are spliced against. A retract plus nested requery
  // mid-enumeration retires the cursor's table; the factored cursor must
  // keep binding against the retired trie's own template copy (a dangling
  // pointer if the template were borrowed from the subgoal — the ASan job
  // proves it).
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  uint64_t factored_before = engine.machine().stats().factored_answer_returns;
  std::set<std::string> outer;
  bool mutated = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!mutated) {
                               mutated = true;
                               EXPECT_TRUE(
                                   engine.Holds("retract(edge(4,5))").value());
                               EXPECT_EQ(engine.Count("path(X, Y)").value(),
                                         6u);
                             }
                             return true;
                           })
                  .ok());
  // The frozen snapshot delivered every pre-retract answer, each with the
  // correct bindings (i < j over the 5-node chain).
  std::set<std::string> expected;
  for (int i = 1; i <= 5; ++i) {
    for (int j = i + 1; j <= 5; ++j) {
      expected.insert(std::to_string(i) + "," + std::to_string(j));
    }
  }
  EXPECT_EQ(outer, expected);
  EXPECT_GT(engine.machine().stats().factored_answer_returns, factored_before)
      << "completed-table enumeration must take the factored path";
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}

TEST(FactoredCursor, AbolishTableCallDuringOpenEnumerationKeepsSnapshot) {
  // abolish_table_call/1 clears the variant's call-trie payload and retires
  // its answers while a factored cursor is mid-enumeration. The cursor must
  // finish its frozen snapshot; a fresh call re-creates the table.
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);

  uint64_t factored_before = engine.machine().stats().factored_answer_returns;
  std::set<std::string> outer;
  bool abolished = false;
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer& a) {
                             outer.insert(a["X"] + "," + a["Y"]);
                             if (!abolished) {
                               abolished = true;
                               EXPECT_TRUE(
                                   engine
                                       .Holds("abolish_table_call(path(A, B))")
                                       .value());
                               EXPECT_EQ(StateOf(engine, "path(A, B)"),
                                         "undefined");
                             }
                             return true;
                           })
                  .ok());
  EXPECT_EQ(outer.size(), 10u);
  EXPECT_GT(engine.machine().stats().factored_answer_returns, factored_before);
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 10u);
}

TEST(IncrementalCursor, EarlyStopStillReleasesRetiredSnapshots) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kChainProgram).ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 10u);
  // Stop after the first answer, having mutated mid-flight.
  ASSERT_TRUE(engine
                  .ForEach("path(X, Y)",
                           [&](const Answer&) {
                             EXPECT_TRUE(
                                 engine.Holds("retract(edge(1,2))").value());
                             EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
                             return false;
                           })
                  .ok());
  EXPECT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
}

}  // namespace
}  // namespace xsb
