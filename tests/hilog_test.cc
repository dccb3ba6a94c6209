#include <gtest/gtest.h>

#include <optional>

#include "db/loader.h"
#include "engine/machine.h"
#include "hilog/hilog.h"
#include "parser/reader.h"
#include "tabling/evaluator.h"

namespace xsb {
namespace {

class HilogTest : public ::testing::Test {
 protected:
  HilogTest()
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

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  Loader loader_;
  Machine machine_;
  TableSpace tables_;
  Evaluator evaluator_;
};

constexpr char kHiLogPath[] =
    "edge1(1,2). edge1(2,3). edge1(3,1).\n"
    "edge2(a,b). edge2(b,c).\n"
    ":- table apply/3.\n"
    "path(Graph)(X, Y) :- Graph(X, Y).\n"
    "path(Graph)(X, Y) :- path(Graph)(X, Z), Graph(Z, Y).\n";

TEST_F(HilogTest, ParameterizedPathRunsOverBothGraphs) {
  Load(kHiLogPath);
  EXPECT_EQ(Count("path(edge1)(1, X)"), 3u);
  EXPECT_EQ(Count("path(edge2)(a, X)"), 2u);
}

TEST_F(HilogTest, SpecializationPreservesAnswers) {
  Load(kHiLogPath);
  size_t before1 = Count("path(edge1)(1, X)");
  size_t before2 = Count("path(edge2)(a, X)");
  evaluator_.AbolishAllTables();

  Result<hilog::SpecializeStats> stats =
      hilog::Specialize(&store_, &program_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().predicates_specialized, 1);
  EXPECT_GE(stats.value().calls_rewritten, 1);

  EXPECT_EQ(Count("path(edge1)(1, X)"), before1);
  EXPECT_EQ(Count("path(edge2)(a, X)"), before2);
}

TEST_F(HilogTest, SpecializationCreatesFirstOrderPredicate) {
  Load(kHiLogPath);
  ASSERT_TRUE(hilog::Specialize(&store_, &program_).ok());
  FunctorId specialized = symbols_.InternFunctor(
      symbols_.InternAtom("apply$path/1"), 3);
  Predicate* pred = program_.Lookup(specialized);
  ASSERT_NE(pred, nullptr);
  EXPECT_EQ(pred->num_live_clauses(), 2u);
  // Tabling moved from apply/3 to the specialized predicate.
  EXPECT_TRUE(pred->tabled());
  Predicate* apply3 = program_.Lookup(
      symbols_.InternFunctor(symbols_.apply(), 3));
  ASSERT_NE(apply3, nullptr);
  EXPECT_FALSE(apply3->tabled());
  EXPECT_EQ(apply3->num_live_clauses(), 1u);  // the bridge
}

TEST_F(HilogTest, SpecializationSkipsMixedFunctors) {
  Load("f(g)(1). f(g)(2). other(h)(3).\n");
  // apply/2 has heads f(g) and other(h): two different outer symbols.
  Result<hilog::SpecializeStats> stats =
      hilog::Specialize(&store_, &program_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().predicates_specialized, 0);
  EXPECT_EQ(Count("f(g)(X)"), 2u);
}

TEST_F(HilogTest, SetsViaHiLogTermsPaperSection47) {
  Load("package1(health_ins, required).\n"
       "package1(life_ins, optional).\n"
       "package2(free_car, optional).\n"
       "package2(long_vacations, optional).\n"
       "benefits('John', package1). benefits('Bob', package2).\n"
       "intersect_2(S1,S2)(X,Y) :- S1(X,Y), S2(X,Y).\n"
       "union_2(S1,S2)(X,Y) :- S1(X,Y).\n"
       "union_2(S1,S2)(X,Y) :- S2(X,Y).\n");
  // The paper's query: John's benefits through the set name.
  EXPECT_EQ(Count("benefits('John', P), P(X, Y)"), 2u);
  // Union of both packages.
  EXPECT_EQ(Count("benefits('John',P), benefits('Bob',Q), union_2(P,Q)(X,Y)"),
            4u);
  // Their intersection is empty.
  EXPECT_EQ(
      Count("benefits('John',P), benefits('Bob',Q), intersect_2(P,Q)(X,Y)"),
      0u);
}

TEST_F(HilogTest, HiLogDeclaredAtomsDefineApplyClauses) {
  Load(":- hilog r.\n"
       "r(1). r(2).\n"
       "any(X) :- r(X).\n");
  // r/1 clauses are stored as apply(r, 1)...; calls to r(X) in a body
  // resolve through them because r is hilog-declared.
  EXPECT_EQ(Count("any(X)"), 2u);
  EXPECT_EQ(Count("r(X)"), 2u);
}

TEST_F(HilogTest, VariablePredicateQueries) {
  Load("likes(mary, wine). hates(mary, beer).\n"
       "attitude(P) :- P(mary, _).\n");
  EXPECT_EQ(Count("attitude(likes)"), 1u);
  // Unbound functor position cannot be enumerated; it raises instantiation.
  Status s = machine_.Solve(Parse("X(mary, wine)"),
                            []() { return SolveAction::kContinue; });
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace xsb
