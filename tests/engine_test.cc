#include <gtest/gtest.h>

#include "db/loader.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "term/store.h"

namespace xsb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : store_(&symbols_),
        program_(&symbols_),
        loader_(&store_, &program_),
        machine_(&store_, &program_) {}

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
    return r.ok() ? r.value() : 0;
  }

  bool Holds(const std::string& goal) {
    size_t trail = store_.TrailMark();
    Result<bool> r = machine_.SolveOnce(Parse(goal));
    store_.UndoTrail(trail);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status().ToString();
    return r.ok() && r.value();
  }

  // All solutions of `goal` projected on the instance of `templ`, rendered.
  std::vector<std::string> Answers(const std::string& templ,
                                   const std::string& goal) {
    // Parse both in one term so variables are shared.
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

  Status SolveStatus(const std::string& goal) {
    return machine_.Solve(Parse(goal),
                          []() { return SolveAction::kContinue; });
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  Loader loader_;
  Machine machine_;
};

TEST_F(EngineTest, FactsAndConjunction) {
  Load("edge(1,2). edge(2,3). edge(1,3).\n");
  EXPECT_TRUE(Holds("edge(1,2)"));
  EXPECT_FALSE(Holds("edge(2,1)"));
  EXPECT_EQ(Count("edge(1,X)"), 2u);
  EXPECT_EQ(Count("edge(X,Y)"), 3u);
  EXPECT_EQ(Count("edge(1,X), edge(X,3)"), 1u);
}

TEST_F(EngineTest, RulesChainBindings) {
  Load("edge(1,2). edge(2,3). path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- edge(X,Z), path(Z,Y).\n");
  EXPECT_EQ(Count("path(1,X)"), 2u);
  EXPECT_EQ(Answers("X", "path(1,X)"),
            (std::vector<std::string>{"2", "3"}));
}

TEST_F(EngineTest, SolutionOrderIsDepthFirst) {
  Load("color(red). color(green). color(blue).\n");
  EXPECT_EQ(Answers("C", "color(C)"),
            (std::vector<std::string>{"red", "green", "blue"}));
}

TEST_F(EngineTest, CutPrunesAlternatives) {
  Load("first(X) :- member_(X, [a,b,c]), !.\n"
       "member_(X, [X|_]). member_(X, [_|T]) :- member_(X, T).\n");
  EXPECT_EQ(Count("first(X)"), 1u);
  EXPECT_EQ(Answers("X", "first(X)"), (std::vector<std::string>{"a"}));
}

TEST_F(EngineTest, TransformNullPaperExample) {
  // The section 4.4 cut example.
  Load("transform_null(null, 'date unknown') :- !.\n"
       "transform_null(X, X).\n");
  EXPECT_EQ(Answers("Y", "transform_null(null, Y)"),
            (std::vector<std::string>{"'date unknown'"}));
  EXPECT_EQ(Answers("Y", "transform_null(1987, Y)"),
            (std::vector<std::string>{"1987"}));
  EXPECT_EQ(Count("transform_null(null, Y)"), 1u);
}

TEST_F(EngineTest, NotPPaperExample) {
  // The section 4.4 not_p example built from cut and fail.
  Load("p(a,b). p(c,d).\n"
       "not_p(X,Y) :- p(X,Y), !, fail.\n"
       "not_p(_,_).\n");
  EXPECT_FALSE(Holds("not_p(a,b)"));
  EXPECT_TRUE(Holds("not_p(a,c)"));
}

TEST_F(EngineTest, CutIsLocalToTheClause) {
  Load("q(1). q(2). r(X) :- q(X), !. top(X, Y) :- r(X), q(Y).\n");
  // The cut in r/1 must not prune q(Y) alternatives in top/2.
  EXPECT_EQ(Count("top(X, Y)"), 2u);
}

TEST_F(EngineTest, NegationAsFailure) {
  Load("p(1). p(2). q(2). safe(X) :- p(X), \\+ q(X).\n");
  EXPECT_EQ(Answers("X", "safe(X)"), (std::vector<std::string>{"1"}));
  EXPECT_TRUE(Holds("\\+ p(3)"));
  EXPECT_FALSE(Holds("\\+ p(1)"));
}

TEST_F(EngineTest, NegationLeavesNoBindings) {
  Load("p(1).\n");
  // \+ p(X) fails, but X must stay unbound for the subsequent goal.
  EXPECT_TRUE(Holds("\\+ \\+ p(X), X = 7"));
}

TEST_F(EngineTest, IfThenElse) {
  Load("classify(X, small) :- (X < 10 -> true ; fail).\n"
       "abs_(X, Y) :- (X < 0 -> Y is -X ; Y = X).\n");
  EXPECT_TRUE(Holds("classify(5, small)"));
  EXPECT_FALSE(Holds("classify(15, small)"));
  EXPECT_EQ(Answers("Y", "abs_(-3, Y)"), (std::vector<std::string>{"3"}));
  EXPECT_EQ(Answers("Y", "abs_(4, Y)"), (std::vector<std::string>{"4"}));
  // The condition is committed: only one solution even if it could retry.
  Load("pick(X) :- (member_(X, [1,2,3]) -> true ; X = none).\n"
       "member_(X, [X|_]). member_(X, [_|T]) :- member_(X, T).\n");
  EXPECT_EQ(Count("pick(X)"), 1u);
}

TEST_F(EngineTest, Disjunction) {
  Load("d(X) :- (X = 1 ; X = 2 ; X = 3).\n");
  EXPECT_EQ(Answers("X", "d(X)"), (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(EngineTest, Arithmetic) {
  EXPECT_TRUE(Holds("X is 2 + 3 * 4, X =:= 14"));
  EXPECT_TRUE(Holds("X is 7 // 2, X =:= 3"));
  EXPECT_TRUE(Holds("X is -7 mod 3, X =:= 2"));
  EXPECT_TRUE(Holds("X is min(3, 5), X =:= 3"));
  EXPECT_TRUE(Holds("X is abs(-9), X =:= 9"));
  EXPECT_TRUE(Holds("X is 2 ** 10, X =:= 1024"));
  EXPECT_TRUE(Holds("3 < 4, 4 =< 4, 5 > 2, 2 >= 2, 3 =\\= 4"));
  EXPECT_FALSE(Holds("1 > 2"));
}

TEST_F(EngineTest, ArithmeticErrors) {
  EXPECT_FALSE(SolveStatus("X is Y + 1").ok());
  EXPECT_FALSE(SolveStatus("X is 1 // 0").ok());
  EXPECT_FALSE(SolveStatus("X is foo + 1").ok());
}

TEST_F(EngineTest, UnificationBuiltins) {
  EXPECT_TRUE(Holds("X = f(Y), X = f(3), Y =:= 3"));
  EXPECT_TRUE(Holds("f(X) \\= g(X)"));
  EXPECT_FALSE(Holds("X \\= Y"));
  EXPECT_TRUE(Holds("X == X"));
  EXPECT_FALSE(Holds("X == Y"));
  EXPECT_TRUE(Holds("f(a) == f(a)"));
  EXPECT_TRUE(Holds("f(a) \\== f(b)"));
}

TEST_F(EngineTest, TypeTests) {
  EXPECT_TRUE(Holds("atom(foo)"));
  EXPECT_FALSE(Holds("atom(f(x))"));
  EXPECT_TRUE(Holds("number(42)"));
  EXPECT_TRUE(Holds("compound(f(x))"));
  EXPECT_TRUE(Holds("var(X)"));
  EXPECT_TRUE(Holds("X = 1, nonvar(X)"));
  EXPECT_TRUE(Holds("ground(f(a,1))"));
  EXPECT_FALSE(Holds("ground(f(a,X))"));
}

TEST_F(EngineTest, TermInspection) {
  EXPECT_TRUE(Holds("functor(f(a,b), f, 2)"));
  EXPECT_TRUE(Holds("functor(T, f, 2), T = f(_, _)"));
  EXPECT_TRUE(Holds("functor(foo, foo, 0)"));
  EXPECT_TRUE(Holds("arg(1, f(a,b), a)"));
  EXPECT_TRUE(Holds("arg(2, f(a,b), X), X == b"));
  EXPECT_FALSE(Holds("arg(3, f(a,b), _)"));
  EXPECT_TRUE(Holds("f(a,b) =.. [f,a,b]"));
  EXPECT_TRUE(Holds("T =.. [g,1], T == g(1)"));
  EXPECT_TRUE(Holds("copy_term(f(X,X,Y), C), C = f(1,Z,2), Z == 1"));
}

TEST_F(EngineTest, FindallCollectsAll) {
  Load("n(1). n(2). n(3).\n");
  EXPECT_TRUE(Holds("findall(X, n(X), [1,2,3])"));
  EXPECT_TRUE(Holds("findall(X, n(X), L), length(L, 3)"));
  EXPECT_TRUE(Holds("findall(f(X), fail, [])"));
}

TEST_F(EngineTest, Between) {
  EXPECT_EQ(Count("between(1, 5, X)"), 5u);
  EXPECT_TRUE(Holds("between(1, 5, 3)"));
  EXPECT_FALSE(Holds("between(1, 5, 9)"));
  EXPECT_EQ(Count("between(3, 2, X)"), 0u);
}

TEST_F(EngineTest, Length) {
  EXPECT_TRUE(Holds("length([a,b,c], 3)"));
  EXPECT_TRUE(Holds("length(L, 2), L = [x,y]"));
  EXPECT_FALSE(Holds("length([a], 2)"));
}

TEST_F(EngineTest, CallAndOnce) {
  Load("m(1). m(2).\n");
  EXPECT_EQ(Count("call(m, X)"), 2u);
  EXPECT_EQ(Count("G = m(X), call(G)"), 2u);
  EXPECT_EQ(Count("once(m(X))"), 1u);
  EXPECT_TRUE(Holds("once((m(X), X > 1))"));
}

TEST_F(EngineTest, AssertRetractDynamics) {
  Load(":- dynamic(counter/1). counter(0).\n");
  EXPECT_TRUE(Holds("retract(counter(0)), assert(counter(1))"));
  EXPECT_TRUE(Holds("counter(1)"));
  EXPECT_FALSE(Holds("counter(0)"));
  EXPECT_TRUE(Holds("assert(counter(2))"));
  EXPECT_EQ(Count("counter(X)"), 2u);
  EXPECT_TRUE(Holds("retractall(counter(_))"));
  EXPECT_EQ(Count("counter(X)"), 0u);
}

TEST_F(EngineTest, AssertaOrdersFirst) {
  Load("v(1).\n");
  EXPECT_TRUE(Holds("asserta(v(0))"));
  EXPECT_EQ(Answers("X", "v(X)"), (std::vector<std::string>{"0", "1"}));
}

TEST_F(EngineTest, RetractRules) {
  Load("w(X) :- X = 1. w(X) :- X = 2.\n");
  EXPECT_TRUE(Holds("retract((w(X) :- X = 1))"));
  EXPECT_EQ(Count("w(X)"), 1u);
}

TEST_F(EngineTest, UnknownPredicateIsAnError) {
  Status s = SolveStatus("no_such_pred(1)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kExistence);
}

// An atom goal finds its functor without interning it: a never-defined atom
// is an existence error, and one asserted later is then callable.
TEST_F(EngineTest, AtomGoalsResolveWithoutInterning) {
  Status s = SolveStatus("never_defined_atom");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kExistence);
  s = SolveStatus("X = never_defined_either, call(X)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kExistence);
  EXPECT_TRUE(Holds("assert(defined_later)"));
  EXPECT_TRUE(Holds("defined_later"));
  EXPECT_TRUE(Holds("X = defined_later, call(X)"));
}

TEST_F(EngineTest, CallToVariableIsInstantiationError) {
  Status s = SolveStatus("call(X)");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInstantiation);
}

TEST_F(EngineTest, ListProgramsAppendNaive) {
  Load("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n");
  EXPECT_TRUE(Holds("app([1,2], [3], [1,2,3])"));
  EXPECT_EQ(Count("app(X, Y, [1,2,3])"), 4u);  // all splits
  EXPECT_EQ(Answers("X", "app([1], [2], X)"),
            (std::vector<std::string>{"[1,2]"}));
}

TEST_F(EngineTest, NaiveReverse) {
  Load("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "rev([], []). rev([H|T], R) :- rev(T, RT), app(RT, [H], R).\n");
  EXPECT_TRUE(Holds("rev([1,2,3,4], [4,3,2,1])"));
}

TEST_F(EngineTest, DeepRecursionChain) {
  // 2000-long chain: stresses goal stack and heap watermarks.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "e(" + std::to_string(i) + "," + std::to_string(i + 1) + "). ";
  }
  text += "reach(X,Y) :- e(X,Y). reach(X,Y) :- e(X,Z), reach(Z,Y).\n";
  Load(text);
  EXPECT_TRUE(Holds("reach(0, 2000)"));
  EXPECT_EQ(Count("reach(0, X)"), 2000u);
}

TEST_F(EngineTest, HiLogRuntimeDispatchToFirstOrder) {
  Load("parent(john, mary). parent(mary, sue).\n"
       "holds(R, X, Y) :- R(X, Y).\n");  // R(X,Y) reads as apply(R,X,Y)
  EXPECT_TRUE(Holds("holds(parent, john, mary)"));
  EXPECT_EQ(Count("holds(parent, X, Y)"), 2u);
}

TEST_F(EngineTest, HiLogDefinedPredicates) {
  Load(":- hilog maps.\n"
       "maps(double)(X, Y) :- Y is X * 2.\n"
       "maps(square)(X, Y) :- Y is X * X.\n");
  EXPECT_EQ(Answers("Y", "maps(double)(4, Y)"),
            (std::vector<std::string>{"8"}));
  EXPECT_EQ(Answers("Y", "maps(square)(4, Y)"),
            (std::vector<std::string>{"16"}));
}

TEST_F(EngineTest, StatsCountCalls) {
  Load("b(1). b(2). a :- b(_), fail. a.\n");
  machine_.set_counted_functor(
      symbols_.InternFunctor(symbols_.InternAtom("b"), 1));
  EXPECT_TRUE(Holds("a"));
  EXPECT_EQ(machine_.stats().counted_calls, 1u);
}

TEST_F(EngineTest, TableAllTablesCyclicPredicates) {
  Load(":- table_all.\n"
       "edge(1,2).\n"
       "tc(X,Y) :- edge(X,Y).\n"
       "tc(X,Y) :- tc(X,Z), edge(Z,Y).\n"
       "leaf(X) :- edge(X, _).\n");
  Predicate* tc =
      program_.Lookup(symbols_.InternFunctor(symbols_.InternAtom("tc"), 2));
  Predicate* leaf = program_.Lookup(
      symbols_.InternFunctor(symbols_.InternAtom("leaf"), 1));
  Predicate* edge = program_.Lookup(
      symbols_.InternFunctor(symbols_.InternAtom("edge"), 2));
  ASSERT_NE(tc, nullptr);
  EXPECT_TRUE(tc->tabled());
  EXPECT_FALSE(leaf->tabled());
  EXPECT_FALSE(edge->tabled());
}

TEST_F(EngineTest, TableAllHandlesMutualRecursion) {
  Load(":- table_all.\n"
       "even(0). even(X) :- X > 0, Y is X - 1, odd(Y).\n"
       "odd(X) :- X > 0, Y is X - 1, even(Y).\n");
  Predicate* even = program_.Lookup(
      symbols_.InternFunctor(symbols_.InternAtom("even"), 1));
  Predicate* odd =
      program_.Lookup(symbols_.InternFunctor(symbols_.InternAtom("odd"), 1));
  EXPECT_TRUE(even->tabled());
  EXPECT_TRUE(odd->tabled());
}

TEST_F(EngineTest, FormattedLoadParsesFieldsAndIndexes) {
  std::istringstream in("1,a\n2,b\n3,c\n");
  Result<size_t> n = loader_.LoadFactsFormatted(in, "row", 2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_TRUE(Holds("row(2, b)"));
  EXPECT_EQ(Count("row(X, Y)"), 3u);
  EXPECT_EQ(Count("row(2, Y)"), 1u);
}

}  // namespace
}  // namespace xsb
