// Unit tests for the consult-time program analyzer (src/analysis): call
// graph + SCCs, the stratification verdict, safety lints, the auto-table
// and index advisors, style lints, and the analyze/1 builtin.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/to_datalog.h"
#include "bottomup/seminaive.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

using analysis::AnalysisResult;
using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

const Diagnostic* FindCode(const AnalysisResult& result, DiagCode code) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::string PredName(Engine& engine, FunctorId f) {
  return engine.symbols().AtomName(engine.symbols().FunctorAtom(f)) + "/" +
         std::to_string(engine.symbols().FunctorArity(f));
}

// --- Call graph / SCCs -------------------------------------------------------

TEST(AnalyzerScc, StratifiedProgramHasExpectedComponents) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,3).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  // Two defined predicates: edge/2 (leaf) and path/2 (self-recursive).
  EXPECT_EQ(result.sccs.size(), 2u);
  EXPECT_TRUE(result.stratified());
  EXPECT_FALSE(result.widened);

  int recursive = 0;
  for (const analysis::SccInfo& scc : result.sccs) {
    if (scc.recursive) ++recursive;
    EXPECT_FALSE(scc.negative_internal);
  }
  EXPECT_EQ(recursive, 1);
  // path already tabled: the advisor has nothing to say.
  EXPECT_TRUE(result.table_suggestions.empty());
}

TEST(AnalyzerScc, MutualRecursionFormsOneComponent) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("even(0).\n"
                                 "even(X) :- X > 0, Y is X - 1, odd(Y).\n"
                                 "odd(X) :- X > 0, Y is X - 1, even(Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  // even/1 and odd/1 share one SCC.
  ASSERT_EQ(result.sccs.size(), 1u);
  EXPECT_EQ(result.sccs[0].members.size(), 2u);
  EXPECT_TRUE(result.sccs[0].recursive);
  EXPECT_TRUE(result.stratified());
  // Both are advised for tabling.
  EXPECT_EQ(result.table_suggestions.size(), 2u);
}

TEST(AnalyzerScc, VariableGoalWidensTheGraph) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("run(G) :- G.\n"
                                 "helper(1).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_TRUE(result.widened);
}

// --- Stratification (S001) ---------------------------------------------------

// A widened call site reaches every predicate through one hub edge: the
// components, the verdict and its witness, and the incremental dependency
// seeds are those that a direct edge to each predicate gives.
TEST(AnalyzerScc, WidenedCallsKeepComponentsVerdictAndSeeds) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- dynamic e/1.\n"
                                 ":- incremental(e/1).\n"
                                 "leaf(X) :- e(X).\n"
                                 "mid(X) :- leaf(X).\n"
                                 "w(G) :- call(G).\n"
                                 "top(X) :- w(mid(X)).\n"
                                 "solo :- leaf(1).\n"
                                 "neg(G) :- \\+ G.\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_TRUE(result.widened);
  EXPECT_FALSE(result.stratified());
  std::vector<std::string> sccs;
  for (const analysis::SccInfo& scc : result.sccs) {
    std::string text = scc.recursive ? "rec" : "";
    for (FunctorId f : scc.members) text += " " + PredName(engine, f);
    sccs.push_back(text);
  }
  EXPECT_EQ(sccs, (std::vector<std::string>{" leaf/1", " mid/1", " solo/0",
                                            "rec w/1 top/1 neg/1"}));
  const Diagnostic* s001 = FindCode(result, DiagCode::kNonStratified);
  ASSERT_NE(s001, nullptr);
  EXPECT_NE(s001->message.find("{w/1, top/1, neg/1} crosses negation "
                               "(neg/1 -> w/1)"),
            std::string::npos)
      << s001->message;
  FunctorId e = engine.symbols().InternFunctor(
      engine.symbols().InternAtom("e"), 1);
  std::vector<std::string> seeded;
  for (const char* name : {"leaf", "mid", "w", "top", "neg", "e"}) {
    FunctorId f = engine.symbols().InternFunctor(
        engine.symbols().InternAtom(name), 1);
    const std::vector<FunctorId>* deps = engine.program().IncrementalDepsOf(f);
    if (deps != nullptr && *deps == std::vector<FunctorId>{e}) {
      seeded.push_back(name);
    }
  }
  EXPECT_EQ(seeded, (std::vector<std::string>{"leaf", "mid", "w", "top",
                                              "neg", "e"}));
  FunctorId solo = engine.symbols().InternFunctor(
      engine.symbols().InternAtom("solo"), 0);
  ASSERT_NE(engine.program().IncrementalDepsOf(solo), nullptr);
  EXPECT_EQ(*engine.program().IncrementalDepsOf(solo),
            std::vector<FunctorId>{e});
}

TEST(AnalyzerScc, WidenedCallSitesAddLinearlyManyEdges) {
  constexpr size_t kClauses = 20000;
  std::string text;
  for (size_t i = 0; i < kClauses; ++i) {
    text += "m" + std::to_string(i) + "(G) :- call(G).\n";
  }
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text).ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_TRUE(result.widened);
  EXPECT_LE(result.edges.size(), 3 * kClauses);
  // Every caller widens, so all of them share one recursive component.
  ASSERT_EQ(result.sccs.size(), 1u);
  EXPECT_EQ(result.sccs[0].members.size(), kClauses);
  EXPECT_TRUE(result.sccs[0].recursive);
}

TEST(AnalyzerStratification, NegationInsideSccIsDiagnosedAtConsultTime) {
  Engine engine;
  // No query runs: the diagnostic must appear from ConsultString alone.
  ASSERT_TRUE(engine
                  .ConsultString(":- table win/1.\n"
                                 "win(X) :- move(X,Y), tnot win(Y).\n"
                                 "move(a,b). move(b,a).\n")
                  .ok());
  const std::vector<Diagnostic>& diags =
      engine.program().analysis_diagnostics();
  const Diagnostic* s001 = nullptr;
  for (const Diagnostic& d : diags) {
    if (d.code == DiagCode::kNonStratified) s001 = &d;
  }
  ASSERT_NE(s001, nullptr);
  EXPECT_EQ(s001->severity, Severity::kError);
  // The span points at the offending clause (line 2 of the consult unit).
  EXPECT_TRUE(s001->span.known());
  EXPECT_EQ(s001->span.line, 2);
  EXPECT_NE(s001->span.file, 0u);

  AnalysisResult result = engine.Analyze();
  EXPECT_FALSE(result.stratified());
  ASSERT_NE(FindCode(result, DiagCode::kNonStratified), nullptr);
}

TEST(AnalyzerStratification, AggregationInsideSccIsDiagnosed) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      "p(X) :- findall(Y, p(Y), L), member_of(X, L).\n"
                      "member_of(X, [X|_]).\n"
                      "member_of(X, [_|T]) :- member_of(X, T).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_FALSE(result.stratified());
  const Diagnostic* s001 = FindCode(result, DiagCode::kNonStratified);
  ASSERT_NE(s001, nullptr);
  EXPECT_NE(s001->message.find("aggregation"), std::string::npos);
}

TEST(AnalyzerStratification, StrictModeFailsTheConsult) {
  Engine::Options options;
  options.strict_analysis = true;
  Engine engine(options);
  Status status = engine.ConsultString(
      ":- table win/1.\n"
      "win(X) :- move(X,Y), tnot win(Y).\n"
      "move(a,b). move(b,a).\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kStratification);
  EXPECT_NE(status.message().find("S001"), std::string::npos);
}

TEST(AnalyzerStratification, RuntimeErrorCitesTheConsultTimeVerdict) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table win/1.\n"
                                 "win(X) :- move(X,Y), tnot win(Y).\n"
                                 "move(a,b). move(b,a).\n")
                  .ok());
  Result<bool> held = engine.Holds("win(a)");
  ASSERT_FALSE(held.ok());
  EXPECT_EQ(held.status().code(), ErrorCode::kStratification);
  // The runtime failure reuses the analyzer's message, span included.
  EXPECT_NE(held.status().message().find("S001"), std::string::npos);
  EXPECT_NE(held.status().message().find(":2:"), std::string::npos);
}

// --- Safety (S002-S004) ------------------------------------------------------

TEST(AnalyzerSafety, UnboundVariableUnderNegation) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("q(1). r(1).\n"
                                 "p :- q(X), \\+ r(Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* s002 = FindCode(result, DiagCode::kUnsafeNegation);
  ASSERT_NE(s002, nullptr);
  EXPECT_EQ(PredName(engine, s002->functor), "p/0");
  // X is bound by q(X) before the negation: only Y is unsafe, and the
  // variant with both bound is clean.
  Engine clean;
  ASSERT_TRUE(clean
                  .ConsultString("q(1). r(1).\n"
                                 "p :- q(X), \\+ r(X).\n")
                  .ok());
  EXPECT_EQ(FindCode(clean.Analyze(), DiagCode::kUnsafeNegation), nullptr);
}

TEST(AnalyzerSafety, HeadVariableNotRangeRestricted) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("q(1).\nh(X) :- q(_).\n").ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* s003 = FindCode(result, DiagCode::kUnsafeHead);
  ASSERT_NE(s003, nullptr);
  EXPECT_EQ(PredName(engine, s003->functor), "h/1");
}

TEST(AnalyzerSafety, FactWithVariableIsFlagged) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("universal(X).\n").ok());
  EXPECT_NE(FindCode(engine.Analyze(), DiagCode::kUnsafeHead), nullptr);
}

TEST(AnalyzerSafety, ArithmeticOverUnboundVariable) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("q(1).\n"
                                 "bad :- Y is Z + 1, q(Y).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* s004 = FindCode(result, DiagCode::kUnsafeArith);
  ASSERT_NE(s004, nullptr);
  EXPECT_EQ(PredName(engine, s004->functor), "bad/0");
  // Head variables are assumed caller-bound: f(X,Y) :- Y is X + 1 is fine.
  Engine clean;
  ASSERT_TRUE(clean.ConsultString("f(X, Y) :- Y is X + 1.\n").ok());
  EXPECT_EQ(FindCode(clean.Analyze(), DiagCode::kUnsafeArith), nullptr);
}

// Section 4.4: a cut after a tabled call on the clause body's own spine.
// The clause is accepted while p/1 is untabled; the later unit that tables
// p/1 does not define bad/1, so it is not refused for bad/1's cut.
constexpr char kCutUnit[] = "p(1).\nbad(X) :- p(X), !.\n";
constexpr char kTableUnit[] = ":- table p/1.\n";

TEST(AnalyzerSafety, LaterTableDoesNotRefuseTheLaterUnit) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kCutUnit).ok());
  Status s = engine.ConsultString(kTableUnit);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(engine.Holds("bad(1)").value());
}

TEST(AnalyzerSafety, CutAfterTabledCallIsListedAsS005) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(kCutUnit).ok());
  EXPECT_EQ(FindCode(engine.Analyze(), DiagCode::kCutOverTable), nullptr);
  ASSERT_TRUE(engine.ConsultString(kTableUnit).ok());
  Result<std::vector<Answer>> answers = engine.FindAll("analyze(R)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  const std::string& report = answers.value()[0]["R"];
  EXPECT_NE(report.find("diag('S005',error,bad / 1,'a cut would close over "
                        "a partially computed table"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("span('<consult-1>',2,1)"), std::string::npos)
      << report;
}

// --- Advisors (A001, A002) ---------------------------------------------------

TEST(AnalyzerAdvisors, AutoTableSuggestsRecursivePredicates) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,1).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  ASSERT_EQ(result.table_suggestions.size(), 1u);
  EXPECT_EQ(PredName(engine, result.table_suggestions[0]), "path/2");
  EXPECT_NE(FindCode(result, DiagCode::kAutoTable), nullptr);
}

TEST(AnalyzerAdvisors, AutoTableDirectiveMakesLeftRecursionTerminate) {
  // Left recursion over a cyclic graph loops forever under plain SLD; with
  // :- auto_table. the advisor's suggestions are applied and SLG answers.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- auto_table.\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "edge(1,2). edge(2,1).\n")
                  .ok());
  EXPECT_TRUE(engine.program()
                  .Lookup(engine.symbols().InternFunctor(
                      engine.symbols().InternAtom("path"), 2))
                  ->tabled());
  Result<size_t> count = engine.Count("path(1, X)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 2u);  // path(1,1) and path(1,2)
}

TEST(AnalyzerAdvisors, IndexAdvisorReadsCallSiteBindings) {
  Engine engine;
  // Every call site of big/2 binds argument 2 and leaves argument 1 open:
  // the default first-argument index never applies.
  ASSERT_TRUE(engine
                  .ConsultString("big(a, 1). big(b, 2). big(c, 3).\n"
                                 "key(2). key(3).\n"
                                 "hit(X) :- key(K), big(X, K).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  ASSERT_EQ(result.index_suggestions.size(), 1u);
  EXPECT_EQ(PredName(engine, result.index_suggestions[0].first), "big/2");
  EXPECT_EQ(result.index_suggestions[0].second, 2);
  const Diagnostic* a002 = FindCode(result, DiagCode::kIndexAdvice);
  ASSERT_NE(a002, nullptr);
  EXPECT_NE(a002->message.find(":- index(big/2, 2)"), std::string::npos);

  // With the first argument bound at some call site there is no advice.
  Engine clean;
  ASSERT_TRUE(clean
                  .ConsultString("big(a, 1). big(b, 2).\n"
                                 "hit :- big(a, _).\n")
                  .ok());
  EXPECT_TRUE(clean.Analyze().index_suggestions.empty());
}

TEST(AnalyzerAdvisors, StructureKeyedPredicatesCountAsIndexed) {
  // size/2 keys argument 1 on functors (plus one constant); since
  // switch_on_structure those bound call sites dispatch through the
  // structure table, so the advisor must not suggest an alternate index
  // and must not flag the dispatch as chain-bound.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("size(box(W, H), A) :- A is W * H.\n"
                                 "size(ball(R), A) :- A is 3 * R.\n"
                                 "size(nil, 0).\n"
                                 "probe(A) :- size(box(2, 3), A).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  EXPECT_TRUE(result.index_suggestions.empty());
  EXPECT_EQ(FindCode(result, DiagCode::kIndexAdvice), nullptr);
  EXPECT_EQ(FindCode(result, DiagCode::kChainDispatch), nullptr);
}

TEST(AnalyzerAdvisors, VarKeyedClauseIsFlaggedAsChainDispatch) {
  // One variable-keyed clause in an otherwise keyed set disables the
  // first-argument switch for the whole predicate: A003 points at the
  // offending clause.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("size(box(W, H), A) :- A is W * H.\n"
                                 "size(nil, 0).\n"
                                 "size(_Any, unknown).\n"
                                 "probe(A) :- size(box(2, 3), A).\n")
                  .ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* a003 = FindCode(result, DiagCode::kChainDispatch);
  ASSERT_NE(a003, nullptr);
  EXPECT_EQ(PredName(engine, a003->functor), "size/2");
  EXPECT_NE(a003->message.find("variable"), std::string::npos);
  EXPECT_EQ(a003->span.line, 3);

  // All-variable heads are ordinary Prolog — nothing to switch on, so no
  // clause is singled out and the advisor stays silent.
  Engine plain;
  ASSERT_TRUE(plain
                  .ConsultString("path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2).\n"
                                 "go :- path(1, _).\n")
                  .ok());
  EXPECT_EQ(FindCode(plain.Analyze(), DiagCode::kChainDispatch), nullptr);
}

// --- Lints (L001-L003) -------------------------------------------------------

TEST(AnalyzerLints, SingletonVariableCarriesNameAndSpan) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("q(1).\np(X, Y) :- q(X).\n").ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* l001 = FindCode(result, DiagCode::kSingletonVar);
  ASSERT_NE(l001, nullptr);
  EXPECT_NE(l001->message.find("Y"), std::string::npos);
  EXPECT_EQ(l001->span.line, 2);

  // Underscore-prefixed names opt out, as is conventional.
  Engine clean;
  ASSERT_TRUE(clean.ConsultString("q(1).\np(X, _Y) :- q(X).\n").ok());
  EXPECT_EQ(FindCode(clean.Analyze(), DiagCode::kSingletonVar), nullptr);
}

TEST(AnalyzerLints, DiscontiguousClausesAreFlagged) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("a(1).\nb(1).\na(2).\n").ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* l002 = FindCode(result, DiagCode::kDiscontiguous);
  ASSERT_NE(l002, nullptr);
  EXPECT_EQ(PredName(engine, l002->functor), "a/1");

  Engine declared;
  ASSERT_TRUE(
      declared
          .ConsultString(":- discontiguous a/1.\na(1).\nb(1).\na(2).\n")
          .ok());
  EXPECT_EQ(FindCode(declared.Analyze(), DiagCode::kDiscontiguous), nullptr);
}

TEST(AnalyzerLints, UnknownPredicateCallsAreFlagged) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("p :- missing_thing(1).\n").ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* l003 = FindCode(result, DiagCode::kUnknownPredicate);
  ASSERT_NE(l003, nullptr);
  EXPECT_EQ(PredName(engine, l003->functor), "missing_thing/1");

  // A dynamic declaration silences it: calling an empty dynamic predicate
  // is ordinary.
  Engine declared;
  ASSERT_TRUE(declared
                  .ConsultString(":- dynamic missing_thing/1.\n"
                                 "p :- missing_thing(1).\n")
                  .ok());
  EXPECT_EQ(FindCode(declared.Analyze(), DiagCode::kUnknownPredicate),
            nullptr);
}

// --- analyze/1 ---------------------------------------------------------------

TEST(AnalyzeBuiltin, ReportsSccsVerdictLintsAndAdvice) {
  Engine engine;
  // Fixture with: a non-stratified component (S001), an unsafe negation
  // (S002), an untabled recursive predicate (A001), and known SCC count.
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table win/1.\n"
                      "win(X) :- move(X,Y), tnot win(Y).\n"
                      "move(a,b). move(b,a).\n"
                      "reach(X,Y) :- edge(X,Y).\n"
                      "reach(X,Y) :- reach(X,Z), edge(Z,Y).\n"
                      "edge(1,2).\n"
                      "p :- move(X, Y), \\+ win(Z), reach(X, Y).\n")
                  .ok());
  // Defined predicates: win/1, move/2, reach/2, edge/2, p/0 -> 5 SCCs
  // (each its own component; win and reach are self-recursive).
  AnalysisResult expected = engine.Analyze();
  EXPECT_EQ(expected.sccs.size(), 5u);
  EXPECT_FALSE(expected.stratified());
  EXPECT_NE(FindCode(expected, DiagCode::kUnsafeNegation), nullptr);
  ASSERT_EQ(expected.table_suggestions.size(), 1u);
  EXPECT_EQ(PredName(engine, expected.table_suggestions[0]), "reach/2");

  // The builtin renders the same facts as a term.
  Result<std::vector<Answer>> answers = engine.FindAll("analyze(R)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  std::string report = answers.value()[0]["R"];
  EXPECT_NE(report.find("sccs"), std::string::npos);
  EXPECT_NE(report.find("5"), std::string::npos);
  EXPECT_NE(report.find("stratified"), std::string::npos);
  EXPECT_NE(report.find("false"), std::string::npos);
  EXPECT_NE(report.find("S001"), std::string::npos);  // verdict diagnostic
  EXPECT_NE(report.find("S002"), std::string::npos);  // safety lint
  EXPECT_NE(report.find("A001"), std::string::npos);  // advisor suggestion
  EXPECT_NE(report.find("reach/2"), std::string::npos);
  EXPECT_NE(report.find("span"), std::string::npos);
}

// --- Formatting --------------------------------------------------------------

TEST(DiagnosticFormat, RendersCodeSeverityPredicateAndSpan) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("q(1).\np(X, Y) :- q(X).\n").ok());
  AnalysisResult result = engine.Analyze();
  const Diagnostic* l001 = FindCode(result, DiagCode::kSingletonVar);
  ASSERT_NE(l001, nullptr);
  std::string text = FormatDiagnostic(engine.symbols(), *l001);
  EXPECT_NE(text.find("warning L001"), std::string::npos);
  EXPECT_NE(text.find("[p/2]"), std::string::npos);
  EXPECT_NE(text.find(":2:"), std::string::npos);
}

}  // namespace
}  // namespace xsb
