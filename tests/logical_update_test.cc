// The logical update view (ISO Prolog 7.5.4): a call to a dynamic predicate
// resolves against the clauses that existed when it was made. Clauses that
// asserta/assertz add while its alternatives are being tried stay invisible
// to it; a retracted clause that has not been reached yet is skipped.
// clause/2 walks the clauses the way a call does, so it has the same view.

#include <gtest/gtest.h>

#include <string>

#include "xsb/engine.h"

namespace xsb {
namespace {

// L in findall(X, q(X), L), with q/1 defined by `q_clause` over p(1), p(2).
std::string Collect(const std::string& q_clause) {
  Engine engine;
  Status consulted =
      engine.ConsultString(":- dynamic p/1.\np(1).\np(2).\n" + q_clause);
  EXPECT_TRUE(consulted.ok()) << consulted.ToString();
  Result<std::vector<Answer>> answers = engine.FindAll("findall(X, q(X), L)");
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  if (!answers.ok() || answers.value().size() != 1) return "<no answer>";
  return answers.value()[0]["L"];
}

TEST(LogicalUpdateView, AssertaDuringIterationIsNotSeen) {
  // The new clause goes in front of p(1): renumbering clauses under the
  // open call would deliver p(1) again instead of p(2).
  EXPECT_EQ(Collect("q(X) :- p(X), asserta(p(0)).\n"), "[1,2]");
}

TEST(LogicalUpdateView, AssertzDuringIterationIsNotSeen) {
  // The new clause goes behind p(2), past the end the call started with.
  EXPECT_EQ(Collect("q(X) :- p(X), assertz(p(3)).\n"), "[1,2]");
}

TEST(LogicalUpdateView, RetractDuringIterationSkipsTheClause) {
  // Pinned: an erased clause is skipped even by a call that started before
  // the retract.
  EXPECT_EQ(Collect("q(X) :- p(X), retract(p(2)).\n"), "[1]");
}

TEST(LogicalUpdateView, ClauseAssertaDuringIterationIsNotSeen) {
  EXPECT_EQ(Collect("q(X) :- clause(p(X), true), asserta(p(0)).\n"),
            Collect("q(X) :- p(X), asserta(p(0)).\n"));
}

TEST(LogicalUpdateView, ClauseAssertzDuringIterationIsNotSeen) {
  EXPECT_EQ(Collect("q(X) :- clause(p(X), true), assertz(p(3)).\n"),
            Collect("q(X) :- p(X), assertz(p(3)).\n"));
}

TEST(LogicalUpdateView, ClauseRetractDuringIterationSkipsTheClause) {
  // Only the first solution retracts, so p(2) is gone before it is reached
  // and nothing else fails it.
  const char* retract_once = "(X == 1 -> retract(p(2)) ; true).\n";
  EXPECT_EQ(Collect(std::string("q(X) :- p(X), ") + retract_once), "[1]");
  EXPECT_EQ(Collect(std::string("q(X) :- clause(p(X), true), ") + retract_once),
            "[1]");
}

TEST(LogicalUpdateView, CutAfterClausePrunesItsClauses) {
  EXPECT_EQ(Collect("q(X) :- clause(p(X), true), !.\n"), "[1]");
}

TEST(LogicalUpdateView, LaterCallsSeeTheUpdates) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- dynamic p/1.\np(1).\np(2).\n"
                                 "q(X) :- p(X), asserta(p(0)).\n")
                  .ok());
  ASSERT_TRUE(engine.Holds("findall(X, q(X), _)").value());
  Result<std::vector<Answer>> answers = engine.FindAll("findall(X, p(X), L)");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value()[0]["L"], "[0,0,1,2]");
  // The same holds through the first-argument index.
  answers = engine.FindAll("findall(x, p(0), L)");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value()[0]["L"], "[x,x]");
}

}  // namespace
}  // namespace xsb
