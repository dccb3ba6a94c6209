// Tests for the extended builtin set: atom/string conversions, clause/2
// introspection, and user-declared operators via the op/3 directive.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xsb/engine.h"

namespace xsb {
namespace {

TEST(AtomBuiltins, AtomCodesBothDirections) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("seed(1).\n").ok());
  EXPECT_TRUE(engine.Holds("atom_codes(abc, [97,98,99])").value());
  EXPECT_TRUE(engine.Holds("atom_codes(abc, L), length(L, 3)").value());
  EXPECT_TRUE(engine.Holds("atom_codes(A, [104,105]), A == hi").value());
  EXPECT_TRUE(engine.Holds("atom_codes(42, [0'4, 0'2])").value());
}

TEST(AtomBuiltins, NumberCodes) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("seed(1).\n").ok());
  EXPECT_TRUE(engine.Holds("number_codes(123, \"123\")").value());
  EXPECT_TRUE(engine.Holds("number_codes(N, \"77\"), N =:= 77").value());
  EXPECT_TRUE(engine.Holds("number_codes(N, \"-5\"), N =:= -5").value());
  EXPECT_FALSE(engine.Holds("number_codes(_, \"abc\")").value());
}

TEST(AtomBuiltins, LengthAndConcat) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("seed(1).\n").ok());
  EXPECT_TRUE(engine.Holds("atom_length(hello, 5)").value());
  EXPECT_TRUE(engine.Holds("atom_concat(foo, bar, foobar)").value());
  EXPECT_TRUE(engine.Holds("atom_concat(x, 1, A), A == x1").value());
  EXPECT_FALSE(engine.Holds("atom_concat(a, b, c)").value());
}

TEST(ClauseIntrospection, EnumeratesFactsAndRules) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString("p(1). p(2).\n"
                                 "q(X) :- p(X), X > 1.\n")
                  .ok());
  EXPECT_EQ(engine.Count("clause(p(X), true)").value(), 2u);
  EXPECT_TRUE(engine.Holds("clause(p(1), B), B == true").value());
  EXPECT_TRUE(engine.Holds("clause(q(X), (p(X), X > 1))").value());
  EXPECT_FALSE(engine.Holds("clause(p(3), _)").value());
  // clause/2 sees dynamic updates.
  ASSERT_TRUE(engine.Holds("assert(p(3))").value());
  EXPECT_TRUE(engine.Holds("clause(p(3), true)").value());
}

// --- Clause access: clause/2, retract/1, retractall/1 ------------------------

// Each case runs `goal`, which binds L, on a fresh engine over kClauseDb and
// compares the rendered L. findall copies its instances, so the variables of
// L render canonically (_G0, _G1, ... in order of appearance).
struct ClauseCase {
  std::string goal;
  const char* expected;
};

constexpr const char* kClauseDb =
    ":- dynamic f/2, r/2, t/1, n/2.\n"
    "f(1, a). f(2, b). f(1, c). f(X, X).\n"
    "r(X, Y) :- f(X, Z), f(Z, Y).\n"
    "r(1, Y) :- true.\n"
    "r(X, X) :- \\+ f(X, _), X = g(Y, Y).\n"
    "t(_) :- true.\n"
    "n(g(X, h(Y)), [X|Y]).\n"
    "n(g(a, Z), Z) :- f(Z, _).\n";

// The listing of every clause of the four predicates, through clause/2.
constexpr const char* kListing =
    "findall(H-B, ((H = f(_, _) ; H = r(_, _) ; H = t(_) ; H = n(_, _)),"
    " clause(H, B)), S)";

void ExpectClauseCases(const std::vector<ClauseCase>& cases) {
  for (const ClauseCase& c : cases) {
    SCOPED_TRACE(c.goal);
    Engine engine;
    ASSERT_TRUE(engine.ConsultString(kClauseDb).ok());
    Result<std::vector<Answer>> answers = engine.FindAll(c.goal);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    ASSERT_EQ(answers.value().size(), 1u);
    EXPECT_EQ(answers.value()[0]["L"], c.expected);
  }
}

TEST(ClauseAccess, ClauseTwo) {
  ExpectClauseCases({
      {"findall(X-Y, clause(f(X, Y), true), L)", "[1 - a,2 - b,1 - c,_G0 - _G0]"},
      {"findall(X-B, clause(f(X, b), B), L)", "[2 - true,b - true]"},
      {"findall(X, clause(f(X, X), true), L)", "[_G0]"},
      {"findall(X-Y-B, clause(r(X, Y), B), L)", "[_G0 - _G1 - (f(_G0,_G2),f(_G2,_G1)),1 - _G3 - true,_G4 - _G4 - (\\+ f(_G4,_G5),_G4 = g(_G6,_G6))]"},
      {"findall(Y-B, clause(r(1, Y), B), L)", "[_G0 - (f(1,_G1),f(_G1,_G0)),_G2 - true,1 - (\\+ f(1,_G3),1 = g(_G4,_G4))]"},
      {"findall(X-Z, clause(r(X, Y), (f(X, Z), _)), L)", "[_G0 - _G1]"},
      {"findall(B, clause(r(_, _), (g(_), _)), L)", "[]"},
      {"findall(B, clause(r(_, _), true), L)", "[_G0]"},
      {"findall(X-B, clause(t(X), B), L)", "[_G0 - true]"},
      {"findall(A-T-B, clause(n(g(A, h(b)), T), B), L)", "[_G0 - [_G0|b] - true,a - h(b) - f(h(b),_G1)]"},
      {"findall(T-B, clause(n(g(a, h(Y)), T), B), L)", "[[a|_G0] - true,h(_G1) - f(h(_G1),_G2)]"},
      {"findall(B, clause(n(g(b, c), _), B), L)", "[]"},
      {"findall(B, clause(u(1), B), L)", "[]"},
  });
}

TEST(ClauseAccess, Retract) {
  std::string listing = kListing;
  ExpectClauseCases({
      {"findall(X, retract(f(1, X)), R), " + listing + ", L = R/S", "[a] / [f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(X, retract(f(X, X)), R), " + listing + ", L = R/S", "[_G0] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(Y, retract(r(1, Y)), R), " + listing + ", L = R/S", "[_G0] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G1,_G1) - true,r(_G2,_G3) - (f(_G2,_G4),f(_G4,_G3)),r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(A-B-D, retract((r(A, B) :- f(A, C), D)), R), " + listing +
           ", L = R/S",
       "[_G0 - _G1 - f(_G2,_G1)] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G3,_G3) - true,r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(A-B, retract((r(A, B) :- true)), R), " + listing + ", L = R/S",
       "[1 - _G0] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G1,_G1) - true,r(_G2,_G3) - (f(_G2,_G4),f(_G4,_G3)),r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(X-B, retract((f(1, X) :- B)), R), " + listing + ", L = R/S",
       "[a - true] / [f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(X, retract((f(9, X) :- true)), R), " + listing + ", L = R/S",
       "[9] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,r(_G0,_G1) - (f(_G0,_G2),f(_G2,_G1)),r(1,_G3) - true,r(_G4,_G4) - (\\+ f(_G4,_G5),_G4 = g(_G6,_G6)),t(_G7) - true,n(g(_G8,h(_G9)),[_G8|_G9]) - true,n(g(a,_G10),_G10) - f(_G10,_G11)]"},
      {"findall(x, retract((r(_, _) :- g(_))), R), " + listing + ", L = R/S",
       "[] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(X-Y-Z, retract(n(g(X, h(Y)), Z)), R), " + listing +
           ", L = R/S",
       "[_G0 - _G1 - [_G0|_G1]] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G2,_G2) - true,r(_G3,_G4) - (f(_G3,_G5),f(_G5,_G4)),r(1,_G6) - true,r(_G7,_G7) - (\\+ f(_G7,_G8),_G7 = g(_G9,_G9)),t(_G10) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
      {"findall(Z-B, retract((n(g(a, Z), Z) :- B)), R), " + listing +
           ", L = R/S",
       "[_G0 - f(_G0,_G1)] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G2,_G2) - true,r(_G3,_G4) - (f(_G3,_G5),f(_G5,_G4)),r(1,_G6) - true,r(_G7,_G7) - (\\+ f(_G7,_G8),_G7 = g(_G9,_G9)),t(_G10) - true,n(g(_G11,h(_G12)),[_G11|_G12]) - true]"},
      {"findall(x, retract(u(_)), R), " + listing + ", L = R/S", "[] / [f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
  });
}

TEST(ClauseAccess, RetractAll) {
  std::string listing = kListing;
  ExpectClauseCases({
      {"retractall(f(1, _)), " + listing + ", L = S", "[f(2,b) - true,r(_G0,_G1) - (f(_G0,_G2),f(_G2,_G1)),r(1,_G3) - true,r(_G4,_G4) - (\\+ f(_G4,_G5),_G4 = g(_G6,_G6)),t(_G7) - true,n(g(_G8,h(_G9)),[_G8|_G9]) - true,n(g(a,_G10),_G10) - f(_G10,_G11)]"},
      {"retractall(f(_, b)), " + listing + ", L = S", "[f(1,a) - true,f(1,c) - true,r(_G0,_G1) - (f(_G0,_G2),f(_G2,_G1)),r(1,_G3) - true,r(_G4,_G4) - (\\+ f(_G4,_G5),_G4 = g(_G6,_G6)),t(_G7) - true,n(g(_G8,h(_G9)),[_G8|_G9]) - true,n(g(a,_G10),_G10) - f(_G10,_G11)]"},
      {"retractall(r(_, _)), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,t(_G1) - true,n(g(_G2,h(_G3)),[_G2|_G3]) - true,n(g(a,_G4),_G4) - f(_G4,_G5)]"},
      {"retractall(r(2, _)), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(1,_G1) - true,t(_G2) - true,n(g(_G3,h(_G4)),[_G3|_G4]) - true,n(g(a,_G5),_G5) - f(_G5,_G6)]"},
      {"retractall(t(_)), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),n(g(_G8,h(_G9)),[_G8|_G9]) - true,n(g(a,_G10),_G10) - f(_G10,_G11)]"},
      {"retractall(n(g(b, _), _)), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(a,_G9),_G9) - f(_G9,_G10)]"},
      {"retractall(n(_, [a|_])), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true]"},
      {"retractall(u(_)), " + listing + ", L = S", "[f(1,a) - true,f(2,b) - true,f(1,c) - true,f(_G0,_G0) - true,r(_G1,_G2) - (f(_G1,_G3),f(_G3,_G2)),r(1,_G4) - true,r(_G5,_G5) - (\\+ f(_G5,_G6),_G5 = g(_G7,_G7)),t(_G8) - true,n(g(_G9,h(_G10)),[_G9|_G10]) - true,n(g(a,_G11),_G11) - f(_G11,_G12)]"},
  });
}

TEST(UserOperators, OpDirectiveChangesParsing) {
  Engine engine;
  Status s = engine.ConsultString(
      ":- op(700, xfx, likes).\n"
      ":- op(650, xfy, and).\n"
      "fact(mary likes wine and cheese).\n"
      "query(X, Y) :- fact(X likes Y).\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto answers = engine.FindAll("query(Who, What)");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0]["Who"], "mary");
  EXPECT_EQ(answers.value()[0]["What"], "wine and cheese");
}

TEST(UserOperators, BadOpDirectivesRejected) {
  Engine e1, e2;
  EXPECT_FALSE(e1.ConsultString(":- op(9999, xfx, foo).\n").ok());
  EXPECT_FALSE(e2.ConsultString(":- op(700, zfz, foo).\n").ok());
}

}  // namespace
}  // namespace xsb
