// Terms nested far deeper than the C++ stack could recurse: the walks that
// move terms between the heap and table space (the heap-to-token encoder,
// the token-to-heap unifier and builder, clause head unification, and token
// expansion), copy_term/2 and the standard order of terms keep their work on
// explicit stacks. Each query ends in `fail`, so no answer is rendered (the
// writer still recurses).

#include <gtest/gtest.h>

#include "xsb/engine.h"

namespace xsb {
namespace {

constexpr char kProgram[] =
    ":- table with_answer/1.\n"
    ":- table with_call/1.\n"
    // A list one million cells long: a term 10^6 deep along its tail.
    "long(L) :- findall(0, between(1, 1000000, _), L).\n"
    "with_answer(L) :- long(L).\n"
    "with_call(_).\n"
    // The s/1 chain built by plain recursion, 200 000 deep.
    "deep(0, z).\n"
    "deep(N, s(T)) :- N > 0, M is N - 1, deep(M, T).\n"
    ":- table deep_answer/1.\n"
    "deep_answer(T) :- deep(200000, T).\n";

class DeepTerms : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(engine_.ConsultString(kProgram).ok()); }

  // Runs `goal`, which must fail without an error.
  void ExpectFails(const char* goal) {
    Result<bool> held = engine_.Holds(goal);
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    EXPECT_FALSE(held.value());
  }

  Engine engine_;
};

TEST_F(DeepTerms, TabledAnswerAMillionDeep) {
  // Inserted into the answer trie, then returned to the caller.
  ExpectFails("with_answer(_), fail");
  // Returned again from the completed table, against a bound argument.
  ExpectFails("long(L), with_answer(L), fail");
}

TEST_F(DeepTerms, TabledCallAMillionDeep) {
  // The call trie encodes the call; its template is decoded, rebuilt and
  // unified with the clause head, and the answer unified back.
  ExpectFails("long(L), with_call(L), fail");
}

TEST_F(DeepTerms, CopyTermAMillionDeep) {
  ExpectFails("long(L), copy_term(L, L2), fail");
  // The copy is a fresh term equal to the original, variables renamed.
  ExpectFails(
      "findall(f(_), between(1, 1000000, _), L), copy_term(L, L2), "
      "L2 = [f(A)|_], var(A), L \\== L2, length(L2, 1000000), fail");
}

TEST_F(DeepTerms, CompareAMillionDeep) {
  // Equal lists compare to the very end; the standard-order builtins share
  // the walk.
  ExpectFails("long(L), long(M), compare(O, L, M), O == (=), fail");
  ExpectFails("long(L), long(M), L @< M");
  ExpectFails("long(L), msort([L, L], S), fail");
  // A difference at the last element decides.
  ExpectFails(
      "long(L), findall(X, (between(1, 1000000, I), X is I // 1000000), "
      "M), compare(O, L, M), O == (<), fail");
}

TEST_F(DeepTerms, RecursiveChainIntoAndOutOfATable) {
  ExpectFails("deep_answer(_), fail");
  ExpectFails("deep(200000, T), with_call(T), fail");
}

}  // namespace
}  // namespace xsb
