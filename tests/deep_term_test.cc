// Terms nested far deeper than the C++ stack could recurse: the walks that
// move terms between the heap and table space (the heap-to-token encoder,
// the token-to-heap unifier and builder, clause head unification, and token
// expansion) keep their work on explicit stacks. Each query ends in `fail`,
// so no answer is rendered (the writer still recurses).

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

TEST_F(DeepTerms, RecursiveChainIntoAndOutOfATable) {
  ExpectFails("deep_answer(_), fail");
  ExpectFails("deep(200000, T), with_call(T), fail");
}

}  // namespace
}  // namespace xsb
