// The query mix of the session soak tests. It touches every kind of memory
// a query allocates: tabled left recursion (goal arena, consumer
// resumption), tabled negation (nested batches), clause/2 (a clause choice
// point) and malformed goals (parse errors after a partial read).
#ifndef XSB_TESTS_SOAK_WORKLOAD_H_
#define XSB_TESTS_SOAK_WORKLOAD_H_

#include <gtest/gtest.h>

#include <string>

#include "xsb/engine.h"

namespace xsb::soak {

inline constexpr int kChain = 20;  // edge(0,1) ... edge(19,20)
inline constexpr int kMoves = 12;  // move(0,1) ... move(11,12)

inline std::string ProgramText() {
  std::string text =
      ":- table path/2.\n"
      ":- incremental(edge/2).\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      ":- table win/1.\n"
      "win(X) :- move(X,Y), tnot win(Y).\n";
  for (int i = 0; i < kChain; ++i) {
    text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  for (int i = 0; i < kMoves; ++i) {
    text += "move(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
  }
  return text;
}

struct Query {
  std::string goal;
  int answers;  // expected answer count; -1 = the goal does not parse
};

// Query `i` of the mix; every 25th one is malformed.
inline Query MakeQuery(int i) {
  if (i % 25 == 24) return {"path(" + std::to_string(i % kChain) + ", ", -1};
  int k = i % kChain;
  switch (i % 3) {
    case 0:
      return {"path(" + std::to_string(k) + ", X)", kChain - k};
    case 1: {
      // On a move chain, a node wins iff an odd number of moves remain.
      int m = i % kMoves;
      return {"win(" + std::to_string(m) + ")", (kMoves - m) % 2};
    }
    default:
      return {"clause(edge(" + std::to_string(k) + ", Y), B)", 1};
  }
}

// Abolishes all tables, then runs query `i` cold and checks its answers.
inline void RunCold(Engine* engine, int i) {
  Query query = MakeQuery(i);
  engine->AbolishAllTables();
  Result<size_t> count = engine->Count(query.goal);
  ASSERT_EQ(count.ok(), query.answers >= 0) << query.goal;
  if (count.ok()) {
    ASSERT_EQ(count.value(), static_cast<size_t>(query.answers)) << query.goal;
  }
}

}  // namespace xsb::soak

#endif  // XSB_TESTS_SOAK_WORKLOAD_H_
