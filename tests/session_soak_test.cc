// Per-query memory stays flat: every query a Session runs gives back its
// heap and its goal arena when it ends.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "server/query_service.h"
#include "soak_workload.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

TEST(SessionSoak, EngineHeapArenaAndSourcesStayFlat) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(soak::ProgramText()).ok());
  const size_t heap = engine.store().HeapMark();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_NO_FATAL_FAILURE(soak::RunCold(&engine, i));
    ASSERT_EQ(engine.store().HeapMark(), heap) << "after query " << i;
    ASSERT_EQ(engine.machine().arena_size(), 0u) << "after query " << i;
    ASSERT_EQ(engine.evaluator().tables().num_retired_answers(), 0u);
  }
}

TEST(SessionSoak, NestedForEachInsideAnswerCallback) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(soak::ProgramText()).ok());
  const size_t heap = engine.store().HeapMark();
  // The outer query enumerates through a clause/2 choice point and goal
  // nodes that the inner queries must leave alone.
  std::vector<std::string> outer;
  Status status = engine.ForEach(
      "clause(edge(X, Y), true), X < 5", [&](const Answer& answer) {
        outer.push_back(answer["X"]);
        Result<size_t> inner = engine.Count("path(" + answer["X"] + ", Z)");
        EXPECT_TRUE(inner.ok());
        EXPECT_EQ(inner.value(),
                  static_cast<size_t>(soak::kChain - std::stoi(answer["X"])));
        EXPECT_GT(engine.machine().arena_size(), 0u);
        return true;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(outer, (std::vector<std::string>{"0", "1", "2", "3", "4"}));
  EXPECT_EQ(engine.store().HeapMark(), heap);
  EXPECT_EQ(engine.machine().arena_size(), 0u);
}

TEST(SessionSoak, ServiceSessionsStayFlatAcrossUpdates) {
  QueryService service({.num_workers = 2});
  ASSERT_TRUE(service.Consult(soak::ProgramText()).ok());
  std::vector<Session*> sessions = {&service.control_session()};
  for (int w = 0; w < service.num_workers(); ++w) {
    sessions.push_back(&service.worker_session(w));
  }
  std::vector<size_t> heaps;
  for (Session* session : sessions) {
    heaps.push_back(session->store().HeapMark());
  }

  constexpr int kRound = 50;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::future<Result<std::vector<Answer>>>> futures;
    for (int i = 0; i < kRound; ++i) {
      futures.push_back(
          service.Submit(soak::MakeQuery(round * kRound + i).goal));
    }
    for (int i = 0; i < kRound; ++i) {
      soak::Query query = soak::MakeQuery(round * kRound + i);
      Result<std::vector<Answer>> answers = futures[i].get();
      if (query.answers < 0) {
        EXPECT_FALSE(answers.ok()) << query.goal;
      } else {
        ASSERT_TRUE(answers.ok()) << query.goal;
        EXPECT_EQ(answers.value().size(), static_cast<size_t>(query.answers))
            << query.goal;
      }
    }
    // Net no-op on the program, but it invalidates every path/2 table, so
    // the next round re-evaluates and retires the old answer tables. Once
    // Update returns the pool is idle and the sessions can be inspected.
    ASSERT_TRUE(
        service.Update("retract(edge(19, 20)), assertz(edge(19, 20))").ok());
    for (size_t s = 0; s < sessions.size(); ++s) {
      ASSERT_EQ(sessions[s]->store().HeapMark(), heaps[s])
          << "session " << s << ", round " << round;
      ASSERT_EQ(sessions[s]->machine().arena_size(), 0u) << "session " << s;
    }
  }
  EXPECT_EQ(service.tables().num_retired_answers(), 0u);
}

}  // namespace
}  // namespace xsb
