// End-to-end scenarios combining subsystems the way a deductive-database
// application would: tabled recursion over bulk-loaded indexed data,
// updates invalidating tables, HiLog + tabling + negation in one program,
// and save/reload round trips through object files.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "xsb/engine.h"

namespace xsb {
namespace {

TEST(Integration, BulkLoadIndexTableQuery) {
  // A flight network: bulk-load legs, index by origin and by (origin,dest),
  // then answer tabled reachability queries.
  std::string path = ::testing::TempDir() + "/xsb_flights.dat";
  {
    std::ofstream out(path);
    // A cycle through 200 airports plus some shortcuts.
    for (int i = 0; i < 200; ++i) {
      out << "a" << i << ",a" << (i + 1) % 200 << ",1\n";
      if (i % 10 == 0) out << "a" << i << ",a" << (i + 50) % 200 << ",2\n";
    }
  }
  Engine engine;
  auto loaded = engine.LoadFactsFormattedFile(path, "leg", 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 220u);
  ASSERT_TRUE(engine
                  .ConsultString(":- index(leg/3, [1, 1+2]).\n"
                                 ":- table reach/2.\n"
                                 "reach(X, Y) :- leg(X, Y, _).\n"
                                 "reach(X, Y) :- reach(X, Z), leg(Z, Y, _).\n")
                  .ok());
  // Every airport reaches every airport on the cycle.
  EXPECT_EQ(engine.Count("reach(a0, X)").value(), 200u);
  EXPECT_TRUE(engine.Holds("reach(a199, a0)").value());
  EXPECT_EQ(engine.Count("leg(a0, X, _)").value(), 2u);
  std::remove(path.c_str());
}

TEST(Integration, UpdatesAndTableInvalidation) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- dynamic(edge/2).\n"
                                 ":- table reach/2.\n"
                                 "edge(1, 2).\n"
                                 "reach(X, Y) :- edge(X, Y).\n"
                                 "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n")
                  .ok());
  EXPECT_EQ(engine.Count("reach(1, X)").value(), 1u);
  // Completed tables do not observe later updates until abolished — the
  // engine's documented semantics (tables are materialized views).
  ASSERT_TRUE(engine.Holds("assert(edge(2, 3))").value());
  EXPECT_EQ(engine.Count("reach(1, X)").value(), 1u);
  engine.AbolishAllTables();
  EXPECT_EQ(engine.Count("reach(1, X)").value(), 2u);
  // Retraction follows the same discipline.
  ASSERT_TRUE(engine.Holds("retract(edge(1, 2))").value());
  engine.AbolishAllTables();
  EXPECT_EQ(engine.Count("reach(1, X)").value(), 0u);
}

TEST(Integration, HiLogTablingAndNegationTogether) {
  // Parameterized reachability plus negation: nodes of graph g1 that are
  // not reachable from the start under the parameterized closure.
  Engine engine;
  ASSERT_TRUE(
      engine
          .ConsultString(
              ":- table apply/3. :- table unreachable/1.\n"
              "g1(s, a). g1(a, b). g1(c, d).\n"
              "node(s). node(a). node(b). node(c). node(d).\n"
              "closure(G)(X, Y) :- G(X, Y).\n"
              "closure(G)(X, Y) :- closure(G)(X, Z), G(Z, Y).\n"
              "reached(X) :- closure(g1)(s, X).\n"
              ":- table reached/1.\n"
              "unreachable(X) :- node(X), tnot reached(X).\n")
          .ok());
  auto rows = engine.FindAll("unreachable(X)");
  ASSERT_TRUE(rows.ok());
  std::ostringstream got;
  for (const Answer& answer : rows.value()) got << answer["X"] << " ";
  EXPECT_EQ(got.str(), "s c d ");  // s is not reached *from* s; c,d isolated
}

TEST(Integration, ObjectFileRoundTripPreservesBehavior) {
  std::string path = ::testing::TempDir() + "/xsb_integration.xob";
  {
    Engine engine;
    ASSERT_TRUE(engine
                    .ConsultString(":- table win/1.\n"
                                   "win(X) :- move(X,Y), tnot win(Y).\n"
                                   "move(1,2). move(2,3). move(3,4).\n")
                    .ok());
    ASSERT_TRUE(engine.SaveObjectFile(path).ok());
  }
  Engine restored;
  ASSERT_TRUE(restored.LoadObjectFile(path).ok());
  EXPECT_TRUE(restored.Holds("win(1)").value());
  EXPECT_FALSE(restored.Holds("win(2)").value());
  EXPECT_TRUE(restored.Holds("win(3)").value());
  std::remove(path.c_str());
}

TEST(Integration, FindallOverTabledPredicates) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table path/2.\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                                 "edge(1,2). edge(2,3). edge(3,1).\n")
                  .ok());
  // findall over a tabled goal from a non-tabled context: the table
  // completes before answers escape (local scheduling), so the list is
  // complete; tfindall agrees.
  EXPECT_TRUE(engine
                  .Holds("findall(Y, path(1,Y), L1), sort(L1, S), "
                         "tfindall(Y, path(1,Y), L2), sort(L2, S)")
                  .value());
  EXPECT_TRUE(engine.Holds("setof(Y, path(1,Y), [1,2,3])").value());
}

TEST(Integration, ModuleScopedTableAll) {
  // table_all in one consult unit must not table predicates of another.
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(":- table_all.\n"
                                 "tc(X,Y) :- e(X,Y).\n"
                                 "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
                                 "e(1,2). e(2,1).\n")
                  .ok());
  ASSERT_TRUE(engine
                  .ConsultString("plain(X) :- e(1, X).\n")
                  .ok());
  Predicate* tc = engine.program().Lookup(
      engine.symbols().InternFunctor(engine.symbols().InternAtom("tc"), 2));
  Predicate* plain = engine.program().Lookup(
      engine.symbols().InternFunctor(engine.symbols().InternAtom("plain"),
                                     1));
  ASSERT_NE(tc, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(tc->tabled());
  EXPECT_FALSE(plain->tabled());
  EXPECT_EQ(engine.Count("tc(1, X)").value(), 2u);  // cycle terminates
}

TEST(Integration, TableAllOverLargeCycle) {
  // p0(X) :- p1(X). ... p199999(X) :- p0(X), plus p0(1): one component of
  // 200 000 predicates, every one of which :- table_all. must table.
  constexpr int kPreds = 200000;
  std::string text = ":- table_all.\np0(1).\n";
  for (int i = 0; i < kPreds; ++i) {
    text += "p" + std::to_string(i) + "(X) :- p" +
            std::to_string((i + 1) % kPreds) + "(X).\n";
  }
  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text).ok());
  for (int i = 0; i < kPreds; ++i) {
    Predicate* pred = engine.program().Lookup(engine.symbols().InternFunctor(
        engine.symbols().InternAtom("p" + std::to_string(i)), 1));
    ASSERT_NE(pred, nullptr);
    ASSERT_TRUE(pred->tabled()) << "p" << i;
  }
  Result<std::vector<Answer>> answers = engine.FindAll("p5(X)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0]["X"], "1");
}

}  // namespace
}  // namespace xsb
