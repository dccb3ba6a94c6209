// Steady-state operations of the query path that must not touch the global
// allocator: a duplicate answer insert, a factored answer return, and a
// first-argument-indexed fact call; the call template of a new subgoal,
// which must cost exactly one allocation; and, through the public API, a
// cold query and a query on a completed table, neither of which may
// allocate per answer. This binary replaces the global operator new to count
// calls, so it is kept apart from the other suites. Sanitizer runtimes own
// the allocator, so there the tests skip.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "db/program.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "tabling/table_space.h"
#include "term/flat.h"
#include "term/intern.h"
#include "term/store.h"
#include "xsb/engine.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XSB_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XSB_ALLOC_SANITIZED 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#ifndef XSB_ALLOC_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, n == 0 ? 1 : n) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace xsb {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

class ZeroAllocation : public ::testing::Test {
 protected:
  ZeroAllocation() : store_(&symbols_), program_(&symbols_) {}

  void SetUp() override {
#ifdef XSB_ALLOC_SANITIZED
    GTEST_SKIP() << "sanitizer runtimes replace the global allocator";
#endif
  }

  Word Parse(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, program_.ops(), text);
    EXPECT_TRUE(r.ok()) << text;
    return r.value();
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
};

TEST_F(ZeroAllocation, DuplicateAnswerInsert) {
  InternTable interns(&symbols_);
  AnswerTable table(&interns, Flatten(store_, Parse("p(a, X, Y)")));
  // Bindings with a ground compound (one interned token), an open compound
  // and a variable.
  Word answer = Parse("p(a, f(g(1, [b, c])), h(Z, 2))");
  ASSERT_EQ(table.Insert(store_, answer, nullptr), AnswerInsert::kNew);
  ASSERT_EQ(table.Insert(store_, answer, nullptr), AnswerInsert::kDuplicate);
  uint64_t before = Allocations();
  AnswerInsert again = table.Insert(store_, answer, nullptr);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(again, AnswerInsert::kDuplicate);
}

TEST_F(ZeroAllocation, FactoredAnswerReturn) {
  InternTable interns(&symbols_);
  AnswerTable table(&interns, Flatten(store_, Parse("p(a, X, Y)")));
  for (int i = 0; i < 40; ++i) {
    std::string n = std::to_string(i);
    Word answer = Parse("p(a, f(g(" + n + ", [b, c])), h(Z, " + n + "))");
    ASSERT_EQ(table.Insert(store_, answer, nullptr), AnswerInsert::kNew);
  }
  Machine machine(&store_, &program_);
  Word goal = Parse("p(a, A, B)");
  int delivered = 0;
  std::function<bool()> deliver = [&delivered]() {
    ++delivered;
    return true;
  };
  // Each run returns all 40 answers through the factored answer choice
  // point; the first one warms the machine's and the walks' scratch.
  for (int run = 0; run < 2; ++run) {
    size_t trail = store_.TrailMark();
    size_t heap = store_.HeapMark();
    size_t cursor = 0;
    uint64_t before = Allocations();
    ASSERT_TRUE(
        machine.RunAnswers(goal, &table, &cursor, nullptr, deliver).ok());
    uint64_t allocated = Allocations() - before;
    EXPECT_EQ(cursor, 40u);
    if (run == 1) EXPECT_EQ(allocated, 0u);
    store_.UndoTrail(trail);
    store_.TruncateHeap(heap);
  }
  EXPECT_EQ(delivered, 80);
  EXPECT_EQ(machine.stats().factored_answer_returns, 80u);
}

TEST_F(ZeroAllocation, FirstArgumentIndexedFactCall) {
  for (int i = 0; i < 50; ++i) {
    std::string n = std::to_string(i);
    std::string fact = "e(" + n + ", f(" + n + ", x), [a, b])";
    ASSERT_TRUE(program_.AddClauseTerm(store_, Parse(fact)).ok());
  }
  Machine machine(&store_, &program_);
  Word goal = Parse("e(17, F, L)");
  int solutions = 0;
  SolutionFn count = [&solutions]() {
    ++solutions;
    return SolveAction::kContinue;
  };
  for (int run = 0; run < 2; ++run) {
    size_t trail = store_.TrailMark();
    size_t heap = store_.HeapMark();
    machine.ResetArena();
    uint64_t before = Allocations();
    ASSERT_TRUE(machine.Solve(goal, count).ok());
    uint64_t allocated = Allocations() - before;
    if (run == 1) EXPECT_EQ(allocated, 0u);
    store_.UndoTrail(trail);
    store_.TruncateHeap(heap);
  }
  EXPECT_EQ(solutions, 2);
  EXPECT_EQ(machine.stats().head_unifications, 2u);
}

// A new subgoal's call template is decoded from its call-trie tokens into a
// FlatTerm of exactly its size: one allocation, however long the call.
TEST_F(ZeroAllocation, CallTemplateDecodeAllocatesOnce) {
  InternTable interns(&symbols_);
  TokenScratch scratch;
  // Open compounds do not intern, so the template expands to many cells.
  Word call = Parse("p(f(X, g(Y, [a, b, c, d, e, f, g, h])), X, h(Z, Y, 3))");
  interns.EncodeHeap(store_, call, &scratch, nullptr);
  FlatTerm warm = interns.Decode(scratch.tokens);
  ASSERT_GT(warm.size(), 20u);
  uint64_t before = Allocations();
  FlatTerm decoded = interns.Decode(scratch.tokens);
  EXPECT_EQ(Allocations() - before, 1u);
  EXPECT_EQ(decoded.cells.capacity(), decoded.cells.size());
  EXPECT_EQ(decoded.cells, Flatten(store_, call).cells);
  EXPECT_EQ(decoded.num_vars, 3u);
}

// One Engine over two disjoint cycles of a left-recursive closure: nodes
// 1000..1199 and 2000..2799, so lpath(1000, Y) has 200 answers and
// lpath(2000, Y) has 800 (goal texts of one length parse alike).
class PerAnswerAllocation : public ZeroAllocation {
 protected:
  void SetUp() override {
    ZeroAllocation::SetUp();
    if (IsSkipped()) return;
    std::string program =
        ":- table lpath/2.\n"
        "lpath(X,Y) :- lpath(X,Z), cedge(Z,Y).\n"
        "lpath(X,Y) :- cedge(X,Y).\n";
    for (auto [first, n] : {std::pair{1000, 200}, std::pair{2000, 800}}) {
      for (int i = 0; i < n; ++i) {
        program += "cedge(" + std::to_string(first + i) + "," +
                   std::to_string(first + (i + 1) % n) + ").\n";
      }
    }
    ASSERT_TRUE(engine_.ConsultString(program).ok());
  }

  // Allocations of one run of `goal`, which must return `answers` answers;
  // `cold` abolishes the tables first (outside the count).
  uint64_t QueryAllocations(const std::string& goal, size_t answers,
                            bool cold) {
    if (cold) engine_.AbolishAllTables();
    size_t count = 0;
    uint64_t before = Allocations();
    Status status = engine_.ForEach(goal, [&count](const Answer&) {
      ++count;
      return true;
    });
    uint64_t allocated = Allocations() - before;
    EXPECT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(count, answers) << goal;
    return allocated;
  }

  Engine engine_;
};

// A cold query allocates per subgoal (its call template, its answer trie's
// blocks and maps), never per answer: 4x the answers costs only the
// logarithmic growth of the one table's storage.
TEST_F(PerAnswerAllocation, ColdQueryAllocatesNothingPerAnswer) {
  for (int warm = 0; warm < 2; ++warm) {
    QueryAllocations("lpath(1000, Y)", 200, /*cold=*/true);
    QueryAllocations("lpath(2000, Y)", 800, /*cold=*/true);
  }
  uint64_t small = QueryAllocations("lpath(1000, Y)", 200, /*cold=*/true);
  uint64_t large = QueryAllocations("lpath(2000, Y)", 800, /*cold=*/true);
  EXPECT_LE(large, small + 32) << small << " vs " << large;
}

// Answers read from a completed table allocate nothing at all.
TEST_F(PerAnswerAllocation, CompletedTableAllocatesNothingPerAnswer) {
  for (int warm = 0; warm < 2; ++warm) {
    QueryAllocations("lpath(1000, Y)", 200, /*cold=*/false);
    QueryAllocations("lpath(2000, Y)", 800, /*cold=*/false);
  }
  uint64_t small = QueryAllocations("lpath(1000, Y)", 200, /*cold=*/false);
  uint64_t large = QueryAllocations("lpath(2000, Y)", 800, /*cold=*/false);
  EXPECT_EQ(large, small);
}

}  // namespace
}  // namespace xsb
