// Property sweep for first-argument indexing (ISSUE 10): seeded random
// predicates whose clauses mix constant, integer, structure, list, and
// variable first-argument keys are compiled twice — with the two-level
// switch_on_term/switch_on_constant/switch_on_structure dispatch, and with
// CompileOptions::index off (pure try_me_else chains) — and run on the
// emulator. Both configurations must produce identical answers in identical
// (source clause) order: indexing may delete choice points and skip
// non-matching clauses, never change or reorder the answer relation.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "db/loader.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "wam/compile.h"
#include "wam/emulator.h"

namespace xsb::wam {
namespace {

struct RandomProgram {
  std::string text;
  std::vector<std::string> queries;
};

// A predicate p/2 with 4..13 clauses. First-argument keys are drawn from a
// pool that deliberately collides (bucket chains with >1 clause) and mixes
// key kinds (shared switch_on_term with both tables live). Variable-keyed
// clauses appear with low probability: one is enough to make the whole
// predicate unswitchable, so most seeds index and some degrade — both sides
// of the equivalence get coverage. Every clause grounds its arguments, so
// answers render identically regardless of heap layout.
RandomProgram MakeProgram(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  const char* atoms[] = {"a", "b", "c", "quux"};
  const char* functors[] = {"f", "g", "wrap"};

  RandomProgram out;
  int num_clauses = 4 + pick(10);
  std::vector<std::string> keys;
  for (int i = 0; i < num_clauses; ++i) {
    int kind = pick(12);
    std::string key;
    bool var_key = false;
    if (kind < 3) {
      key = atoms[pick(4)];
    } else if (kind < 5) {
      key = std::to_string(pick(4));
    } else if (kind < 8) {
      key = std::string(functors[pick(3)]) + "(" + std::to_string(pick(4)) +
            ")";
    } else if (kind < 9) {
      key = "g(" + std::string(atoms[pick(4)]) + ", " +
            std::to_string(pick(4)) + ")";
    } else if (kind < 10) {
      key = "[]";
    } else if (kind < 11) {
      key = "[" + std::to_string(pick(4)) + "]";
    } else {
      var_key = true;
    }
    if (var_key) {
      // Variable-keyed clause: defeats the switch, but still grounds the
      // answer so both configurations render the same bindings.
      out.text += "p(X, " + std::to_string(i) + ") :- X = " +
                  atoms[pick(4)] + ".\n";
      keys.push_back(atoms[pick(4)]);
    } else {
      out.text += "p(" + key + ", " + std::to_string(i) + ").\n";
      keys.push_back(key);
    }
  }
  // Indexed dispatch from compiled clause bodies, not just top-level goals.
  out.text += "drive(K, V) :- p(K, V).\n";
  out.text += "probe(V) :- p(" + keys[static_cast<size_t>(pick(num_clauses))] +
              ", V).\n";

  // Query mix: keys that exist (single- and multi-clause buckets), keys of
  // every kind that miss, and an open call that must walk the clauses in
  // source order on both the var arm and the linear chain.
  for (int q = 0; q < 3; ++q) {
    out.queries.push_back(
        "p(" + keys[static_cast<size_t>(pick(num_clauses))] + ", V)");
  }
  out.queries.push_back("p(nosuch, V)");
  out.queries.push_back("p(nosuch(9), V)");
  out.queries.push_back("p([8,8,8], V)");
  out.queries.push_back("p(77, V)");
  out.queries.push_back("p([], V)");
  out.queries.push_back("p(Q, V)");
  out.queries.push_back("drive(f(1), V)");
  out.queries.push_back("probe(V)");
  return out;
}

// All rendered solutions of `queries`, in derivation order, on one module
// configuration. Compilation and solving must succeed.
std::vector<std::string> RunConfig(const RandomProgram& rp, bool index) {
  SymbolTable symbols;
  TermStore store(&symbols);
  Program prog(&symbols);
  Loader loader(&store, &prog);
  Status s = loader.ConsultString(rp.text);
  EXPECT_TRUE(s.ok()) << s.ToString();
  CompileOptions options;
  options.index = index;
  Result<CompiledModule> compiled = CompileModule(&store, prog, {}, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<std::string> out;
  if (!compiled.ok()) return out;
  Emulator emulator(&store, &compiled.value());
  for (const std::string& goal : rp.queries) {
    Result<Word> g = ParseTermString(&store, prog.ops(), goal);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    if (!g.ok()) continue;
    size_t trail = store.TrailMark();
    Status st = emulator.Solve(g.value(), [&] {
      out.push_back(goal + " -> " + WriteTerm(store, *prog.ops(), g.value()));
      return WamAction::kContinue;
    });
    store.UndoTrail(trail);
    EXPECT_TRUE(st.ok()) << goal << ": " << st.ToString();
  }
  return out;
}

class WamIndexDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WamIndexDifferentialTest, SwitchAndChainAgree) {
  RandomProgram rp = MakeProgram(GetParam());
  std::vector<std::string> chain = RunConfig(rp, /*index=*/false);
  std::vector<std::string> indexed = RunConfig(rp, /*index=*/true);
  EXPECT_EQ(chain, indexed) << "indexing changed answers\n" << rp.text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WamIndexDifferentialTest,
                         ::testing::Range(0u, 51u));

}  // namespace
}  // namespace xsb::wam
