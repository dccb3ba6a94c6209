// Parameterized cross-engine property sweeps: the same query evaluated by
// several independent implementations in this repository must agree.
//   * tabled SLG (left recursion) == tabled SLG (right recursion)
//     == bottom-up semi-naive == bottom-up + magic, over graph families;
//   * tnot == e_tnot == the well-founded model, over game trees;
//   * SLD interpreter == WAM bytecode, over list workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bottomup/magic.h"
#include "bottomup/seminaive.h"
#include "db/loader.h"
#include "parser/reader.h"
#include "tabling/table_space.h"
#include "term/intern.h"
#include "wam/compile.h"
#include "wam/emulator.h"
#include "wfs/wfs.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

// --- Graph family sweep -------------------------------------------------------

struct GraphCase {
  const char* shape;
  int size;
};

std::string GraphEdges(const GraphCase& g) {
  std::string text;
  int n = g.size;
  std::string shape = g.shape;
  if (shape == "chain") {
    for (int i = 1; i < n; ++i) {
      text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
              ").\n";
    }
  } else if (shape == "cycle") {
    for (int i = 1; i <= n; ++i) {
      text += "edge(" + std::to_string(i) + "," +
              std::to_string(i % n + 1) + ").\n";
    }
  } else if (shape == "fanout") {
    for (int i = 1; i <= n; ++i) {
      text += "edge(1," + std::to_string(i) + ").\n";
    }
  } else if (shape == "dag") {
    for (int i = 1; i < n; ++i) {
      text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) +
              ").\n";
      if (i + 2 <= n) {
        text += "edge(" + std::to_string(i) + "," + std::to_string(i + 2) +
                ").\n";
      }
    }
  } else if (shape == "grid") {
    int side = n;
    for (int r = 0; r < side; ++r) {
      for (int c = 0; c < side; ++c) {
        int id = r * side + c + 1;
        if (c + 1 < side) {
          text += "edge(" + std::to_string(id) + "," +
                  std::to_string(id + 1) + ").\n";
        }
        if (r + 1 < side) {
          text += "edge(" + std::to_string(id) + "," +
                  std::to_string(id + side) + ").\n";
        }
      }
    }
  }
  return text;
}

class ReachabilityAgreement
    : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ReachabilityAgreement, AllEnginesAgreeOnPathCounts) {
  std::string edges = GraphEdges(GetParam());

  // Tabled, left recursion.
  Engine left;
  ASSERT_TRUE(left.ConsultString(
                      ":- table path/2.\n"
                      "path(X,Y) :- edge(X,Y).\n"
                      "path(X,Y) :- path(X,Z), edge(Z,Y).\n" + edges)
                  .ok());
  size_t left_bound = left.Count("path(1, X)").value();
  size_t left_all = left.Count("path(X, Y)").value();

  // Tabled, right recursion.
  Engine right;
  ASSERT_TRUE(right.ConsultString(
                       ":- table path/2.\n"
                       "path(X,Y) :- edge(X,Y).\n"
                       "path(X,Y) :- edge(X,Z), path(Z,Y).\n" + edges)
                  .ok());
  EXPECT_EQ(right.Count("path(1, X)").value(), left_bound);
  EXPECT_EQ(right.Count("path(X, Y)").value(), left_all);

  // Bottom-up semi-naive, full evaluation.
  {
    datalog::DatalogProgram program;
    ASSERT_TRUE(datalog::ParseDatalog(
                    "path(X,Y) :- edge(X,Y).\n"
                    "path(X,Y) :- path(X,Z), edge(Z,Y).\n" + edges,
                    &program)
                    .ok());
    datalog::Evaluation eval(&program);
    ASSERT_TRUE(eval.Run().ok());
    auto query = datalog::ParseQuery("path(1, X)", &program);
    EXPECT_EQ(eval.Select(query.value()).size(), left_bound);
    EXPECT_EQ(eval.relation(program.InternPred("path", 2)).size(), left_all);
  }

  // Bottom-up + magic sets, goal-directed.
  {
    datalog::DatalogProgram program;
    ASSERT_TRUE(datalog::ParseDatalog(
                    "path(X,Y) :- edge(X,Y).\n"
                    "path(X,Y) :- path(X,Z), edge(Z,Y).\n" + edges,
                    &program)
                    .ok());
    auto query = datalog::ParseQuery("path(1, X)", &program);
    auto adorned = datalog::MagicRewrite(&program, query.value());
    ASSERT_TRUE(adorned.ok());
    datalog::Evaluation eval(&program);
    ASSERT_TRUE(eval.Run().ok());
    EXPECT_EQ(eval.Select(adorned.value()).size(), left_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphShapes, ReachabilityAgreement,
    ::testing::Values(GraphCase{"chain", 6}, GraphCase{"chain", 40},
                      GraphCase{"cycle", 3}, GraphCase{"cycle", 17},
                      GraphCase{"fanout", 25}, GraphCase{"dag", 12},
                      GraphCase{"grid", 4}, GraphCase{"grid", 6}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return std::string(info.param.shape) + "_" +
             std::to_string(info.param.size);
    });

// --- Negation sweep -------------------------------------------------------------

class NegationAgreement : public ::testing::TestWithParam<int> {};

TEST_P(NegationAgreement, TnotETnotAndWfsAgreeOnGameTrees) {
  int height = GetParam();
  std::string moves;
  int internal = (1 << height) - 1;
  for (int i = 1; i <= internal; ++i) {
    moves += "move(" + std::to_string(i) + "," + std::to_string(2 * i) +
             ").\nmove(" + std::to_string(i) + "," +
             std::to_string(2 * i + 1) + ").\n";
  }

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(
                        ":- table win/1. :- table ewin/1.\n"
                        "win(X) :- move(X,Y), tnot win(Y).\n"
                        "ewin(X) :- move(X,Y), e_tnot ewin(Y).\n" + moves)
                  .ok());

  datalog::DatalogProgram program;
  ASSERT_TRUE(datalog::ParseDatalog(
                  "wins(X) :- move(X,Y), not wins(Y).\n" + moves, &program)
                  .ok());
  auto model = wfs::ComputeWellFounded(&program);
  ASSERT_TRUE(model.ok());
  datalog::PredId wins = program.InternPred("wins", 1);

  int total_nodes = (1 << (height + 1)) - 1;
  for (int node = 1; node <= total_nodes; node += 3) {
    std::string n = std::to_string(node);
    bool tnot_wins = engine.Holds("win(" + n + ")").value();
    bool etnot_wins = engine.Holds("ewin(" + n + ")").value();
    wfs::Truth wfs_truth = model.value().TruthOf(
        wins, {program.consts().Int(node)});
    EXPECT_EQ(tnot_wins, etnot_wins) << "node " << node;
    EXPECT_EQ(tnot_wins, wfs_truth == wfs::Truth::kTrue) << "node " << node;
    EXPECT_NE(wfs_truth, wfs::Truth::kUndefined) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeHeights, NegationAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- WAM vs interpreter sweep -----------------------------------------------------

class WamAgreement : public ::testing::TestWithParam<int> {};

TEST_P(WamAgreement, AppendSplitsMatchInterpreter) {
  int n = GetParam();
  SymbolTable symbols;
  TermStore store(&symbols);
  Program program(&symbols);
  Loader loader(&store, &program);
  ASSERT_TRUE(loader
                  .ConsultString("app([], L, L).\n"
                                 "app([H|T], L, [H|R]) :- app(T, L, R).\n")
                  .ok());
  auto module = wam::CompileModule(&store, program, {});
  ASSERT_TRUE(module.ok());
  wam::Emulator emulator(&store, &module.value());
  Machine machine(&store, &program);

  std::string list = "[";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) list += ",";
    list += std::to_string(i);
  }
  list += "]";
  std::string goal_text = "app(X, Y, " + list + ")";

  auto goal1 = ParseTermString(&store, program.ops(), goal_text);
  ASSERT_TRUE(goal1.ok());
  size_t wam_count = 0;
  size_t trail = store.TrailMark();
  ASSERT_TRUE(emulator
                  .Solve(goal1.value(),
                         [&wam_count]() {
                           ++wam_count;
                           return wam::WamAction::kContinue;
                         })
                  .ok());
  store.UndoTrail(trail);

  auto goal2 = ParseTermString(&store, program.ops(), goal_text);
  Result<size_t> interpreted = machine.CountSolutions(goal2.value());
  ASSERT_TRUE(interpreted.ok());
  EXPECT_EQ(wam_count, interpreted.value());
  EXPECT_EQ(wam_count, static_cast<size_t>(n + 1));  // all splits
}

INSTANTIATE_TEST_SUITE_P(ListLengths, WamAgreement,
                         ::testing::Values(0, 1, 2, 5, 10, 25, 60));

// --- Sorting builtins sweep --------------------------------------------------------

class SortAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SortAgreement, SetofEqualsSortedDedupedFindall) {
  int n = GetParam();
  Engine engine;
  std::string facts;
  for (int i = 0; i < n; ++i) {
    facts += "v(" + std::to_string((i * 7) % 5) + ").\n";
  }
  ASSERT_TRUE(engine.ConsultString(facts).ok());
  auto via_setof = engine.FindAll("setof(X, v(X), L)");
  auto via_findall = engine.FindAll("findall(X, v(X), F), sort(F, L)");
  ASSERT_TRUE(via_setof.ok());
  ASSERT_TRUE(via_findall.ok());
  ASSERT_EQ(via_setof.value().size(), 1u);
  ASSERT_EQ(via_findall.value().size(), 1u);
  EXPECT_EQ(via_setof.value()[0]["L"], via_findall.value()[0]["L"]);
  // msort keeps duplicates: its length equals the fact count.
  EXPECT_TRUE(engine
                  .Holds("findall(X, v(X), F), msort(F, M), length(M, " +
                         std::to_string(n) + ")")
                  .value());
}

INSTANTIATE_TEST_SUITE_P(FactCounts, SortAgreement,
                         ::testing::Values(1, 3, 8, 20));

// --- Interning and answer-trie properties ------------------------------------

// Random FlatTerm generator over a fixed small vocabulary; `ground` controls
// whether kLocal variable cells may appear.
class FlatTermGen {
 public:
  FlatTermGen(TermStore* store, uint32_t seed, bool ground)
      : store_(store), rng_(seed), ground_(ground) {}

  FlatTerm Next() {
    vars_.clear();
    size_t trail = store_->TrailMark();
    Word t = Build(2 + static_cast<int>(rng_() % 2));
    FlatTerm flat = Flatten(*store_, t);
    store_->UndoTrail(trail);
    return flat;
  }

 private:
  Word Build(int depth) {
    SymbolTable* symbols = store_->symbols();
    uint32_t choice = rng_() % (depth <= 0 ? (ground_ ? 2 : 3) : 5);
    switch (choice) {
      case 0:
        return AtomCell(symbols->InternAtom(kAtoms[rng_() % 4]));
      case 1:
        return IntCell(static_cast<int64_t>(rng_() % 50));
      case 2:
        if (!ground_) {
          uint32_t slot = rng_() % 3;
          while (vars_.size() <= slot) vars_.push_back(store_->MakeVar());
          return vars_[slot];
        }
        [[fallthrough]];
      default: {
        int arity = 1 + static_cast<int>(rng_() % 3);
        std::vector<Word> args;
        for (int i = 0; i < arity; ++i) args.push_back(Build(depth - 1));
        FunctorId f = symbols->InternFunctor(
            symbols->InternAtom(kAtoms[rng_() % 4]), arity);
        return store_->MakeStruct(f, args);
      }
    }
  }

  static constexpr const char* kAtoms[4] = {"a", "b", "f", "g"};
  TermStore* store_;
  std::mt19937 rng_;
  bool ground_;
  std::vector<Word> vars_;
};

class InternProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InternProperty, InternIsIdempotentAndRoundTrips) {
  SymbolTable symbols;
  TermStore store(&symbols);
  InternTable interns(&symbols);
  FlatTermGen gen(&store, GetParam(), /*ground=*/true);

  for (int round = 0; round < 60; ++round) {
    FlatTerm t = gen.Next();
    Word token1 = interns.Intern(t);
    Word token2 = interns.Intern(t);
    // Hash-consing: the same ground term always maps to the same token, so
    // term equality is token (integer) equality.
    EXPECT_EQ(token1, token2);
    FlatTerm back = interns.Decode({token1});
    EXPECT_EQ(back.cells, t.cells) << "round " << round;
    EXPECT_EQ(back.num_vars, 0u);
  }
}

TEST_P(InternProperty, EncodeDecodeRoundTripsNonGroundTerms) {
  SymbolTable symbols;
  TermStore store(&symbols);
  InternTable interns(&symbols);
  FlatTermGen gen(&store, GetParam() + 1000, /*ground=*/false);

  for (int round = 0; round < 60; ++round) {
    FlatTerm t = gen.Next();
    std::vector<Word> tokens;
    interns.Encode(t.cells, &tokens);
    // Tokens never exceed the original cells, and collapse below them as
    // soon as a ground compound subterm appears.
    EXPECT_LE(tokens.size(), t.cells.size());
    FlatTerm back = interns.Decode(tokens);
    EXPECT_EQ(back.cells, t.cells) << "round " << round;
    EXPECT_EQ(back.num_vars, t.num_vars) << "round " << round;
  }
}

TEST_P(InternProperty, DistinctTermsGetDistinctTokens) {
  SymbolTable symbols;
  TermStore store(&symbols);
  InternTable interns(&symbols);
  FlatTermGen gen(&store, GetParam() + 2000, /*ground=*/true);

  std::set<std::vector<Word>> seen_terms;
  std::set<Word> seen_tokens;
  for (int round = 0; round < 60; ++round) {
    FlatTerm t = gen.Next();
    Word token = interns.Intern(t);
    bool new_term = seen_terms.insert(t.cells).second;
    bool new_token = seen_tokens.insert(token).second;
    EXPECT_EQ(new_term, new_token) << "round " << round;
  }
}

class AnswerTrieProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AnswerTrieProperty, InsertMatchesHashSetOracleAndEnumeratesAll) {
  SymbolTable symbols;
  TermStore store(&symbols);
  InternTable interns(&symbols);

  // A two-variable call template ans(A, B): answers are heap instances
  // ans(T1, T2), of which the trie stores only the {A, B} binding streams.
  FunctorId ans2 = symbols.InternFunctor(symbols.InternAtom("ans"), 2);
  Word call = store.MakeStruct(ans2, {store.MakeVar(), store.MakeVar()});
  AnswerTrie trie(&interns, Flatten(store, call));

  std::unordered_set<FlatTerm, FlatTermHash> oracle;  // full instances
  std::vector<FlatTerm> inserted;  // insertion order, first occurrences

  FlatTermGen ground_gen(&store, GetParam(), /*ground=*/true);
  FlatTermGen open_gen(&store, GetParam() + 500, /*ground=*/false);
  std::mt19937 rng(GetParam());

  for (int round = 0; round < 120; ++round) {
    Word inst;
    if (rng() % 4 == 0 && !inserted.empty()) {
      // Forced duplicate: a fresh-variable variant of an earlier instance
      // must hit the same trie path.
      inst = Unflatten(&store, inserted[rng() % inserted.size()]);
    } else {
      Word t1 = Unflatten(
          &store, (rng() % 2 == 0) ? ground_gen.Next() : open_gen.Next());
      Word t2 = Unflatten(
          &store, (rng() % 2 == 0) ? ground_gen.Next() : open_gen.Next());
      inst = store.MakeStruct(ans2, {t1, t2});
    }
    FlatTerm full = Flatten(store, inst);
    size_t saved = 0;
    bool fresh_trie = trie.Insert(store, inst, &saved);
    bool fresh_oracle = oracle.insert(full).second;
    EXPECT_EQ(fresh_trie, fresh_oracle) << "round " << round;
    if (fresh_oracle) inserted.push_back(full);
    if (fresh_trie) {
      // Factoring accounting: stored bindings + saved cells = full instance.
      FlatTerm bindings;
      trie.ReadBindings(trie.size() - 1, &bindings);
      EXPECT_EQ(bindings.cells.size() + saved, full.cells.size())
          << "round " << round;
    }
  }

  // Enumeration: same count, same order as first insertion, and every
  // reconstructed answer element-wise equal to the canonical full instance.
  ASSERT_EQ(trie.size(), inserted.size());
  FlatTerm out;
  for (size_t i = 0; i < trie.size(); ++i) {
    trie.ReadAnswer(i, &out);
    EXPECT_EQ(out.cells, inserted[i].cells) << "index " << i;
    EXPECT_EQ(out.num_vars, inserted[i].num_vars) << "index " << i;
  }
  EXPECT_GT(trie.node_count(), 0u);
}

// --- Call-trie variant indexing vs. the hash-map oracle -----------------------
//
// The call trie replaced an unordered_map<FlatTerm, SubgoalId> as the variant
// index of table space. This sweep replays random call streams — fresh calls,
// forced variants (fresh-variable copies of earlier calls), interleaved
// Dispose, and never-inserted probes — against both the real TableSpace and
// a reimplementation of the old map. They must agree on every {id, created}
// pair, every probe, and the final subgoal count. Seed range matches the
// differential suite whose call streams this models.

class CallTrieProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CallTrieProperty, VariantLookupMatchesHashMapOracle) {
  SymbolTable symbols;
  TermStore store(&symbols);
  TableSpace tables(&symbols);

  // The old implementation: canonical FlatTerm -> subgoal id, ids handed out
  // by a counter that never reuses (mirrors subgoals_.size()).
  std::unordered_map<FlatTerm, SubgoalId, FlatTermHash> oracle;
  SubgoalId oracle_next_id = 0;

  const char* preds[3] = {"p", "q", "path"};
  int arities[3] = {1, 2, 3};
  FunctorId fs[3];
  for (int i = 0; i < 3; ++i) {
    fs[i] = symbols.InternFunctor(symbols.InternAtom(preds[i]), arities[i]);
  }
  FunctorId never = symbols.InternFunctor(symbols.InternAtom("never"), 1);

  FlatTermGen ground_gen(&store, GetParam() * 3 + 1, /*ground=*/true);
  FlatTermGen open_gen(&store, GetParam() * 3 + 2, /*ground=*/false);
  std::mt19937 rng(GetParam());

  std::vector<FlatTerm> all_calls;  // every distinct call ever created
  std::vector<std::pair<FlatTerm, SubgoalId>> live;  // dispose victims

  auto random_arg = [&]() {
    return Unflatten(&store,
                     (rng() % 2 == 0) ? ground_gen.Next() : open_gen.Next());
  };

  for (int round = 0; round < 200; ++round) {
    // A probe of a call that is never tabled must miss in both indexes.
    if (rng() % 6 == 0) {
      Word absent = store.MakeStruct(never, {random_arg()});
      EXPECT_EQ(tables.Lookup(store, absent), kNoSubgoal) << "round " << round;
      EXPECT_EQ(oracle.count(Flatten(store, absent)), 0u) << "round " << round;
    }

    Word call;
    int which;
    if (rng() % 3 == 0 && !all_calls.empty()) {
      // Forced variant: a fresh-variable rebuild of an earlier call (which
      // may since have been disposed — then both sides re-create).
      const FlatTerm& prev = all_calls[rng() % all_calls.size()];
      call = Unflatten(&store, prev);
      FunctorId f;
      ASSERT_TRUE(FlatTopFunctor(prev, &f));
      which = -1;
      for (int i = 0; i < 3; ++i) {
        if (fs[i] == f) which = i;
      }
      ASSERT_GE(which, 0);
    } else {
      which = static_cast<int>(rng() % 3);
      std::vector<Word> args;
      for (int a = 0; a < arities[which]; ++a) args.push_back(random_arg());
      call = store.MakeStruct(fs[which], args);
    }

    FlatTerm canon = Flatten(store, call);
    auto [id, created] = tables.LookupOrCreate(store, call, fs[which], 0);

    auto it = oracle.find(canon);
    bool oracle_created = (it == oracle.end());
    SubgoalId oracle_id;
    if (oracle_created) {
      oracle_id = oracle_next_id++;
      oracle.emplace(canon, oracle_id);
      all_calls.push_back(canon);
      live.push_back({canon, oracle_id});
    } else {
      oracle_id = it->second;
    }

    EXPECT_EQ(id, oracle_id) << "round " << round;
    EXPECT_EQ(created, oracle_created) << "round " << round;
    // The const probe agrees, and the stored canonical call (the answer
    // template decoded from the trie walk) matches the old Flatten form.
    EXPECT_EQ(tables.Lookup(store, call), id) << "round " << round;
    EXPECT_EQ(tables.subgoal(id).call.cells, canon.cells) << "round " << round;
    EXPECT_EQ(tables.subgoal(id).call.num_vars, canon.num_vars)
        << "round " << round;

    // Interleaved disposal: drop a random live variant from both indexes;
    // probes must miss until a later LookupOrCreate re-creates it.
    if (rng() % 8 == 0 && !live.empty()) {
      size_t v = rng() % live.size();
      auto [victim_call, victim_id] = live[v];
      tables.Dispose(victim_id);
      oracle.erase(victim_call);
      live.erase(live.begin() + v);
      Word rebuilt = Unflatten(&store, victim_call);
      EXPECT_EQ(tables.Lookup(store, rebuilt), kNoSubgoal)
          << "round " << round;
    }
  }

  EXPECT_EQ(tables.num_subgoals(), oracle_next_id);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternProperty, ::testing::Range(0u, 8u));
INSTANTIATE_TEST_SUITE_P(Seeds, AnswerTrieProperty,
                         ::testing::Range(0u, 12u));
INSTANTIATE_TEST_SUITE_P(Seeds, CallTrieProperty, ::testing::Range(0u, 51u));

// --- Incremental invalidation properties --------------------------------------
//
// Two bounding properties of the dependency graph, checked from opposite
// sides:
//   * soundness (superset): any variant whose from-scratch answers change
//     under an update must be marked invalid the moment the update lands —
//     over-approximation is allowed, missing a truly affected table is not;
//   * precision (no collateral damage): an update to one component must not
//     invalidate or re-evaluate the tables of an independent component.

// State atom of `goal`'s variant table: undefined|incomplete|complete|invalid.
std::string VariantTableState(Engine& engine, const std::string& goal) {
  std::string state;
  Status status =
      engine.ForEach("table_state(" + goal + ", S)", [&](const Answer& a) {
        state = a["S"];
        return false;
      });
  EXPECT_TRUE(status.ok()) << status.message();
  return state;
}

std::set<std::string> PathAnswers(Engine& engine, const std::string& goal) {
  std::set<std::string> result;
  EXPECT_TRUE(engine
                  .ForEach(goal,
                           [&result](const Answer& a) {
                             result.insert(a.ToString());
                             return true;
                           })
                  .ok());
  return result;
}

class InvalidationSuperset : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InvalidationSuperset, EveryAffectedVariantIsMarkedInvalid) {
  std::mt19937 rng(GetParam() * 977 + 3);
  const int n = 4 + static_cast<int>(rng() % 4);
  std::set<std::pair<int, int>> edges;
  int count = n + static_cast<int>(rng() % n);
  for (int k = 0; k < count; ++k) {
    edges.insert({1 + static_cast<int>(rng() % n),
                  1 + static_cast<int>(rng() % n)});
  }
  auto program_text = [&](const std::set<std::pair<int, int>>& es) {
    std::string text =
        ":- table path/2.\n"
        ":- incremental(edge/2).\n"
        "path(X,Y) :- edge(X,Y).\n"
        "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
    for (auto [a, b] : es) {
      text += "edge(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
    }
    return text;
  };

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(program_text(edges)).ok());

  // Materialize one table per source node plus the open variant.
  std::vector<std::string> variants = {"path(X, Y)"};
  for (int i = 1; i <= n; ++i) {
    variants.push_back("path(" + std::to_string(i) + ", Y)");
  }
  std::vector<std::set<std::string>> before;
  for (const std::string& v : variants) {
    before.push_back(PathAnswers(engine, v));
    ASSERT_EQ(VariantTableState(engine, v), "complete") << v;
  }

  // One random update: assert a fresh edge or retract an existing one.
  std::set<std::pair<int, int>> updated = edges;
  if (rng() % 2 == 0 || edges.empty()) {
    std::pair<int, int> f;
    do {
      f = {1 + static_cast<int>(rng() % n), 1 + static_cast<int>(rng() % n)};
    } while (updated.count(f) != 0);
    updated.insert(f);
    ASSERT_TRUE(engine
                    .Holds("assert(edge(" + std::to_string(f.first) + "," +
                           std::to_string(f.second) + "))")
                    .value());
  } else {
    auto it = edges.begin();
    std::advance(it, rng() % edges.size());
    updated.erase(*it);
    ASSERT_TRUE(engine
                    .Holds("retract(edge(" + std::to_string(it->first) + "," +
                           std::to_string(it->second) + "))")
                    .value());
  }

  // From-scratch truth for the updated facts.
  Engine oracle;
  ASSERT_TRUE(oracle.ConsultString(program_text(updated)).ok());
  for (size_t i = 0; i < variants.size(); ++i) {
    std::set<std::string> after = PathAnswers(oracle, variants[i]);
    std::string state = VariantTableState(engine, variants[i]);
    if (after != before[i]) {
      EXPECT_EQ(state, "invalid")
          << "variant " << variants[i]
          << " changed under the update but its table was not invalidated";
    } else {
      EXPECT_TRUE(state == "complete" || state == "invalid")
          << "variant " << variants[i] << " in state " << state;
    }
    // And re-querying the live engine must agree with the oracle.
    EXPECT_EQ(PathAnswers(engine, variants[i]), after)
        << "variant " << variants[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationSuperset,
                         ::testing::Range(0u, 24u));

TEST(InvalidationPrecision, IrrelevantUpdateLeavesIndependentTablesAlone) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ConsultString(
                      ":- table path/2.\n"
                      ":- table rpath/2.\n"
                      ":- incremental(edge/2).\n"
                      ":- incremental(redge/2).\n"
                      "path(X,Y) :- edge(X,Y).\n"
                      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
                      "rpath(X,Y) :- redge(X,Y).\n"
                      "rpath(X,Y) :- rpath(X,Z), redge(Z,Y).\n"
                      "edge(1,2). edge(2,3).\n"
                      "redge(a,b). redge(b,c).\n")
                  .ok());
  ASSERT_EQ(engine.Count("path(X, Y)").value(), 3u);
  ASSERT_EQ(engine.Count("rpath(X, Y)").value(), 3u);
  ASSERT_EQ(VariantTableState(engine, "path(X, Y)"), "complete");
  ASSERT_EQ(VariantTableState(engine, "rpath(X, Y)"), "complete");

  // Update only the edge/path component.
  ASSERT_TRUE(engine.Holds("assert(edge(3,4))").value());
  EXPECT_EQ(VariantTableState(engine, "path(X, Y)"), "invalid");
  EXPECT_EQ(VariantTableState(engine, "rpath(X, Y)"), "complete")
      << "an update to edge/2 must not touch the independent rpath table";

  // Re-querying rpath must not re-evaluate anything.
  uint64_t reevals = engine.evaluator().tables().stats().tables_reevaluated;
  EXPECT_EQ(engine.Count("rpath(X, Y)").value(), 3u);
  EXPECT_EQ(engine.evaluator().tables().stats().tables_reevaluated, reevals);

  // Re-querying path re-evaluates exactly the invalidated component.
  EXPECT_EQ(engine.Count("path(X, Y)").value(), 6u);
  EXPECT_GT(engine.evaluator().tables().stats().tables_reevaluated, reevals);
  EXPECT_EQ(VariantTableState(engine, "path(X, Y)"), "complete");
}

TEST(SortBuiltins, Basics) {
  Engine engine;
  ASSERT_TRUE(engine.ConsultString("p(1).\n").ok());
  EXPECT_TRUE(engine.Holds("sort([c,a,b,a], [a,b,c])").value());
  EXPECT_TRUE(engine.Holds("msort([c,a,b,a], [a,a,b,c])").value());
  EXPECT_TRUE(engine.Holds("sort([f(2),f(1),1,z], [1,z,f(1),f(2)])").value());
  EXPECT_TRUE(engine.Holds("bagof(X, p(X), [1])").value());
  EXPECT_FALSE(engine.Holds("bagof(X, fail_p(X), _)").ok());  // existence
  EXPECT_FALSE(engine.Holds("setof(X, (p(X), X > 5), _)").value());
  EXPECT_TRUE(engine.Holds("succ(3, X), X =:= 4").value());
  EXPECT_TRUE(engine.Holds("succ(X, 4), X =:= 3").value());
}

}  // namespace
}  // namespace xsb
