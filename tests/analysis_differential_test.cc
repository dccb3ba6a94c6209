// Differential tests for the analyzer's stratification verdict: every
// program the analyzer approves as stratified must be accepted by
// datalog::Stratify(), and must produce identical answers under SLG
// resolution, semi-naive bottom-up evaluation, and the well-founded
// semantics (with an empty undefined set). Programs the analyzer downgrades
// to WFS must be rejected by Stratify() but still have a well-founded
// model.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/to_datalog.h"
#include "bottomup/seminaive.h"
#include "wfs/wfs.h"
#include "xsb/engine.h"

namespace xsb {
namespace {

// Deterministic pseudo-random edge sets, mirroring differential_test.cc.
struct RandomGraph {
  int num_nodes;
  std::vector<std::pair<int, int>> edges;
};

uint32_t NextRand(uint32_t* state) {
  *state = *state * 1664525u + 1013904223u;
  return *state >> 16;
}

RandomGraph MakeGraph(uint32_t seed) {
  uint32_t state = seed * 2654435761u + 1;
  RandomGraph g;
  g.num_nodes = 4 + static_cast<int>(NextRand(&state) % 4);  // 4..7
  int shape = static_cast<int>(NextRand(&state) % 3);
  if (shape == 0) {
    // Chain with random shortcuts.
    for (int i = 1; i < g.num_nodes; ++i) g.edges.push_back({i, i + 1});
    int extra = static_cast<int>(NextRand(&state) % 3);
    for (int i = 0; i < extra; ++i) {
      int a = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      int b = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      g.edges.push_back({a, b});
    }
  } else if (shape == 1) {
    // Full cycle plus chords.
    for (int i = 1; i <= g.num_nodes; ++i) {
      g.edges.push_back({i, i % g.num_nodes + 1});
    }
    int extra = static_cast<int>(NextRand(&state) % 3);
    for (int i = 0; i < extra; ++i) {
      int a = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      int b = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      g.edges.push_back({a, b});
    }
  } else {
    // Sparse random edges.
    int count = g.num_nodes + static_cast<int>(NextRand(&state) % 4);
    for (int i = 0; i < count; ++i) {
      int a = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      int b = 1 + static_cast<int>(NextRand(&state) % g.num_nodes);
      g.edges.push_back({a, b});
    }
  }
  return g;
}

std::string StratifiedProgram(const RandomGraph& g) {
  std::string text = ":- table path/2.\n";
  for (int i = 1; i <= g.num_nodes; ++i) {
    text += "node(" + std::to_string(i) + ").\n";
  }
  for (const auto& [a, b] : g.edges) {
    text += "edge(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  text += "path(X,Y) :- edge(X,Y).\n";
  text += "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  text += "unreach(X) :- node(X), tnot(path(1,X)).\n";
  return text;
}

std::string WinProgram(const RandomGraph& g) {
  std::string text = ":- table win/1.\n";
  text += "win(X) :- move(X,Y), tnot(win(Y)).\n";
  for (const auto& [a, b] : g.edges) {
    text += "move(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  return text;
}

using AnswerSet = std::set<std::vector<std::string>>;

AnswerSet SlgAnswers(Engine& engine, const std::string& goal,
                     const std::vector<std::string>& vars) {
  AnswerSet out;
  Result<std::vector<Answer>> answers = engine.FindAll(goal);
  EXPECT_TRUE(answers.ok()) << goal << ": " << answers.status().message();
  if (!answers.ok()) return out;
  for (const Answer& answer : answers.value()) {
    std::vector<std::string> row;
    row.reserve(vars.size());
    for (const std::string& v : vars) row.push_back(answer[v]);
    out.insert(std::move(row));
  }
  return out;
}

AnswerSet RelationRows(const datalog::DatalogProgram& dp,
                       const std::vector<datalog::Tuple>& tuples) {
  AnswerSet out;
  for (const datalog::Tuple& tuple : tuples) {
    std::vector<std::string> row;
    row.reserve(tuple.size());
    for (datalog::Value v : tuple) row.push_back(dp.consts().ToString(v));
    out.insert(std::move(row));
  }
  return out;
}

class AnalysisDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

// Analyzer-stratified => Stratify() accepts, and SLG == semi-naive == WFS.
TEST_P(AnalysisDifferentialTest, StratifiedFamilyAgreesEverywhere) {
  RandomGraph g = MakeGraph(GetParam());
  std::string text = StratifiedProgram(g);

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text).ok()) << text;
  analysis::AnalysisResult verdict = engine.Analyze();
  ASSERT_TRUE(verdict.stratified()) << text;

  AnswerSet slg_path = SlgAnswers(engine, "path(X, Y)", {"X", "Y"});
  AnswerSet slg_unreach = SlgAnswers(engine, "unreach(X)", {"X"});

  // Bottom-up: the analyzer's verdict implies Stratify() must accept.
  datalog::DatalogProgram dp;
  ASSERT_TRUE(analysis::ToDatalog(engine.program(), &dp).ok()) << text;
  ASSERT_TRUE(dp.CheckSafety().ok());
  std::vector<int> strata;
  ASSERT_TRUE(datalog::Stratify(dp, &strata).ok()) << text;

  datalog::Evaluation eval(&dp);
  ASSERT_TRUE(eval.Run().ok());
  datalog::PredId path_id = dp.InternPred("path", 2);
  datalog::PredId unreach_id = dp.InternPred("unreach", 1);
  EXPECT_EQ(RelationRows(dp, eval.relation(path_id).tuples()), slg_path);
  EXPECT_EQ(RelationRows(dp, eval.relation(unreach_id).tuples()),
            slg_unreach);

  // WFS: a stratified program has a two-valued well-founded model that
  // coincides with the other two evaluations.
  datalog::DatalogProgram dp2;
  ASSERT_TRUE(analysis::ToDatalog(engine.program(), &dp2).ok());
  Result<wfs::WellFoundedModel> model = wfs::ComputeWellFounded(&dp2);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_undefined(), 0u);
  datalog::PredId path2 = dp2.InternPred("path", 2);
  datalog::PredId unreach2 = dp2.InternPred("unreach", 1);
  for (const std::vector<std::string>& row : slg_path) {
    datalog::Tuple t{dp2.consts().Int(std::stoll(row[0])),
                     dp2.consts().Int(std::stoll(row[1]))};
    EXPECT_EQ(model.value().TruthOf(path2, t), wfs::Truth::kTrue);
  }
  for (int i = 1; i <= g.num_nodes; ++i) {
    datalog::Tuple t{dp2.consts().Int(i)};
    wfs::Truth want = slg_unreach.count({std::to_string(i)}) > 0
                          ? wfs::Truth::kTrue
                          : wfs::Truth::kFalse;
    EXPECT_EQ(model.value().TruthOf(unreach2, t), want) << "node " << i;
  }
}

// Analyzer says WFS-required => Stratify() rejects, but the well-founded
// model exists (the downgrade path). Where SLG's dynamic stratification
// still succeeds, its verdict must match the WFS truth value.
TEST_P(AnalysisDifferentialTest, WinFamilyDowngradesToWfs) {
  RandomGraph g = MakeGraph(GetParam());
  std::string text = WinProgram(g);

  Engine engine;
  ASSERT_TRUE(engine.ConsultString(text).ok()) << text;
  analysis::AnalysisResult verdict = engine.Analyze();
  ASSERT_FALSE(verdict.stratified()) << text;
  ASSERT_EQ(verdict.verdict, analysis::StratVerdict::kWfsRequired);

  datalog::DatalogProgram dp;
  ASSERT_TRUE(analysis::ToDatalog(engine.program(), &dp).ok()) << text;
  std::vector<int> strata;
  EXPECT_FALSE(datalog::Stratify(dp, &strata).ok()) << text;

  Result<wfs::WellFoundedModel> model = wfs::ComputeWellFounded(&dp);
  ASSERT_TRUE(model.ok()) << text;

  datalog::PredId win_id = dp.InternPred("win", 1);
  for (int i = 1; i <= g.num_nodes; ++i) {
    Result<bool> held = engine.Holds("win(" + std::to_string(i) + ")");
    datalog::Tuple t{dp.consts().Int(i)};
    if (held.ok()) {
      // Dynamically stratified for this goal: SLG and WFS must agree on a
      // two-valued answer.
      wfs::Truth truth = model.value().TruthOf(win_id, t);
      EXPECT_EQ(held.value(), truth == wfs::Truth::kTrue) << "win " << i;
      EXPECT_NE(truth, wfs::Truth::kUndefined) << "win " << i;
    } else {
      // The runtime rejected the goal; the consult-time verdict predicted
      // this and the WFS downgrade still yields a model.
      EXPECT_EQ(held.status().code(), ErrorCode::kStratification);
      EXPECT_NE(held.status().message().find("S001"), std::string::npos);
    }
    engine.AbolishAllTables();
  }
}

// The call graph as an analysis sees it and as AnalyzeAndPublish leaves it
// on the program: components, edges, verdict, dependency seeds, shard masks.
std::string StructureOf(Engine& engine,
                        const analysis::AnalysisResult& result) {
  std::ostringstream out;
  out << "stratified " << result.stratified() << " widened "
      << result.widened << "\n";
  for (const analysis::SccInfo& scc : result.sccs) {
    out << "scc";
    for (FunctorId f : scc.members) out << " " << f;
    out << " rec " << scc.recursive << " neg " << scc.negative_internal
        << "\n";
  }
  for (const analysis::CallEdge& edge : result.edges) {
    out << "edge " << edge.from << " " << edge.to << " "
        << static_cast<int>(edge.kind) << "\n";
  }
  for (const auto& pred : engine.program().predicates()) {
    if (pred == nullptr) continue;
    out << "pred " << pred->functor() << " shard " << pred->eval_shard()
        << " mask " << pred->eval_reach_mask() << " seeds";
    const std::vector<FunctorId>* deps =
        engine.program().IncrementalDepsOf(pred->functor());
    if (deps != nullptr) {
      for (FunctorId f : *deps) out << " " << f;
    }
    out << "\n";
  }
  return out.str();
}

// A structure-only analysis, what rule erasure and incremental/1 republish,
// builds and publishes the same call graph as the full one.
TEST_P(AnalysisDifferentialTest, StructureOnlyMatchesFullAnalysis) {
  RandomGraph g = MakeGraph(GetParam());
  const std::string programs[] = {
      ":- incremental(edge/2).\n" + StratifiedProgram(g),
      ":- incremental(move/2).\n" + WinProgram(g),
      ":- incremental(edge/2).\n" + StratifiedProgram(g) +
          "meta(G) :- call(G).\nvia(X) :- meta(path(1, X)).\n",
  };
  for (const std::string& text : programs) {
    Engine engine;
    ASSERT_TRUE(engine.ConsultString(text).ok()) << text;
    analysis::AnalyzeOptions options;
    options.structure_only = true;
    std::string structure_only = StructureOf(engine, engine.Analyze(options));
    EXPECT_EQ(structure_only, StructureOf(engine, engine.Analyze())) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisDifferentialTest,
                         ::testing::Range(0u, 25u));

}  // namespace
}  // namespace xsb
