// cold_eval: one Engine, one client. An op is AbolishAllTables() followed by
// one cold query, round-robin over five paper shapes, so nearly all time is
// spent in the SLG evaluator and the Machine.

#include <memory>
#include <string>
#include <vector>

#include "oracle.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Shape sizes, balanced to about 1 ms per op on a 4-thread x86-64 box, so
// that a run holds thousands of ops and many windows of kWindowOps.
constexpr int kChainNodes = 64;      // right-recursive TC over a chain
constexpr int kCycleNodes = 1100;    // left-recursive TC over a cycle (Fig. 5)
constexpr int kSgLayers = 10;        // same_generation genealogy: layers
constexpr int kSgWidth = 14;         //   and persons per layer
constexpr int kWinHeight = 7;        // win/1 over a complete binary tree
constexpr int kGrammarTokens = 180;  // expr/term grammar over tok/3

// Set-ups before timing; the engines built mid-run add about 20 more.
constexpr int kSetupRepeats = 5;
constexpr uint64_t kRssOps = 1200;  // rss_mb is sampled after this many ops
// Per-query memory is never reclaimed (about 55 KB per op), so the timed
// phase replaces its engine after this many ops, outside the op timings,
// to keep a run's memory bounded.
constexpr uint32_t kOpsPerEngine = 1500;

struct Shape {
  std::string name;
  std::string goal;
  std::vector<int64_t> expected;  // the goal's one variable, every answer
};

struct Workload {
  std::string program;
  std::vector<Shape> shapes;
};

std::string Fact(const std::string& pred, int64_t a, int64_t b) {
  return pred + "(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
}

Workload Generate(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  std::string& p = w.program;
  p +=
      ":- table rpath/2.\n"
      "rpath(X,Y) :- redge(X,Y).\n"
      "rpath(X,Y) :- redge(X,Z), rpath(Z,Y).\n"
      ":- table lpath/2.\n"
      "lpath(X,Y) :- lpath(X,Z), cedge(Z,Y).\n"
      "lpath(X,Y) :- cedge(X,Y).\n"
      ":- table sg/2.\n"
      "sg(X,X) :- person(X).\n"
      "sg(X,Y) :- par(X,XP), sg(XP,YP), child(YP,Y).\n"
      ":- table win/1.\n"
      "win(X) :- move(X,Y), tnot(win(Y)).\n"
      ":- table expr/2.\n"
      ":- table term/2.\n"
      "expr(I,K) :- expr(I,J), tok(J,plus,J1), term(J1,K).\n"
      "expr(I,K) :- term(I,K).\n"
      "term(I,K) :- term(I,J), tok(J,times,J1), factor(J1,K).\n"
      "term(I,K) :- factor(I,K).\n"
      "factor(I,K) :- tok(I,num,K).\n"
      "factor(I,K) :- tok(I,lp,J), expr(J,J1), tok(J1,rp,K).\n";

  // Right-recursive TC over a chain: every suffix is a subgoal and each of
  // its answers is resumed into the consumer one node up.
  {
    std::vector<int64_t> node = DistinctLabels(&rng, kChainNodes);
    for (int i = 0; i + 1 < kChainNodes; ++i) {
      p += Fact("redge", node[i], node[i + 1]);
    }
    w.shapes.push_back({"chain_right", "rpath(" + std::to_string(node[0]) + ", Y)",
                        std::vector<int64_t>(node.begin() + 1, node.end())});
  }
  // Left-recursive TC over a cycle: one subgoal, every node an answer.
  {
    std::vector<int64_t> node = DistinctLabels(&rng, kCycleNodes);
    for (int i = 0; i < kCycleNodes; ++i) {
      p += Fact("cedge", node[i], node[(i + 1) % kCycleNodes]);
    }
    int64_t start = node[rng.Below(kCycleNodes)];
    w.shapes.push_back(
        {"cycle_left", "lpath(" + std::to_string(start) + ", Y)", node});
  }
  // same_generation over a layered genealogy: one root, then layers of
  // kSgWidth whose i-th member has parents i and i+1 (mod kSgWidth) in the
  // layer above (the root, in layer 1). The labels are random, the shape is
  // fixed. Everyone descends from the root, so sg(X, Y) holds exactly for Y
  // in X's layer.
  {
    std::vector<int64_t> label =
        DistinctLabels(&rng, 1 + static_cast<size_t>(kSgLayers) * kSgWidth);
    auto person = [&](int layer, int i) {
      return layer == 0 ? label[0] : label[1 + (layer - 1) * kSgWidth + i];
    };
    for (int64_t who : label) p += "person(" + std::to_string(who) + ").\n";
    for (int l = 1; l <= kSgLayers; ++l) {
      for (int i = 0; i < kSgWidth; ++i) {
        int first = l == 1 ? 0 : i;
        int second = l == 1 ? 0 : (i + 1) % kSgWidth;
        for (int parent : {first, second}) {
          p += Fact("par", person(l, i), person(l - 1, parent));
          p += Fact("child", person(l - 1, parent), person(l, i));
          if (first == second) break;
        }
      }
    }
    std::vector<int64_t> bottom(label.end() - kSgWidth, label.end());
    int64_t who = bottom[rng.Below(bottom.size())];
    w.shapes.push_back(
        {"same_generation", "sg(" + std::to_string(who) + ", Y)", bottom});
  }
  // win/1 over a complete binary tree (Table 2): leaves lose, so a node wins
  // exactly when its height above the leaves is odd.
  {
    int nodes = (1 << (kWinHeight + 1)) - 1;
    std::vector<int64_t> label = DistinctLabels(&rng, nodes + 1);
    std::vector<int64_t> winners;
    for (int i = 1; i <= nodes; ++i) {
      int depth = 0;
      while ((i >> (depth + 1)) != 0) ++depth;
      if (2 * i <= nodes) {
        p += Fact("move", label[i], label[2 * i]);
        p += Fact("move", label[i], label[2 * i + 1]);
      }
      if ((kWinHeight - depth) % 2 == 1) winners.push_back(label[i]);
    }
    w.shapes.push_back({"win", "win(X)", winners});
  }
  // Left-recursive grammar over a random token string; factor/2 is
  // untabled, so clause resolution is measured too.
  {
    std::vector<Tok> tokens = RandomExpression(rng.Next(), kGrammarTokens);
    for (size_t i = 0; i < tokens.size(); ++i) {
      p += "tok(" + std::to_string(i) + "," + TokName(tokens[i]) + "," +
           std::to_string(i + 1) + ").\n";
    }
    w.shapes.push_back({"grammar", "expr(0, K)", ExprEnds(tokens)});
  }
  return w;
}

// Checks one op's answers; records a failure on a non-OK status or any
// mismatch with the oracle.
void Check(const Shape& shape, const xsb::Status& status,
           const std::vector<std::string>& values, Record* record) {
  if (!status.ok()) {
    record->Fail(shape.name + ": " + status.ToString());
  } else if (!SameIntSet(values, shape.expected)) {
    record->Fail(shape.name + ": " + std::to_string(values.size()) +
                 " answers, expected " + std::to_string(shape.expected.size()));
  }
}

// One op: abolish, then one cold query. Untraced it goes through the public
// Engine::ForEach; with an enabled tracer, through the mirrored ForEach
// under an op span. Returns the op's latency in ms and adds its answer
// count to *answers.
double RunOp(xsb::Engine* engine, const Shape& shape, uint32_t op,
             Tracer* tracer, Record* record, double* answers) {
  std::vector<std::string> values;
  int64_t start = NowNs();
  int root = tracer->Begin(Tracer::kOp, -1, op);
  int abolish = tracer->Begin(Tracer::kAbolish, root, op);
  engine->AbolishAllTables();
  tracer->End(abolish);
  xsb::Status status =
      tracer->enabled()
          ? TracedForEach(engine, shape.goal, &values, tracer, root, op)
          : CollectForEach(engine, shape.goal, &values);
  tracer->End(root);
  double ms = SecondsSince(start) * 1e3;
  *answers += static_cast<double>(values.size());
  Check(shape, status, values, record);
  return ms;
}

// One op per shape, untraced (set-up warm-up and the counter pass).
void RunRound(xsb::Engine* engine, const Workload& w, Record* record) {
  Tracer off(false);
  double answers = 0;
  for (const Shape& shape : w.shapes) {
    RunOp(engine, shape, 0, &off, record, &answers);
  }
}

// A fresh engine: consult (which runs the analyzer) plus one warm-up round.
std::unique_ptr<xsb::Engine> SetUp(const Workload& w, Record* record) {
  auto engine = std::make_unique<xsb::Engine>();
  xsb::Status status = engine->ConsultString(w.program);
  if (!status.ok()) record->Fail("consult: " + status.ToString());
  RunRound(engine.get(), w, record);
  return engine;
}

// Adds ops round-robin over the shapes to *phase for `seconds` of wall
// time. Throughput is ops over the summed op latencies (the answer check
// between ops and the engine replacement are the client's think time).
void RunPhase(std::unique_ptr<xsb::Engine>* engine, const Workload& w,
              double seconds, Tracer* tracer, Record* record, double* answers,
              Phase* phase) {
  int64_t start = NowNs();
  uint64_t first = phase->ops();
  while (SecondsSince(start) < seconds) {
    uint32_t op = static_cast<uint32_t>(phase->ops());
    if (op > 0 && op % kOpsPerEngine == 0) {
      engine->reset();
      *engine = TimedSetUp(1, [&] { return SetUp(w, record); }, record);
    }
    double ms = RunOp(engine->get(), w.shapes[op % w.shapes.size()], op,
                      tracer, record, answers);
    phase->AddOp(ms);
  }
  record->attempted += phase->ops() - first;
}

// Leaves every shape's tables in the space at once (no abolish between
// them), so table storage is a fixed function of the seed.
void FillAllTables(xsb::Engine* engine, const Workload& w, Record* record) {
  engine->AbolishAllTables();
  for (const Shape& shape : w.shapes) {
    std::vector<std::string> values;
    Check(shape, CollectForEach(engine, shape.goal, &values), values, record);
  }
}

}  // namespace

Record RunColdEval(const RunOptions& options) {
  Record record;
  Workload w = Generate(options.seed);

  std::unique_ptr<xsb::Engine> engine = TimedSetUp(
      kSetupRepeats, [&] { return SetUp(w, &record); }, &record);

  Tracer off(false);
  double answers = 0;
  if (!options.trace) {
    Phase phase(kRssOps, kWindowOps);
    RunPhase(&engine, w, options.seconds, &off, &record, &answers, &phase);
    SetPhaseMetrics(phase, &record);
    FillAllTables(engine.get(), w, &record);
    SetTableMetrics(&engine->evaluator().tables(), &record);
    return record;
  }

  // Counter pass: one op per shape, deterministic for a fixed seed.
  Counters before = ReadCounters(engine.get());
  RunRound(engine.get(), w, &record);
  Counters delta = ReadCounters(engine.get()) - before;
  double round = static_cast<double>(w.shapes.size());
  SetEngineCounterMetrics(delta, round, &record);
  SetTableCounterMetrics(delta, round, 0, &record);
  for (const auto& [name, value] : record.metrics) {
    if (name.rfind("engine.", 0) == 0 || name.rfind("tabling.", 0) == 0) {
      record.deterministic[name] = value;
    }
  }

  Tracer tracer(true);
  Phase plain(kRssOps);
  Phase traced;
  double traced_answers = 0;
  double block = options.seconds / (2 * kTraceBlocks);
  for (int b = 0; b < kTraceBlocks; ++b) {
    RunPhase(&engine, w, block, &off, &record, &answers, &plain);
    RunPhase(&engine, w, block, &tracer, &record, &traced_answers, &traced);
  }
  SetEngineSpanMetrics(tracer, static_cast<double>(traced.ops()),
                       traced_answers, &record);
  record.Set("trace.overhead",
             1.0 - Ratio(traced.throughput(), plain.throughput()));
  if (!tracer.WriteTsv(options.trace_path)) {
    record.Fail("cannot write " + options.trace_path);
  }

  SetConsultAnalyzeMetrics(w.program, 3, &record);
  FillAllTables(engine.get(), w, &record);
  SetTableMetrics(&engine->evaluator().tables(), &record);
  return record;
}

}  // namespace perfbench
