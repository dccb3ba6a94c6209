// update_stream: a QueryService over independent `:- incremental`
// transitive-closure families. An op is one round: assertz fresh edges into
// one or two families, submit that round's queries concurrently and drain
// them (invalidated families re-evaluate cold, possibly in parallel across
// shards; the rest are served warm), then retract the same edges so the
// stream stays stationary. Writes sit beside the reads of warm_serve on the
// same table layer.

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "oracle.h"
#include "probe.h"
#include "server/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kFamilies = 8;
constexpr int kFamilyNodes = 64;  // DAG per family: forward edges only,
constexpr int kWindow = 8;        //   each node to 2 of the next kWindow
constexpr int kQueriesPerFamily = 10;  // 80 queries per round
constexpr int kWorkers = 2;  // see warm_serve.cc: one hardware thread free
constexpr int kSetupRepeats = 31;
constexpr double kSoloSeconds = 1.0;
constexpr uint64_t kRssOps = 1500;  // rss_mb is sampled after this many rounds
// Per-query memory is never reclaimed (about 85 KB per round), so a phase
// replaces its service after this many rounds, outside the round timings,
// to keep a run's memory bounded.
constexpr uint32_t kRoundsPerService = 3000;

struct Family {
  std::vector<int64_t> label;  // node index -> label
  Digraph graph;
  std::vector<std::vector<int64_t>> base_reach;  // per node, no extra edge
};

struct Workload {
  std::string program;
  std::vector<Family> families;
};

std::string PathGoal(int family, int64_t key) {
  return "path" + std::to_string(family) + "(" + std::to_string(key) + ", X)";
}

std::string EdgeTerm(int family, int64_t from, int64_t to) {
  return "edge" + std::to_string(family) + "(" + std::to_string(from) + "," +
         std::to_string(to) + ")";
}

Workload Generate(Rng* rng) {
  Workload w;
  std::vector<int64_t> labels =
      DistinctLabels(rng, static_cast<size_t>(kFamilies) * kFamilyNodes);
  for (int f = 0; f < kFamilies; ++f) {
    std::string path = "path" + std::to_string(f);
    std::string edge = "edge" + std::to_string(f);
    w.program += ":- table " + path + "/2.\n:- incremental(" + edge + "/2).\n" +
                 path + "(X,Y) :- " + edge + "(X,Y).\n" + path + "(X,Y) :- " +
                 path + "(X,Z), " + edge + "(Z,Y).\n";
    Family family;
    family.label.assign(labels.begin() + f * kFamilyNodes,
                        labels.begin() + (f + 1) * kFamilyNodes);
    for (int i = 0; i + 1 < kFamilyNodes; ++i) {
      int span = std::min(kWindow, kFamilyNodes - 1 - i);
      int first = static_cast<int>(rng->Below(span));
      int second = span > 1 ? (first + 1 + static_cast<int>(
                                               rng->Below(span - 1))) % span
                            : first;
      for (int t : {first, second}) {
        int64_t from = family.label[i];
        int64_t to = family.label[i + 1 + t];
        family.graph.AddEdge(from, to);
        w.program += EdgeTerm(f, from, to) + ".\n";
        if (first == second) break;
      }
    }
    for (int i = 0; i < kFamilyNodes; ++i) {
      family.base_reach.push_back(family.graph.Reachable(family.label[i]));
    }
    w.families.push_back(std::move(family));
  }
  return w;
}

// One round's inputs, drawn before it is timed, with the oracle's answers.
struct Round {
  struct Edge {
    int family;
    int64_t from;
    int64_t to;
  };
  struct Query {
    std::string goal;
    std::vector<int64_t> expected;
  };
  std::vector<Edge> edges;  // back edges: fresh, and they close cycles
  std::vector<Query> queries;
};

Round NextRound(Workload* w, Rng* rng) {
  Round round;
  std::vector<int> order(kFamilies);
  for (int f = 0; f < kFamilies; ++f) order[f] = f;
  rng->Shuffle(&order);
  int changed = 1 + static_cast<int>(rng->Below(2));
  for (int c = 0; c < changed; ++c) {
    int f = order[c];
    const Family& family = w->families[f];
    int64_t from = family.label[kFamilyNodes / 2 + rng->Below(kFamilyNodes / 2)];
    int64_t to = family.label[rng->Below(kFamilyNodes / 2)];
    round.edges.push_back({f, from, to});
  }
  for (const Round::Edge& e : round.edges) {
    w->families[e.family].graph.AddEdge(e.from, e.to);
  }
  for (int f = 0; f < kFamilies; ++f) {
    Family& family = w->families[f];
    bool touched = false;
    for (const Round::Edge& e : round.edges) touched |= e.family == f;
    for (int q = 0; q < kQueriesPerFamily; ++q) {
      size_t node = rng->Below(kFamilyNodes);
      int64_t key = family.label[node];
      round.queries.push_back(
          {PathGoal(f, key), touched ? family.graph.Reachable(key)
                                     : family.base_reach[node]});
    }
  }
  for (const Round::Edge& e : round.edges) {
    w->families[e.family].graph.RemoveEdge(e.from, e.to);
  }
  return round;
}

using Answers = xsb::Result<std::vector<xsb::Answer>>;

// "" when the answers match the oracle, else what went wrong.
std::string CheckAnswers(const Round::Query& query, const Answers& result) {
  if (!result.ok()) return query.goal + ": " + result.status().ToString();
  if (!SameIntSet(FirstBindings(result.value()), query.expected)) {
    return query.goal + ": wrong answers";
  }
  return std::string();
}

// Every table of every family, queried and checked against the base graph.
void QueryAll(xsb::QueryService* service, const Workload& w, Record* record) {
  std::vector<std::future<Answers>> futures;
  std::vector<Round::Query> queries;
  for (int f = 0; f < kFamilies; ++f) {
    for (int i = 0; i < kFamilyNodes; ++i) {
      queries.push_back({PathGoal(f, w.families[f].label[i]),
                         w.families[f].base_reach[i]});
      futures.push_back(service->Submit(queries.back().goal));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    std::string problem = CheckAnswers(queries[i], futures[i].get());
    if (!problem.empty()) record->Fail(problem);
  }
}

// A fresh service: consult (with analysis) and warm every family's tables.
std::unique_ptr<xsb::QueryService> SetUp(const Workload& w, Record* record) {
  auto service = std::make_unique<xsb::QueryService>(
      xsb::QueryService::Options{.num_workers = kWorkers});
  xsb::Status status = service->Consult(w.program);
  if (!status.ok()) record->Fail("consult: " + status.ToString());
  QueryAll(service.get(), w, record);
  return service;
}

// Timings and counters of one phase of rounds beyond the round latencies.
struct RoundStats {
  Phase rounds{kRssOps};
  std::vector<double> assert_us;
  std::vector<double> retract_us;
  std::vector<double> request_ms;  // per query: submit -> answers in hand
  uint64_t updates = 0;
  ServiceDeltas deltas;
};

// Adds rounds to *stats for `seconds`. With `solo`, the round's queries go
// one at a time instead of all at once. Rounds are checked after they are
// timed; throughput is rounds over the summed round latencies.
void RunRounds(std::unique_ptr<xsb::QueryService>* owner, Workload* w,
               Rng* rng, double seconds, bool solo, Tracer* tracer,
               Record* record, RoundStats* out) {
  RoundStats& stats = *out;
  stats.deltas.Start(owner->get());
  uint64_t first = stats.rounds.ops();
  int64_t phase_start = NowNs();
  while (SecondsSince(phase_start) < seconds) {
    uint32_t op = static_cast<uint32_t>(stats.rounds.ops());
    if (op > 0 && op % kRoundsPerService == 0) {
      stats.deltas.Stop(owner->get());
      owner->reset();
      *owner = TimedSetUp(1, [&] { return SetUp(*w, record); }, record);
      stats.deltas.Start(owner->get());
    }
    xsb::QueryService* service = owner->get();
    Round round = NextRound(w, rng);
    std::string problem;
    std::vector<Answers> results;
    results.reserve(round.queries.size());

    int64_t start = NowNs();
    int root = tracer->Begin(Tracer::kOp, -1, op);
    auto update = [&](int name, const std::string& goal,
                      std::vector<double>* us) {
      int64_t t0 = NowNs();
      xsb::Status status = service->Update(goal);
      int64_t t1 = NowNs();
      tracer->Add(name, root, op, t0, t1);
      us->push_back(static_cast<double>(t1 - t0) * 1e-3);
      ++stats.updates;
      if (!status.ok() && problem.empty()) {
        problem = goal + ": " + status.ToString();
      }
    };
    for (const Round::Edge& e : round.edges) {
      update(Tracer::kAssert,
             "assertz(" + EdgeTerm(e.family, e.from, e.to) + ")",
             &stats.assert_us);
    }
    auto collect = [&](std::future<Answers>* future, int64_t submitted) {
      results.push_back(future->get());
      int64_t done = NowNs();
      tracer->Add(Tracer::kSubmit, root, op, submitted, done);
      stats.request_ms.push_back(static_cast<double>(done - submitted) * 1e-6);
    };
    if (solo) {
      for (const Round::Query& q : round.queries) {
        int64_t submitted = NowNs();
        std::future<Answers> future = service->Submit(q.goal);
        collect(&future, submitted);
      }
    } else {
      std::vector<std::future<Answers>> futures;
      std::vector<int64_t> submitted;
      futures.reserve(round.queries.size());
      for (const Round::Query& q : round.queries) {
        submitted.push_back(NowNs());
        futures.push_back(service->Submit(q.goal));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        collect(&futures[i], submitted[i]);
      }
    }
    for (const Round::Edge& e : round.edges) {
      update(Tracer::kRetract,
             "retract(" + EdgeTerm(e.family, e.from, e.to) + ")",
             &stats.retract_us);
    }
    tracer->End(root);
    double ms = SecondsSince(start) * 1e3;

    stats.rounds.AddOp(ms);
    for (size_t i = 0; i < round.queries.size() && problem.empty(); ++i) {
      problem = CheckAnswers(round.queries[i], results[i]);
    }
    if (!problem.empty()) record->Fail(problem);
  }
  stats.deltas.Stop(owner->get());
  record->attempted += stats.rounds.ops() - first;
}

// Table storage once the stream has settled: every invalidated table is
// re-evaluated against the base graph and a no-op update (which drains the
// pool) frees the answer tables retired along the way, so the stored tables
// no longer depend on how many rounds ran.
void SetSettledTableMetrics(xsb::QueryService* service, const Workload& w,
                            Record* record) {
  QueryAll(service, w, record);
  xsb::Status status = service->Update("true");
  if (!status.ok()) record->Fail("settle: " + status.ToString());
  SetTableMetrics(&service->tables(), record);
}

}  // namespace

Record RunUpdateStream(const RunOptions& options) {
  Record record;
  Rng rng(options.seed);
  Workload w = Generate(&rng);

  std::unique_ptr<xsb::QueryService> service = TimedSetUp(
      kSetupRepeats, [&] { return SetUp(w, &record); }, &record);

  Tracer off(false);
  if (!options.trace) {
    RoundStats stats;
    stats.rounds.window_size = kWindowOps;
    RunRounds(&service, &w, &rng, options.seconds, /*solo=*/false, &off,
              &record, &stats);
    SetPhaseMetrics(stats.rounds, &record);
    SetSettledTableMetrics(service.get(), w, &record);
    return record;
  }

  // Untraced blocks (counters, update timings) alternate with traced ones;
  // then rounds whose queries go one at a time (solo latency).
  Tracer tracer(true);
  RoundStats plain;
  RoundStats traced;
  double block = options.seconds / (2 * kTraceBlocks);
  for (int b = 0; b < kTraceBlocks; ++b) {
    RunRounds(&service, &w, &rng, block, /*solo=*/false, &off, &record,
              &plain);
    RunRounds(&service, &w, &rng, block, /*solo=*/false, &tracer, &record,
              &traced);
  }
  SetTableCounterMetrics(plain.deltas.counters(),
                         static_cast<double>(plain.rounds.ops()),
                         static_cast<double>(plain.updates), &record);
  record.Set("db.assert_us_p50", Median(plain.assert_us));
  record.Set("db.retract_us_p50", Median(plain.retract_us));
  record.Set("server.worker_balance", plain.deltas.worker_balance());
  Tracer::Totals totals = tracer.Summarize();
  record.Set("trace.unattributed_share",
             Ratio(totals.self_s[Tracer::kOp], totals.total_s[Tracer::kOp]));
  record.Set("trace.overhead", 1.0 - Ratio(traced.rounds.throughput(),
                                           plain.rounds.throughput()));
  if (!tracer.WriteTsv(options.trace_path)) {
    record.Fail("cannot write " + options.trace_path);
  }

  RoundStats solo;
  RunRounds(&service, &w, &rng, kSoloSeconds, /*solo=*/true, &off, &record,
            &solo);
  double solo_p50 = Median(solo.request_ms);
  record.Set("server.solo_latency_ms_p50", solo_p50);
  record.Set("server.queue_wait_ms_p50", Median(plain.request_ms) - solo_p50);

  SetSettledTableMetrics(service.get(), w, &record);
  SetConsultAnalyzeMetrics(w.program, 3, &record);
  return record;
}

}  // namespace perfbench
