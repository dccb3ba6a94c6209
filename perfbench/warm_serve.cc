// warm_serve: a QueryService whose every table is complete before timing.
// One client thread keeps a fixed window of requests in flight (a closed
// loop: each completion admits the next request) over a skewed key mix, so
// the time goes to parsing, the lock-free warm probe, answer return,
// rendering and queueing, with no evaluation.

#include <algorithm>
#include <cmath>
#include <deque>
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

constexpr int kNodes = 4000;        // random digraph: nodes,
constexpr int kBlock = 32;          //   in blocks of this many,
constexpr int kOutDegree = 2;       //   each with edges inside its block
constexpr int kGroundPairs = 1024;  // ground path(K, M) variants warmed
// Key popularity: YCSB's default request distribution (Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010), a Zipfian
// with theta 0.99 over popularity ranks, scattered over the keys by a
// seeded permutation. Over 4000 keys the hottest key draws 10.8% of the
// requests, the hottest 40 draw 47% and the hottest 400 draw 73%.
constexpr double kZipfTheta = 0.99;
// Two workers and one client thread leave one of the 4 hardware threads
// free, so the kernel can move a thread off a CPU the hypervisor is
// stealing from. Three workers served no more requests than two: the client
// thread saturated first (measured with a costlier answer check than the
// digest).
constexpr int kWorkers = 2;
// Requests in flight: the knee of a sweep over 1, 2, 4, 6 and 8 (see
// README.md). Six come within a few percent of the throughput of eight, so
// the service, not the client, is the bottleneck, while queueing adds about
// a third to the solo latency instead of doubling it.
constexpr int kInFlight = 6;
constexpr size_t kOpPool = 1 << 16;  // pre-generated request sequence
constexpr int kSetupRepeats = 9;
constexpr uint32_t kMirrorOps = 20000;  // traced Engine-mirror ops
constexpr uint64_t kRssOps = 600000;    // rss_mb is sampled after this many

// One request: its goal and the digest of the answers the oracle expects
// (each answer's first binding; a ground goal's one answer binds nothing).
struct Request {
  std::string goal;
  AnswerDigest expected;
};

struct Workload {
  std::string program;
  std::vector<Request> warmup;  // every table the ops touch
  std::vector<Request> ops;     // the op sequence, cycled
};

// Zipfian popularity ranks in [0, n), drawn exactly by inverting the CDF.
class Zipfian {
 public:
  Zipfian(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Rank(Rng* rng) const {
    size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), rng->Unit()) -
        cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

Workload Generate(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  std::vector<int64_t> label = DistinctLabels(&rng, kNodes);
  Digraph graph;
  w.program =
      ":- table path/2.\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  for (int i = 0; i < kNodes; ++i) {
    int block = i / kBlock;
    int size = std::min(kBlock, kNodes - block * kBlock);
    std::vector<int> targets;
    while (static_cast<int>(targets.size()) < kOutDegree) {
      int t = block * kBlock + static_cast<int>(rng.Below(size));
      if (t != i && std::find(targets.begin(), targets.end(), t) ==
                        targets.end()) {
        targets.push_back(t);
      }
    }
    for (int t : targets) {
      graph.AddEdge(label[i], label[t]);
      w.program += "edge(" + std::to_string(label[i]) + "," +
                   std::to_string(label[t]) + ").\n";
    }
  }
  std::vector<std::vector<int64_t>> reach;
  for (int i = 0; i < kNodes; ++i) reach.push_back(graph.Reachable(label[i]));

  std::vector<Request> open;
  for (int i = 0; i < kNodes; ++i) {
    open.push_back({"path(" + std::to_string(label[i]) + ", X)",
                    DigestOfInts(reach[i])});
  }
  w.warmup = open;

  std::vector<size_t> popularity(kNodes);
  for (int i = 0; i < kNodes; ++i) popularity[i] = i;
  rng.Shuffle(&popularity);
  Zipfian zipf(kNodes, kZipfTheta);
  auto key = [&] { return popularity[zipf.Rank(&rng)]; };
  std::vector<Request> ground;
  for (int g = 0; g < kGroundPairs; ++g) {
    size_t k = key();
    size_t block = k / kBlock;
    size_t m = block * kBlock +
               rng.Below(std::min<size_t>(kBlock, kNodes - block * kBlock));
    bool reachable =
        std::binary_search(reach[k].begin(), reach[k].end(), label[m]);
    AnswerDigest expected;
    if (reachable) expected.Add("");
    ground.push_back({"path(" + std::to_string(label[k]) + ", " +
                          std::to_string(label[m]) + ")",
                      expected});
    w.warmup.push_back(ground.back());
  }

  // 80% open path(K, X), 10% ground path(K, M), 10% EDB edge(K, X).
  w.ops.reserve(kOpPool);
  for (size_t i = 0; i < kOpPool; ++i) {
    uint64_t pick = rng.Below(10);
    if (pick < 8) {
      w.ops.push_back(open[key()]);
    } else if (pick == 8) {
      w.ops.push_back(ground[rng.Below(ground.size())]);
    } else {
      size_t k = key();
      w.ops.push_back({"edge(" + std::to_string(label[k]) + ", X)",
                       DigestOfInts(graph.Successors(label[k]))});
    }
  }
  return w;
}

using Answers = xsb::Result<std::vector<xsb::Answer>>;

// Fails the request on a non-OK status or answers whose digest differs from
// the oracle's.
void Check(const Request& request, const Answers& result, Record* record) {
  if (!result.ok()) {
    record->Fail(request.goal + ": " + result.status().ToString());
    return;
  }
  AnswerDigest got;
  for (const xsb::Answer& answer : result.value()) {
    got.Add(answer.bindings.empty() ? std::string_view()
                                    : answer.bindings[0].second);
  }
  if (got != request.expected) {
    record->Fail(request.goal + ": wrong answers");
  }
}

AnswerDigest DigestOf(const std::vector<std::string>& values) {
  AnswerDigest digest;
  for (const std::string& value : values) digest.Add(value);
  return digest;
}

// Consult plus warming every table the ops touch, all through the service.
std::unique_ptr<xsb::QueryService> SetUp(const Workload& w, Record* record) {
  auto service = std::make_unique<xsb::QueryService>(
      xsb::QueryService::Options{.num_workers = kWorkers});
  xsb::Status status = service->Consult(w.program);
  if (!status.ok()) record->Fail("consult: " + status.ToString());
  std::vector<std::future<Answers>> futures;
  futures.reserve(w.warmup.size());
  for (const Request& request : w.warmup) {
    futures.push_back(service->Submit(request.goal));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Check(w.warmup[i], futures[i].get(), record);
  }
  return service;
}

// Closed loop with `in_flight` requests outstanding, for `seconds`, added
// to *phase. The client waits on the oldest request (the service's queue
// is FIFO), checks its answers and submits the next one. Latency is submit
// -> answers in hand; throughput is completions over the phase's wall time.
// With a tracer, each request becomes a server.submit root span.
void ClosedLoop(xsb::QueryService* service, const Workload& w,
                size_t* next_op, int in_flight, double seconds, Tracer* tracer,
                Record* record, Phase* phase) {
  struct Pending {
    std::future<Answers> future;
    int64_t submit_ns;
    size_t op;
  };
  std::deque<Pending> window;
  uint64_t first = phase->ops();
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  auto submit = [&]() {
    size_t op = (*next_op)++ % w.ops.size();
    int64_t now = NowNs();
    window.push_back(Pending{service->Submit(w.ops[op].goal), now, op});
  };
  for (int i = 0; i < in_flight; ++i) submit();
  while (!window.empty()) {
    Pending pending = std::move(window.front());
    window.pop_front();
    Answers result = pending.future.get();
    int64_t done = NowNs();
    phase->Add(static_cast<double>(done - pending.submit_ns) * 1e-6);
    tracer->Add(Tracer::kSubmit, -1, static_cast<uint32_t>(phase->ops()),
                pending.submit_ns, done);
    if (done < deadline) submit();
    Check(w.ops[pending.op], result, record);
  }
  phase->seconds += SecondsSince(start);
  record->attempted += phase->ops() - first;
}

// The op mix through an Engine over the same program, mirroring
// Engine::ForEach with spans: the parse / solve / render split that the
// service's private sessions do not expose.
void EngineMirror(const Workload& w, Tracer* tracer, Record* record) {
  xsb::Engine engine;
  xsb::Status status = engine.ConsultString(w.program);
  if (!status.ok()) record->Fail("mirror consult: " + status.ToString());
  for (const Request& request : w.warmup) {
    std::vector<std::string> values;
    status = CollectForEach(&engine, request.goal, &values);
    if (!status.ok() || DigestOf(values) != request.expected) {
      record->Fail("mirror warm-up " + request.goal);
    }
  }
  Counters before = ReadCounters(&engine);
  double answers = 0;
  uint32_t ops = 0;
  for (; ops < kMirrorOps; ++ops) {
    const Request& request = w.ops[ops % w.ops.size()];
    std::vector<std::string> values;
    int root = tracer->Begin(Tracer::kOp, -1, ops);
    status = TracedForEach(&engine, request.goal, &values, tracer, root, ops);
    tracer->End(root);
    answers += static_cast<double>(values.size());
    if (!status.ok() || DigestOf(values) != request.expected) {
      record->Fail("mirror " + request.goal);
    }
  }
  record->attempted += ops;
  // Only the engine-side counters come from the mirror; the tabling
  // counters are the service's own.
  SetEngineCounterMetrics(ReadCounters(&engine) - before, ops, record);
  SetEngineSpanMetrics(*tracer, ops, answers, record);
}

}  // namespace

Record RunWarmServe(const RunOptions& options) {
  Record record;
  Workload w = Generate(options.seed);

  std::unique_ptr<xsb::QueryService> service = TimedSetUp(
      kSetupRepeats, [&] { return SetUp(w, &record); }, &record);

  size_t next_op = 0;
  Tracer off(false);
  if (!options.trace) {
    Phase phase(kRssOps);
    for (int i = 0; i < kWindows; ++i) {
      ClosedLoop(service.get(), w, &next_op, kInFlight,
                 options.seconds / kWindows, &off, &record, &phase);
      phase.CloseWindow();
    }
    SetPhaseMetrics(phase, &record);
    SetTableMetrics(&service->tables(), &record);
    return record;
  }

  // Untraced blocks (counters, queueing) alternate with blocks that record
  // request spans (tracing overhead); then one request in flight (solo
  // latency), then the Engine mirror for the parse / solve / render split.
  Tracer tracer(true);
  ServiceDeltas deltas;
  Phase plain(kRssOps);
  Phase traced;
  double block = options.seconds / (2 * kTraceBlocks);
  for (int b = 0; b < kTraceBlocks; ++b) {
    deltas.Start(service.get());
    ClosedLoop(service.get(), w, &next_op, kInFlight, block, &off, &record,
               &plain);
    deltas.Stop(service.get());
    ClosedLoop(service.get(), w, &next_op, kInFlight, block, &tracer, &record,
               &traced);
  }
  SetTableCounterMetrics(deltas.counters(), static_cast<double>(plain.ops()),
                         0, &record);
  record.Set("server.worker_balance", deltas.worker_balance());
  record.Set("trace.overhead",
             1.0 - Ratio(traced.throughput(), plain.throughput()));

  Phase solo;
  ClosedLoop(service.get(), w, &next_op, 1, 1.0, &off, &record, &solo);
  double solo_p50 = Median(solo.latency_ms);
  record.Set("server.solo_latency_ms_p50", solo_p50);
  record.Set("server.queue_wait_ms_p50", Median(plain.latency_ms) - solo_p50);

  SetTableMetrics(&service->tables(), &record);
  service.reset();
  EngineMirror(w, &tracer, &record);
  if (!tracer.WriteTsv(options.trace_path)) {
    record.Fail("cannot write " + options.trace_path);
  }
  SetConsultAnalyzeMetrics(w.program, 3, &record);
  return record;
}

}  // namespace perfbench
