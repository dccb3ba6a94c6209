// Measurement helpers over the library's public surface: the traced mirror
// of Engine::ForEach, counter snapshots and their per-op deltas, and the
// consult/analysis split.
#ifndef XSB_PERFBENCH_PROBE_H_
#define XSB_PERFBENCH_PROBE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "common.h"
#include "server/query_service.h"
#include "tabling/table_space.h"
#include "xsb/engine.h"

namespace perfbench {

// Runs `goal` through the public Engine::ForEach and appends the rendered
// binding of its first named variable to *values ("" for a variable-free
// goal), one entry per answer.
xsb::Status CollectForEach(xsb::Engine* engine, std::string_view goal,
                           std::vector<std::string>* values);

// The same, mirroring Engine::ForEach step for step through the
// store()/program()/machine()/evaluator() escape hatches, with spans around
// Reader::ReadClause, Machine::Solve and each answer's WriteTerm (children
// of `parent`). Answers and side effects are identical to CollectForEach.
xsb::Status TracedForEach(xsb::Engine* engine, std::string_view goal,
                          std::vector<std::string>* values, Tracer* tracer,
                          int parent, uint32_t op);

// Monotonic counters read from MachineStats, Evaluator::EvalStats,
// TableStats and TermStore::HeapMark(). Subtracting two snapshots gives the
// work done between them.
struct Counters {
  // MachineStats (Engine only).
  uint64_t user_calls = 0;
  uint64_t choice_points = 0;
  uint64_t head_unifications = 0;
  uint64_t factored_returns = 0;
  uint64_t heap_words = 0;  // TermStore::HeapMark()
  // Evaluator::EvalStats (Engine only).
  uint64_t batches = 0;
  // TableStats (Engine and QueryService).
  uint64_t subgoals = 0;
  uint64_t answers_new = 0;
  uint64_t answers_dup = 0;
  uint64_t suspensions = 0;
  uint64_t resumptions = 0;
  uint64_t invalidated = 0;
  uint64_t reevaluated = 0;
  uint64_t warm_hits = 0;
  uint64_t inprogress_waits = 0;
  uint64_t parallel_batches = 0;
  uint64_t shard_escalations = 0;
  uint64_t coarse_fallbacks = 0;

  Counters operator-(const Counters& base) const;
  Counters& operator+=(const Counters& delta);
};

Counters ReadCounters(const xsb::TableSpace& tables);
Counters ReadCounters(xsb::Engine* engine);

// The engine.* count metrics (and tabling.batches_per_op, an Evaluator
// counter) from a delta over `ops` ops.
void SetEngineCounterMetrics(const Counters& delta, double ops,
                             Record* record);

// The tabling.* count metrics from a delta over `ops` ops and `updates`
// update calls.
void SetTableCounterMetrics(const Counters& delta, double ops, double updates,
                            Record* record);

// Work a QueryService did between Start and Stop, summed over every
// Start/Stop pair (a workload may replace its service mid-phase).
class ServiceDeltas {
 public:
  void Start(xsb::QueryService* service);
  void Stop(xsb::QueryService* service);

  const Counters& counters() const { return counters_; }
  // server.worker_balance: min / max of the queries each worker served.
  double worker_balance() const;

 private:
  Counters base_;
  xsb::QueryService::ServiceStats stats_base_;
  Counters counters_;
  std::vector<uint64_t> served_;
};

// The first binding of every answer ("" for a variable-free goal).
std::vector<std::string> FirstBindings(const std::vector<xsb::Answer>& answers);

// Table-space storage: table_mb (end-to-end) and the trie node counts
// (per-layer), plus the exact byte count as a deterministic counter. Takes
// every evaluation shard for the walk.
void SetTableMetrics(xsb::TableSpace* tables, Record* record);

// db.consult_s and analysis.analyze_s: medians over `repeats` fresh engines
// of ConsultString minus Engine::Analyze, and Engine::Analyze.
void SetConsultAnalyzeMetrics(const std::string& program, int repeats,
                              Record* record);

// Span-derived per-layer metrics of a traced Engine phase: parse, solve
// self time, render, abolish and the unattributed share of the op roots.
void SetEngineSpanMetrics(const Tracer& tracer, double ops, double answers,
                          Record* record);

}  // namespace perfbench

#endif  // XSB_PERFBENCH_PROBE_H_
