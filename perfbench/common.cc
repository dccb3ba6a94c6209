#include "common.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <unordered_set>

namespace perfbench {

std::vector<int64_t> DistinctLabels(Rng* rng, size_t count) {
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> labels;
  labels.reserve(count);
  while (labels.size() < count) {
    int64_t label = 1 + static_cast<int64_t>(rng->Below(999999));
    if (seen.insert(label).second) labels.push_back(label);
  }
  return labels;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  if (!(stat >> cpu) || cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},          {"throughput_ops_s", "ops/s"},
      {"latency_ms_p50", "ms"},  {"latency_ms_p99", "ms"},
      {"rss_mb", "MB"},          {"table_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"parser.read_us_per_op", "us"},
      {"engine.solve_self_us_per_op", "us"},
      {"engine.user_calls_per_op", "count/op"},
      {"engine.choice_points_per_op", "count/op"},
      {"engine.head_unifications_per_op", "count/op"},
      {"engine.factored_returns_per_op", "count/op"},
      {"engine.heap_words_retained_per_op", "words/op"},
      {"tabling.subgoals_per_op", "count/op"},
      {"tabling.answers_new_per_op", "count/op"},
      {"tabling.answers_dup_per_op", "count/op"},
      {"tabling.insert_yield", "ratio"},
      {"tabling.suspensions_per_op", "count/op"},
      {"tabling.resumptions_per_op", "count/op"},
      {"tabling.resumptions_per_answer", "ratio"},
      {"tabling.batches_per_op", "count/op"},
      {"tabling.abolish_us_per_op", "us"},
      {"tabling.warm_hits_per_op", "count/op"},
      {"tabling.invalidated_per_update", "count/update"},
      {"tabling.reevaluated_per_update", "count/update"},
      {"tabling.reeval_yield", "ratio"},
      {"tabling.parallel_batches_per_op", "count/op"},
      {"tabling.inprogress_waits", "count/op"},
      {"tabling.shard_escalations", "count/op"},
      {"tabling.coarse_fallbacks", "count/op"},
      {"tabling.answer_trie_nodes", "count"},
      {"tabling.call_trie_nodes", "count"},
      {"term.render_us_per_answer", "us"},
      {"term.render_share", "ratio"},
      {"db.consult_s", "s"},
      {"analysis.analyze_s", "s"},
      {"db.assert_us_p50", "us"},
      {"db.retract_us_p50", "us"},
      {"server.solo_latency_ms_p50", "ms"},
      {"server.queue_wait_ms_p50", "ms"},
      {"server.worker_balance", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kSpecs;
}

const char* Tracer::NameOf(int name) {
  static const char* kNames[kNumNames] = {
      "op", "engine.abolish", "parser.read", "engine.solve",
      "term.render", "server.submit", "db.assert", "db.retract"};
  return name >= 0 && name < kNumNames ? kNames[name] : "?";
}

Tracer::Totals Tracer::Summarize() const {
  Totals totals;
  // Children's intervals per parent, then the union each parent covers.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int64_t duration = span.end_ns - span.start_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    totals.total_s[span.name] += static_cast<double>(duration) * 1e-9;
    totals.self_s[span.name] += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

bool Tracer::WriteTsv(const std::string& path, uint32_t max_op) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "name\top\tparent\tstart_ns\tend_ns\n");
  for (const Span& span : spans_) {
    if (span.op >= max_op) continue;
    std::fprintf(out, "%s\t%u\t%d\t%lld\t%lld\n", NameOf(span.name), span.op,
                 span.parent, static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(out) == 0;
}

void SetPhaseMetrics(const Phase& phase, Record* record) {
  struct Window {
    size_t first;
    size_t end;
    double seconds;
  };
  const std::vector<double>& latency = phase.latency_ms;
  std::vector<Window> windows;
  if (phase.window_size > 0) {
    std::vector<double> prefix(latency.size() + 1, 0);
    for (size_t i = 0; i < latency.size(); ++i) {
      prefix[i + 1] = prefix[i] + latency[i];
    }
    size_t size = std::min(phase.window_size, latency.size());
    size_t step = std::max<size_t>(1, size / 10);
    for (size_t first = 0; first + size <= latency.size(); first += step) {
      windows.push_back(
          {first, first + size, (prefix[first + size] - prefix[first]) * 1e-3});
    }
  } else {
    size_t first = 0;
    double start_s = 0;
    for (size_t i = 0; i < phase.window_ops.size(); ++i) {
      windows.push_back(
          {first, phase.window_ops[i], phase.window_seconds[i] - start_s});
      first = phase.window_ops[i];
      start_s = phase.window_seconds[i];
    }
    if (windows.empty()) windows.push_back({0, latency.size(), phase.seconds});
  }
  // Each metric takes its best value over the windows.
  double best_throughput = 0;
  double best_p50 = std::numeric_limits<double>::infinity();
  double best_p99 = best_p50;
  record->window_samples = latency.size();
  for (const Window& w : windows) {
    std::vector<double> stretch(latency.begin() + w.first,
                                latency.begin() + w.end);
    record->window_samples =
        std::min<uint64_t>(record->window_samples, stretch.size());
    best_throughput = std::max(
        best_throughput, Ratio(static_cast<double>(stretch.size()), w.seconds));
    best_p50 = std::min(best_p50, Percentile(stretch, 0.50));
    best_p99 = std::min(best_p99, Percentile(std::move(stretch), 0.99));
  }
  // The tail of a one-client loop of millisecond ops is where the host's
  // frequent short disturbances land: over the whole run their share is
  // steady, while whether some window escaped them all is luck.
  if (phase.window_size > 0) best_p99 = Percentile(latency, 0.99);
  record->Set("throughput_ops_s", best_throughput);
  record->Set("latency_ms_p50", best_p50);
  record->Set("latency_ms_p99", best_p99);
  record->Set("rss_mb", phase.rss_mb > 0 ? phase.rss_mb : RssMb());
}

}  // namespace perfbench
