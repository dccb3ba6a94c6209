// Shared pieces of the end-to-end benchmark: the seeded generator, clocks,
// latency summaries, the in-memory span tracer and the metric record every
// workload fills in.
#ifndef XSB_PERFBENCH_COMMON_H_
#define XSB_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64: the same seed gives the same inputs on every platform (the
// standard distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// `count` distinct labels drawn from [1, 1000000), in random order.
std::vector<int64_t> DistinctLabels(Rng* rng, size_t count);

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// Resident set size of this process in MB (/proc/self/statm).
double RssMb();

// Machine-wide CPU time counters from /proc/stat, in clock ticks: `steal`
// is time the hypervisor ran something else while this machine's CPUs had
// work. Its share of the total tells how disturbed a run was.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

// One span: a named interval, the span that caused it (-1 for an op's root)
// and the op it belongs to. Kept in memory and written once at the end.
struct Span {
  int name;
  int parent;
  uint32_t op;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  // Span names, indexed by Span::name.
  enum Name {
    kOp,          // one workload op (the root)
    kAbolish,     // Engine::AbolishAllTables
    kRead,        // Reader::ReadClause
    kSolve,       // Machine::Solve
    kRender,      // WriteTerm over one answer's bindings
    kSubmit,      // QueryService::Submit -> future ready
    kAssert,      // QueryService::Update(assertz(...))
    kRetract,     // QueryService::Update(retract(...))
    kNumNames,
  };
  static const char* NameOf(int name);

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the span index, or -1 when disabled.
  int Begin(int name, int parent, uint32_t op) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, op, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  // A span whose interval was measured elsewhere (e.g. a request's submit
  // and completion times).
  void Add(int name, int parent, uint32_t op, int64_t start_ns,
           int64_t end_ns) {
    if (enabled_) spans_.push_back(Span{name, parent, op, start_ns, end_ns});
  }

  // Totals per span name: summed duration and summed self time (duration
  // minus the union of its children's intervals), in seconds.
  struct Totals {
    double total_s[kNumNames] = {};
    double self_s[kNumNames] = {};
  };
  Totals Summarize() const;

  // Writes the spans of ops below `max_op` as tab-separated lines (name,
  // op, parent, start, end; times in ns relative to the first span), which
  // keeps the file small while showing every kind of op. False on I/O
  // failure.
  bool WriteTsv(const std::string& path, uint32_t max_op = 200) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// A reported metric: its name and unit. The lists below are the benchmark's
// contract (BENCHMARK.json lists the same names and units).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Everything one run measured. `metrics` maps a metric name to its value;
// `deterministic` holds counters that must repeat exactly for a fixed seed
// (compare mode fails on drift in them).
struct Record {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t window_samples = 0;  // latency samples in the smallest window
  std::vector<double> setup_seconds;
  std::vector<std::string> problems;  // first few oracle mismatches
  std::map<std::string, double> metrics;
  std::map<std::string, double> deterministic;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // One more set-up time. setup_s is the fastest of them, by the same rule
  // as the best window (see kWindows): the median tracked the host's speed
  // during the run.
  void AddSetUp(double seconds) {
    setup_seconds.push_back(seconds);
    Set("setup_s",
        *std::min_element(setup_seconds.begin(), setup_seconds.end()));
  }
  // Records a failed op; keeps the first few mismatch descriptions.
  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 5) problems.push_back(what);
  }
};

// Latency samples of one timed phase plus its duration. The resident set
// is sampled once, when `rss_at_ops` ops have completed: the library's
// per-query memory grows with the op count, so a fixed count keeps rss_mb
// comparable between code that completes more or fewer ops in a run.
struct Phase {
  explicit Phase(uint64_t rss_at = 0, size_t ops_per_window = 0)
      : rss_at_ops(rss_at), window_size(ops_per_window) {}
  std::vector<double> latency_ms;
  double seconds = 0;
  uint64_t rss_at_ops;
  // Nonzero: SetPhaseMetrics reports the fastest stretch of this many
  // consecutive ops. Zero: the fastest window closed by CloseWindow.
  size_t window_size;
  double rss_mb = 0;  // 0 until sampled
  // Op count and seconds at the end of each window (see CloseWindow).
  std::vector<size_t> window_ops;
  std::vector<double> window_seconds;
  void Add(double ms) {
    latency_ms.push_back(ms);
    if (latency_ms.size() == rss_at_ops) rss_mb = RssMb();
  }
  // An op of a one-client loop: its latency also counts as phase time (the
  // client's work between ops is think time).
  void AddOp(double ms) {
    Add(ms);
    seconds += ms * 1e-3;
  }
  // Ends a window of wall time.
  void CloseWindow() {
    window_ops.push_back(latency_ms.size());
    window_seconds.push_back(seconds);
  }
  uint64_t ops() const { return latency_ms.size(); }
  double throughput() const {
    return seconds > 0 ? static_cast<double>(ops()) / seconds : 0;
  }
};

// Other tenants of the machine slow it down in episodes of a fraction of a
// second to minutes (CPU steal, or a slow mode about 1.6x slower without
// any steal). So a run reports, for each of throughput, p50 and p99, the
// best value any of its windows shows, like best-of-N timing: noise only
// ever adds time, so the best window is the least disturbed one.
// warm_serve cuts its run into this many windows of equal wall time;
inline constexpr int kWindows = 20;

// the one-client loops (cold_eval, update_stream) take every stretch of
// this many consecutive ops, starting every tenth of a stretch, and their
// p99 is taken over the whole run instead (see SetPhaseMetrics).
inline constexpr size_t kWindowOps = 1100;

// A traced run alternates this many untraced and traced blocks, so that a
// change in the host's speed during the run weighs on both halves alike and
// their throughput ratio measures the tracing overhead.
inline constexpr int kTraceBlocks = 5;

// Fills the throughput, latency and rss_mb end-to-end metrics from a timed
// phase: the best throughput, p50 and p99 over its windows, or those of the
// whole phase when it has none; with op-count windows, p99 is the whole
// phase's (rss_mb falls back to the current RSS if the checkpoint was never
// reached).
void SetPhaseMetrics(const Phase& phase, Record* record);

// Builds the workload's engine or service `repeats` times, each after the
// previous one is gone, adding each build time to setup_s. Returns the last
// one built. The workloads that replace their engine or service during the
// run add those set-ups too, so setup_s samples the whole run.
template <typename SetUpFn>
auto TimedSetUp(int repeats, const SetUpFn& set_up, Record* record) {
  decltype(set_up()) built;
  for (int r = 0; r < repeats; ++r) {
    built.reset();
    int64_t start = NowNs();
    built = set_up();
    record->AddSetUp(SecondsSince(start));
  }
  return built;
}

// Safe ratio: 0 when the base is 0.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // XSB_PERFBENCH_COMMON_H_
