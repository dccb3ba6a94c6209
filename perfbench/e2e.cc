// perfbench_e2e: the end-to-end benchmark program. Runs one workload for a
// given seed and duration, checks every answer, and prints
//   * a human-readable summary,
//   * a `RECORD {...}` line with every metric and deterministic counter,
//   * as the last line, the result object
//     {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
//     holding the end-to-end metrics (--trace 0) or the per-layer metrics
//     (--trace 1).
//
// Usage: perfbench_e2e --workload cold_eval|warm_serve|update_stream
//                      --seed N --seconds S --trace 0|1 [--trace-file PATH]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::MetricSpec;
using perfbench::Record;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const Record& record,
                          const std::vector<MetricSpec>& specs) {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = record.metrics.find(specs[i].name);
    double value = it == record.metrics.end() ? 0 : it->second;
    if (i > 0) out += ", ";
    out += JsonString(specs[i].name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(specs[i].unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  options.trace_path = "perfbench-trace.tsv";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  Record record;
  perfbench::CpuTicks before = perfbench::ReadCpuTicks();
  if (workload == "cold_eval") {
    record = perfbench::RunColdEval(options);
  } else if (workload == "warm_serve") {
    record = perfbench::RunWarmServe(options);
  } else if (workload == "update_stream") {
    record = perfbench::RunUpdateStream(options);
  } else {
    return Usage();
  }
  perfbench::CpuTicks after = perfbench::ReadCpuTicks();
  double steal_share = perfbench::Ratio(
      static_cast<double>(after.steal - before.steal),
      static_cast<double>(after.total - before.total));
  double error_rate = record.attempted == 0
                          ? 0
                          : static_cast<double>(record.failed) /
                                static_cast<double>(record.attempted);

  const std::vector<MetricSpec>& reported =
      options.trace ? perfbench::PerLayerMetrics()
                    : perfbench::EndToEndMetrics();
  std::printf("workload %s seed %llu trace %d: %llu ops, %llu failed, "
              "error_rate %s, host steal %.1f%% of CPU time\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed),
              JsonNumber(error_rate).c_str(), 100 * steal_share);
  if (record.window_samples > 0) {
    std::printf("  at least %llu latency samples per window\n",
                static_cast<unsigned long long>(record.window_samples));
  }
  for (const std::string& problem : record.problems) {
    std::printf("  mismatch: %s\n", problem.c_str());
  }
  for (const MetricSpec& spec : reported) {
    auto it = record.metrics.find(spec.name);
    std::printf("  %-36s %14.6g %s%s\n", spec.name,
                it == record.metrics.end() ? 0.0 : it->second, spec.unit,
                it == record.metrics.end() ? "  (not exercised)" : "");
  }

  std::string deterministic = "{";
  for (const auto& [name, value] : record.deterministic) {
    if (deterministic.size() > 1) deterministic += ", ";
    deterministic += JsonString(name) + ": " + JsonNumber(value);
  }
  deterministic += "}";
  std::printf("RECORD {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"seconds\": %s, \"error_rate\": %s, \"steal_share\": %s, "
              "\"window_samples\": %llu, \"metrics\": %s, "
              "\"deterministic\": %s}\n",
              JsonString(workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, JsonNumber(options.seconds).c_str(),
              JsonNumber(error_rate).c_str(), JsonNumber(steal_share).c_str(),
              static_cast<unsigned long long>(record.window_samples),
              MetricsObject(record, reported).c_str(), deterministic.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              record.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed),
              MetricsObject(record, reported).c_str());
  return 0;
}
