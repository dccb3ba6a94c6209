// The three workloads of the end-to-end benchmark. Each drives the library
// only through xsb::Engine / xsb::QueryService and their public accessors,
// checks every answer against the oracle, and fills a Record.
#ifndef XSB_PERFBENCH_WORKLOADS_H_
#define XSB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  // false: the end-to-end metrics, untraced. true: the per-layer metrics,
  // from counter deltas and an in-memory span trace written to trace_path.
  bool trace = false;
  std::string trace_path;
};

// One Engine, one client; an op is AbolishAllTables() + one cold query,
// round-robin over five paper shapes.
Record RunColdEval(const RunOptions& options);

// QueryService (2 workers) with every table warm; one client thread keeps a
// fixed number of requests in flight over a skewed key mix.
Record RunWarmServe(const RunOptions& options);

// QueryService (2 workers) over 8 incremental TC families; an op is one
// round of assertz, ~80 concurrent queries, retract.
Record RunUpdateStream(const RunOptions& options);

}  // namespace perfbench

#endif  // XSB_PERFBENCH_WORKLOADS_H_
