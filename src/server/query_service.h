#ifndef XSB_SERVER_QUERY_SERVICE_H_
#define XSB_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/status.h"
#include "xsb/session.h"

namespace xsb {

// Concurrent query serving over one shared table space.
//
// A QueryService owns one Database (program + shared table space) and a pool
// of worker threads. Each worker runs its own Session — private heap,
// Machine and Evaluator — but all sessions evaluate against the one shared
// TableSpace, so a table computed by any worker serves every later query
// from every worker:
//
//   xsb::QueryService service({.num_workers = 4});
//   service.Consult(":- table path/2."
//                   "path(X,Y) :- edge(X,Y)."
//                   "path(X,Y) :- path(X,Z), edge(Z,Y)."
//                   "edge(1,2). edge(2,3).");
//   auto warm = service.Query("path(1,X)");          // blocking
//   auto fut  = service.Submit("path(2,X)");         // async, any worker
//   auto answers = fut.get();
//
// Concurrency contract (DESIGN.md "Threading model" has the full story):
//   * Warm queries — every tabled call hits a published complete+valid
//     table — run entirely lock-free: variant probe via the concurrent call
//     trie, answer enumeration straight off the append-only answer tries.
//   * Cold queries evaluate *in parallel* when independent: the first
//     caller of an unevaluated variant acquires its predicate's shard
//     reach mask (analyzer SCC output) and computes it; workers whose cold
//     roots reach disjoint shard sets evaluate concurrently against the
//     shared space, and concurrent callers of the *same* variant park on
//     the completion condvar instead of duplicating the work. Dependencies
//     that cross the owned mask mid-evaluation widen it non-blockingly or
//     restart the batch under the full mask (coarse_fallbacks counter).
//   * Consult/Update are pause-the-world: the service drains in-flight
//     queries, mutates the program on the control session (which owns the
//     Program's update-listener slot, so incremental invalidation works),
//     then resumes the pool. Queries submitted meanwhile just queue.
//   * Every worker holds an epoch slot and brackets each query with an
//     epoch guard, so tables retired by an update are reclaimed only after
//     every reader that could see them has moved on.
class QueryService {
 public:
  struct Options {
    int num_workers = 2;           // worker threads (>= 1)
    bool early_completion = false;
    bool incremental = true;
  };

  QueryService() : QueryService(Options()) {}
  explicit QueryService(Options options);
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Program maintenance (pause-the-world, serialized) --------------------

  // Consults HiLog source text on the control session.
  Status Consult(std::string_view text);
  // Runs `goal` once on the control session (assert/retract updates,
  // abolish_table_call/1, ...). Incremental invalidation triggered by the
  // goal propagates through the shared table space before workers resume.
  Status Update(std::string_view goal);

  // --- Queries (concurrent) -------------------------------------------------

  // Enqueues `goal` for the next free worker; the future delivers all
  // answers (or the evaluation error).
  std::future<Result<std::vector<Answer>>> Submit(std::string goal);

  // Blocking conveniences over Submit.
  Result<std::vector<Answer>> Query(std::string_view goal);
  Result<size_t> Count(std::string_view goal);

  // --- Counters -------------------------------------------------------------

  // Per-worker and aggregate service counters. All underlying counters are
  // relaxed atomics: each is an independent monotonic event count; reading
  // while the pool is serving observes some recent value of each counter,
  // with no cross-counter snapshot implied.
  struct WorkerStats {
    uint64_t queries_served = 0;
    uint64_t errors = 0;
  };
  struct ServiceStats {
    std::vector<WorkerStats> per_worker;
    uint64_t queries_served = 0;      // sum over workers
    uint64_t shared_table_hits = 0;   // lock-free warm-table serves
    uint64_t waits_on_inprogress = 0; // callers parked on another batch
    uint64_t epochs_retired = 0;      // retired answer tables reclaimed
    uint64_t parallel_batches = 0;    // cold batches on a proper shard subset
    uint64_t shard_escalations = 0;   // successful mid-batch mask widenings
    uint64_t coarse_fallbacks = 0;    // batches restarted under all shards
  };
  ServiceStats Stats() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Escape hatches for tests and benches.
  TableSpace& tables() { return db_.tables; }
  Program& program() { return db_.program; }
  // Inspect sessions only while no query is in flight, e.g. right after
  // Update returns with no other client submitting.
  Session& control_session() { return control_; }
  Session& worker_session(int i) { return workers_[i]->session; }

 private:
  struct Worker {
    Worker(Database* db, const Evaluator::Options& options)
        : session(db, options) {}
    Session session;
    std::thread thread;
    std::atomic<uint64_t> queries_served{0};
    std::atomic<uint64_t> errors{0};
  };

  struct Job {
    std::string goal;
    std::promise<Result<std::vector<Answer>>> promise;
  };

  void WorkerLoop(Worker* worker);

  // Pause-the-world bracket for program mutation: blocks new job pickup,
  // drains in-flight queries, runs `fn`, resumes the pool.
  Status PausedMutation(const std::function<Status()>& fn);

  Database db_;
  Session control_;                  // owns the update-listener slot
  std::mutex control_mutex_;         // serializes Consult/Update

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  // workers: job available / unpaused
  std::condition_variable idle_cv_;   // control: a worker went idle
  std::deque<Job> queue_;
  int busy_workers_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
};

}  // namespace xsb

#endif  // XSB_SERVER_QUERY_SERVICE_H_
