#include "server/query_service.h"

#include <utility>

#include "db/loader.h"
#include "tabling/epoch.h"

namespace xsb {
namespace {

Evaluator::Options SessionOptions(const QueryService::Options& options) {
  return Evaluator::Options{.early_completion = options.early_completion,
                            .incremental = options.incremental};
}

}  // namespace

QueryService::QueryService(Options options)
    : db_(/*shared_tables=*/true),
      // Built first, so its evaluator takes the Program's update-listener
      // slot (see Evaluator).
      control_(&db_, SessionOptions(options)) {
  int n = options.num_workers < 1 ? 1 : options.num_workers;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(&db_, SessionOptions(options)));
  }
  // Sessions first, then threads: a worker loop must never observe a
  // half-built pool.
  for (auto& worker : workers_) {
    worker->thread = std::thread(&QueryService::WorkerLoop, this,
                                 worker.get());
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& job : queue_) {
    job.promise.set_value(
        Status(ErrorCode::kInvalid, "query service shut down"));
  }
}

Status QueryService::Consult(std::string_view text) {
  return PausedMutation([&]() -> Status {
    Loader loader(&control_.store(), &db_.program);
    return loader.ConsultString(text);
  });
}

Status QueryService::Update(std::string_view goal) {
  return PausedMutation([&]() -> Status {
    bool succeeded = false;
    Status status = control_.Run(goal, [&succeeded](Answer&&) {
      succeeded = true;
      return false;
    });
    if (!status.ok()) return status;
    if (!succeeded) {
      return Status(ErrorCode::kInvalid,
                    "update goal failed: " + std::string(goal));
    }
    return Status::Ok();
  });
}

std::future<Result<std::vector<Answer>>> QueryService::Submit(
    std::string goal) {
  Job job;
  job.goal = std::move(goal);
  std::future<Result<std::vector<Answer>>> future =
      job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      job.promise.set_value(
          Status(ErrorCode::kInvalid, "query service shut down"));
      return future;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return future;
}

Result<std::vector<Answer>> QueryService::Query(std::string_view goal) {
  return Submit(std::string(goal)).get();
}

Result<size_t> QueryService::Count(std::string_view goal) {
  Result<std::vector<Answer>> answers = Query(goal);
  if (!answers.ok()) return answers.status();
  return answers.value().size();
}

void QueryService::WorkerLoop(Worker* worker) {
  // Each serving thread owns an epoch slot for the lifetime of the pool;
  // individual queries are bracketed with EpochGuard below.
  int slot = db_.tables.epochs().AcquireSlot();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_workers_;
    }
    {
      // The guard pins this thread's epoch for the whole query: any table
      // retired after this point stays allocated until we exit.
      EpochGuard guard(&db_.tables.epochs(), slot);
      std::vector<Answer> answers;
      Status status = worker->session.Run(job.goal, [&answers](Answer&& a) {
        answers.push_back(std::move(a));
        return true;
      });
      worker->queries_served.fetch_add(1, std::memory_order_relaxed);
      if (status.ok()) {
        job.promise.set_value(std::move(answers));
      } else {
        worker->errors.fetch_add(1, std::memory_order_relaxed);
        job.promise.set_value(status);
      }
    }
    // Outside the guard: reclaim whatever every serving thread has passed.
    db_.tables.ReleaseRetiredAnswers();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --busy_workers_;
    }
    idle_cv_.notify_all();
  }
  db_.tables.epochs().ReleaseSlot(slot);
}

Status QueryService::PausedMutation(const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> control(control_mutex_);
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    paused_ = true;
    // Workers re-check `paused_` before picking up a job, so once the busy
    // count hits zero the world is stopped: no session reads the Program
    // or evaluates until we resume.
    idle_cv_.wait(lock, [&] { return busy_workers_ == 0; });
  }
  Status status = fn();
  // All workers idle, all epoch slots idle: every retired table frees now.
  db_.tables.ReleaseRetiredAnswers();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
  return status;
}

QueryService::ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.per_worker.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStats ws;
    ws.queries_served =
        worker->queries_served.load(std::memory_order_relaxed);
    ws.errors = worker->errors.load(std::memory_order_relaxed);
    stats.queries_served += ws.queries_served;
    stats.per_worker.push_back(ws);
  }
  const TableStats& ts = db_.tables.stats();
  stats.shared_table_hits =
      ts.shared_table_hits.load(std::memory_order_relaxed);
  stats.waits_on_inprogress =
      ts.waits_on_inprogress.load(std::memory_order_relaxed);
  stats.epochs_retired = ts.epochs_retired.load(std::memory_order_relaxed);
  stats.parallel_batches =
      ts.parallel_batches.load(std::memory_order_relaxed);
  stats.shard_escalations =
      ts.shard_escalations.load(std::memory_order_relaxed);
  stats.coarse_fallbacks =
      ts.coarse_fallbacks.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace xsb
