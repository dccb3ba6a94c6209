#include "xsb/engine.h"

#include "db/loader.h"
#include "db/objfile.h"
#include "hilog/hilog.h"

namespace xsb {

Engine::Engine() : Engine(Options()) {}

Engine::Engine(Options options)
    : strict_analysis_(options.strict_analysis),
      db_(/*shared_tables=*/false),
      session_(&db_, Evaluator::Options{
                         .early_completion = options.early_completion,
                         .incremental = options.incremental}) {}

Engine::~Engine() = default;

Status Engine::ConsultString(std::string_view text) {
  Loader loader(&store(), &db_.program);
  loader.set_strict(strict_analysis_);
  return loader.ConsultString(text);
}

Status Engine::ConsultFile(const std::string& path) {
  Loader loader(&store(), &db_.program);
  loader.set_strict(strict_analysis_);
  return loader.ConsultFile(path);
}

Result<size_t> Engine::LoadFactsFormattedFile(const std::string& path,
                                              const std::string& name,
                                              int arity) {
  Loader loader(&store(), &db_.program);
  return loader.LoadFactsFormattedFile(path, name, arity);
}

Status Engine::SaveObjectFile(const std::string& path) {
  return xsb::SaveObjectFile(db_.program, {}, path);
}

Result<size_t> Engine::LoadObjectFile(const std::string& path) {
  return xsb::LoadObjectFile(&db_.program, path);
}

Status Engine::SpecializeHiLog() {
  Result<hilog::SpecializeStats> stats =
      hilog::Specialize(&store(), &db_.program);
  if (!stats.ok()) return stats.status();
  return Status::Ok();
}

Status Engine::ForEach(std::string_view goal,
                       const std::function<bool(const Answer&)>& on_answer) {
  Status status = session_.Run(goal, on_answer);
  // Retired answer tables (frozen snapshots kept alive for open cursors) can
  // only be referenced by choice points of a live query.
  if (session_.idle()) db_.tables.ReleaseRetiredAnswers();
  return status;
}

Result<bool> Engine::Holds(std::string_view goal) {
  bool found = false;
  Status status = ForEach(goal, [&found](const Answer&) {
    found = true;
    return false;
  });
  if (!status.ok()) return status;
  return found;
}

Result<size_t> Engine::Count(std::string_view goal) {
  size_t count = 0;
  Status status = ForEach(goal, [&count](const Answer&) {
    ++count;
    return true;
  });
  if (!status.ok()) return status;
  return count;
}

Result<std::vector<Answer>> Engine::FindAll(std::string_view goal) {
  std::vector<Answer> answers;
  Status status = ForEach(goal, [&answers](const Answer& answer) {
    answers.push_back(answer);
    return true;
  });
  if (!status.ok()) return status;
  return answers;
}

void Engine::AbolishAllTables() {
  evaluator().AbolishAllTables();
  if (session_.idle()) db_.tables.ReleaseRetiredAnswers();
}

analysis::AnalysisResult Engine::Analyze(
    const analysis::AnalyzeOptions& options) {
  return analysis::AnalyzeAndPublish(&db_.program, options);
}

}  // namespace xsb
