#ifndef XSB_XSB_ENGINE_H_
#define XSB_XSB_ENGINE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "base/status.h"
#include "xsb/session.h"

namespace xsb {

// The in-memory deductive database engine: the public face of this library.
//
//   xsb::Engine engine;
//   engine.ConsultString(
//       ":- table path/2.\n"
//       "path(X,Y) :- edge(X,Y).\n"
//       "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
//       "edge(1,2). edge(2,3). edge(3,1).\n");
//   engine.ForEach("path(1, X)", [](const xsb::Answer& answer) {
//     std::cout << answer.ToString() << "\n";
//     return true;  // keep enumerating
//   });
//
// The engine evaluates tabled predicates with SLG resolution (finite and
// non-redundant on datalog) and everything else with Prolog's SLDNF, exactly
// as the paper describes. HiLog syntax is accepted throughout. An Engine is a
// Database with one Session (xsb/session.h); it is not thread-safe.
class Engine {
 public:
  struct Options {
    bool early_completion = false;  // complete ground calls at first answer
    bool strict_analysis = false;   // consults fail on error-severity
                                    // analysis diagnostics (non-stratified
                                    // programs) instead of deferring to the
                                    // runtime checks
    bool incremental = true;        // maintain tables across updates to
                                    // :- incremental predicates; false =
                                    // abolish-everything baseline
  };

  Engine();
  explicit Engine(Options options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Loading ---------------------------------------------------------------

  // Consults HiLog source text (clauses + directives).
  Status ConsultString(std::string_view text);
  Status ConsultFile(const std::string& path);

  // Bulk-loads "v1,v2,..." lines as name/arity facts (the formatted read of
  // section 4.6). Returns the number of facts.
  Result<size_t> LoadFactsFormattedFile(const std::string& path,
                                        const std::string& name, int arity);

  // Binary object files: save the named predicates ({} = all), reload later.
  Status SaveObjectFile(const std::string& path);
  Result<size_t> LoadObjectFile(const std::string& path);

  // Applies the HiLog call-specialization pass (section 4.7).
  Status SpecializeHiLog();

  // --- Queries ----------------------------------------------------------------

  // Enumerates answers tuple-at-a-time; the callback returns false to stop.
  Status ForEach(std::string_view goal,
                 const std::function<bool(const Answer&)>& on_answer);

  // True if at least one solution exists.
  Result<bool> Holds(std::string_view goal);

  // Number of solutions.
  Result<size_t> Count(std::string_view goal);

  // All answers, materialized.
  Result<std::vector<Answer>> FindAll(std::string_view goal);

  // Drops all tables (answers will be recomputed on the next call).
  void AbolishAllTables();

  // --- Analysis ---------------------------------------------------------------

  // Runs the consult-time program analyzer on demand (the C++ face of the
  // analyze/1 builtin) and republishes its results, as consult does
  // (analysis::AnalyzeAndPublish).
  analysis::AnalysisResult Analyze(
      const analysis::AnalyzeOptions& options = analysis::AnalyzeOptions());

  // --- Escape hatches for benchmarks and tests --------------------------------

  TermStore& store() { return session_.store(); }
  Program& program() { return db_.program; }
  Machine& machine() { return session_.machine(); }
  Evaluator& evaluator() { return session_.evaluator(); }
  SymbolTable& symbols() { return db_.symbols; }

 private:
  bool strict_analysis_ = false;
  Database db_;
  Session session_;
};

}  // namespace xsb

#endif  // XSB_XSB_ENGINE_H_
