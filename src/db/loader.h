#ifndef XSB_DB_LOADER_H_
#define XSB_DB_LOADER_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "db/program.h"
#include "term/store.h"

namespace xsb {

// Consults source text into a Program: reads clauses, processes directives
// (:- table, :- auto_table (alias :- table_all), :- hilog, :- index,
// :- dynamic, :- incremental, :- module), and asserts everything else, then
// analyzes and publishes the program. One Loader per consult unit: the
// paper's `table_all` directive (section 4.3) tables only the unit's own
// predicates on call-graph cycles, and the section 4.4 cut check (S005)
// refuses only the unit's own clauses.
class Loader {
 public:
  Loader(TermStore* store, Program* program)
      : store_(store), program_(program) {}

  // Names the consult unit in source spans and diagnostics. ConsultFile sets
  // it to the path; ConsultString units otherwise get "<consult-N>".
  void set_source_name(std::string name) { source_name_ = std::move(name); }

  // In strict mode, error-severity analysis diagnostics (non-stratified
  // programs) fail the consult instead of being recorded for later.
  void set_strict(bool strict) { strict_ = strict; }

  Status ConsultString(std::string_view text);
  Status ConsultFile(const std::string& path);

  // Formatted bulk reader (section 4.6): each line is `v1,v2,...,vN` with
  // integer or atom fields, asserted as name(v1..vN) with index maintenance.
  // Orders of magnitude cheaper than the general reader. Returns the number
  // of facts loaded.
  Result<size_t> LoadFactsFormatted(std::istream& in, const std::string& name,
                                    int arity);
  Result<size_t> LoadFactsFormattedFile(const std::string& path,
                                        const std::string& name, int arity);

 private:
  Status HandleDirective(Word directive);
  // Applies `fn` to each Name/Arity in `spec` (a single spec, a conjunction,
  // or a list of specs).
  Status ForEachPredSpec(Word spec,
                         const std::function<Status(FunctorId)>& fn);
  Status HandleTableSpec(Word spec);
  // `p(_, min)`-shaped answer-subsumption declaration inside :- table.
  Status ParseSubsumptionSpec(Word spec);
  Status HandleIndexSpec(Word pred_spec, Word index_spec);
  Status HandleDiscontiguousSpec(Word spec);
  Result<FunctorId> ParsePredSpec(Word spec);  // name/arity
  // Applies :- auto_table. if requested, then analyzes and publishes the
  // program; refuses the unit for an S005 in its own clauses, and in strict
  // mode for any error-severity diagnostic.
  Status RunAnalysis();

  TermStore* store_;
  Program* program_;
  std::vector<FunctorId> defined_;  // sorted once the unit is read
  std::string source_name_;
  bool auto_table_requested_ = false;
  bool strict_ = false;
};

}  // namespace xsb

#endif  // XSB_DB_LOADER_H_
