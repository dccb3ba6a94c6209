#ifndef XSB_ANALYSIS_ANALYZER_H_
#define XSB_ANALYSIS_ANALYZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/modes.h"
#include "db/program.h"

namespace xsb::analysis {

// How a call site reaches its callee, as far as stratification is concerned.
// Negative and aggregated edges both force the callee into a strictly lower
// stratum; they are distinguished only for diagnostics.
enum class EdgeKind { kPositive, kNegative, kAggregate };

// One edge of the predicate call graph. `span` locates the clause the edge
// was collected from, so stratification errors can cite source positions.
struct CallEdge {
  FunctorId from;
  FunctorId to;
  EdgeKind kind;
  SourceSpan span;
};

// A strongly connected component of the call graph, in Tarjan (reverse
// topological) discovery order: every edge out of a component leads to an
// earlier component.
struct SccInfo {
  std::vector<FunctorId> members;   // sorted by functor id
  bool recursive = false;           // a cycle runs through the component
  bool negative_internal = false;   // ...and crosses negation/aggregation
  // For negative_internal components: one witness edge for the message.
  CallEdge witness{};
};

enum class StratVerdict {
  kStratified,   // no negation inside any SCC: SLG/bottom-up safe as-is
  kWfsRequired,  // negation inside an SCC: downgrade to well-founded
                 // semantics (or rely on runtime modular-stratification
                 // checks, which may reject the query)
};

// Everything the consult-time pass pipeline produced.
struct AnalysisResult {
  // A widened call site (see `widened`) is one edge to the hub of its
  // polarity, a synthetic node with an edge to every defined predicate: the
  // same reachability as an edge to each, in linear space. Hub ids lie above
  // every real functor id; they occur in `edges` and `scc_of` (in the
  // component of the widened callers), never in SCC members or diagnostics.
  std::vector<CallEdge> edges;
  std::vector<SccInfo> sccs;
  std::unordered_map<FunctorId, int> scc_of;
  StratVerdict verdict = StratVerdict::kStratified;
  // True when a HiLog/var call forced conservative widening (it may reach
  // any predicate), making SCCs coarser than the real call structure.
  bool widened = false;

  std::vector<Diagnostic> diagnostics;

  // Auto-table advisor output: untabled predicates in recursive SCCs.
  std::vector<FunctorId> table_suggestions;
  // Index advisor output: predicate -> 1-based argument to index on.
  std::vector<std::pair<FunctorId, int>> index_suggestions;

  // Mode/groundness analysis output (per-predicate call-pattern tabulation);
  // empty for a structure-only analysis.
  ModeResult modes;

  bool stratified() const { return verdict == StratVerdict::kStratified; }
};

struct AnalyzeOptions {
  // Build only the call graph, its SCCs, the stratification verdict and the
  // auto-table suggestions: no safety, cut-check, index-advisor, lint or mode
  // findings. What applying :- auto_table. and republishing after a runtime
  // change need, without the mode fixpoint's cost.
  bool structure_only = false;
  // Known entry-point call shapes to seed the mode fixpoint with, beyond
  // what in-program call sites reveal.
  std::vector<ModeEntry> mode_entries;
};

// Runs the pass pipeline over every predicate of `program`: call-graph
// construction (positive/negative/aggregated edges, HiLog calls widened
// conservatively), Tarjan SCCs, stratification check, safety analysis
// (including the section 4.4 cut check), auto-table and index advisors,
// mode analysis and style lints. Appends the consult-time lints stored on
// the program (singleton variables) to the diagnostics. Read-only: never
// mutates the program.
AnalysisResult Analyze(const Program& program,
                       const AnalyzeOptions& options = AnalyzeOptions());

// Analyze(), then stores on the program what the runtime reads from it:
//   * the stratification verdict: every member of a negation-infected SCC
//     gets its S001 message, which the tabling evaluator uses to replace its
//     generic runtime kStratification error;
//   * per-predicate sets of incremental dynamic predicates reachable through
//     the call graph, which seed the table space's dependency edges, so that
//     invalidation over-approximates the truly affected tables even where
//     the runtime edge capture is blind (call/N, HiLog widening);
//   * each predicate's evaluation shard and shard reach mask;
//   * unless `options.structure_only`, the inferred modes (PublishModes).
// Every caller that analyzes a live program goes through here.
AnalysisResult AnalyzeAndPublish(
    Program* program, const AnalyzeOptions& options = AnalyzeOptions());

// Tables `result`'s auto-table suggestions that lie in `scope` (sorted: the
// predicates a consult unit defined). This is what `:- auto_table.` and
// `:- table_all.` run.
void ApplyTableSuggestions(Program* program, const AnalysisResult& result,
                           const std::vector<FunctorId>& scope);

}  // namespace xsb::analysis

#endif  // XSB_ANALYSIS_ANALYZER_H_
