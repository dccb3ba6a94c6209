#ifndef XSB_ANALYSIS_MODES_H_
#define XSB_ANALYSIS_MODES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.h"
#include "db/program.h"

namespace xsb::analysis {

struct AnalysisResult;  // analyzer.h (which includes this header)

// --- The instantiation lattice ------------------------------------------------
//
// Abstract description of one argument position, ordered by the set of
// concrete terms it may denote:
//
//         any
//        /    .
//   nonvar   free
//      |
//    ground
//
// `ground` (no variables anywhere) ⊑ `nonvar` (outer symbol known) ⊑ `any`;
// `free` (definitely an unbound variable) ⊑ `any`. `free` and the bound
// states are incomparable: their concretizations are disjoint.
enum class Inst : uint8_t {
  kGround = kModeGround,
  kNonvar = kModeNonvar,
  kFree = kModeFree,
  kAny = kModeAny,
};

// Least upper bound under the ordering above.
Inst JoinInst(Inst a, Inst b);
// a ⊑ b (a describes a subset of the terms b describes).
bool InstLeq(Inst a, Inst b);
// Abstract unification: the state both sides share after unify succeeds.
// unify can only instantiate further, so the result is the most *bound* of
// the two sides (ground wins; nonvar next; free∪free stays free; free
// against any may come out anything).
Inst AbsUnifyInst(Inst a, Inst b);
// "ground" / "nonvar" / "free" / "any".
const char* InstName(Inst inst);

using InstVec = std::vector<Inst>;

// One tabulated (call pattern -> success pattern) entry of a predicate.
struct ModePattern {
  InstVec call;
  // Join over the clauses' head-argument states at clause exit. Only
  // meaningful when `success_known`; a pattern whose every clause is cut off
  // by a definitely-failing goal never succeeds (bottom).
  InstVec success;
  bool success_known = false;
  // Created from an in-program call site, as opposed to the implicit
  // all-`any` top pattern every predicate gets.
  bool from_site = false;
  // Where the pattern was first demanded (a call site span), for M003.
  SourceSpan origin;
  // (callee, callee pattern index) edges of the per-pattern call graph,
  // rebuilt on each fixpoint visit. PublishEvalShards turns these into
  // per-call-pattern shard reach masks.
  std::vector<std::pair<FunctorId, size_t>> calls;
};

// Everything the mode analysis derived about one predicate.
struct PredModes {
  // patterns[0] is always the all-`any` top pattern (any caller unknown to
  // the analysis — a top-level query, a meta-call — is an instance of it).
  std::vector<ModePattern> patterns;
  // Join over the site-derived patterns' call vectors; empty when the
  // predicate has no analyzed call site.
  InstVec site_join;
  // Join over every pattern's known success vector; empty when no pattern
  // ever succeeds.
  InstVec success_join;
  // Head argument positions every clause demands bound at call time (the
  // argument flows into arithmetic before any body goal could bind it).
  // Calling such a position with a definitely-free variable is M003.
  std::vector<bool> demands_ground;
};

// One M003 witness: a call site passing a definitely-free variable into an
// argument position the callee demands ground.
struct ModeViolation {
  FunctorId caller = kNoFunctor;
  FunctorId callee = kNoFunctor;
  int argnum = 0;  // 1-based
  SourceSpan span;
};

struct ModeResult {
  std::unordered_map<FunctorId, PredModes> preds;
  std::vector<ModeViolation> violations;
  // Per predicate, per live clause (in clause-id order): the user/tabled
  // predicates its body calls, collected once under the top pattern. Fuels
  // the first-argument key masks of PublishEvalShards.
  std::unordered_map<FunctorId, std::vector<std::vector<FunctorId>>>
      clause_callees;
  // Predicates with a clause containing a meta-call whose callee set is
  // unknown (variable goal, call/N closure in a variable): their per-clause
  // callee lists understate reachability, so key masks are not built.
  std::unordered_set<FunctorId> meta_callers;
  // Fixpoint worklist visits (diagnostic; the lattice is finite, so the
  // analysis always converges).
  uint64_t iterations = 0;
};

// Runs the per-predicate, per-call-pattern fixpoint over `program`'s
// clauses. `analysis` supplies the Tarjan SCC numbering: the worklist is
// prioritized in reverse-topological order (callees before callers), so
// each component converges before the components calling into it are
// (re-)visited. Read-only over the program.
ModeResult AnalyzeModes(const Program& program, const AnalysisResult& analysis);

// Per call-graph SCC of `analysis`: its evaluation shard bit (set only when
// the component holds a tabled predicate: untabled SCCs never materialize
// subgoals, so including them would make every pair of queries that shares
// a helper predicate collide on a shard for no reason) and the union of the
// bits it statically reaches. The predicate-level masks of AnalyzeAndPublish
// and the per-pattern masks of PublishModes both derive from these, so the
// latter refine rather than contradict the former.
struct SccShards {
  std::vector<ShardMask> self_bit;
  std::vector<ShardMask> reach;
};
SccShards ComputeSccShards(const Program& program,
                           const AnalysisResult& analysis);

// Stores the inferred modes on the program's predicates (Predicate::modes(),
// consumed by predicate_mode/2 and the runtime soundness oracle), stamped
// with the program's current clause epoch so consumers can detect
// staleness after runtime asserts. Also derives the
// per-call-pattern shard reach masks and the first-argument key masks from
// `analysis`'s SCC numbering and `shards` (ComputeSccShards of the same
// analysis), so it wants the full AnalysisResult (with its `modes` member
// filled by Analyze).
void PublishModes(Program* program, const AnalysisResult& analysis,
                  const SccShards& shards);

// Formats an InstVec as "(ground, free)" for messages and shell output.
std::string FormatInstVec(const InstVec& vec);

}  // namespace xsb::analysis

#endif  // XSB_ANALYSIS_MODES_H_
