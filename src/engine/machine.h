#ifndef XSB_ENGINE_MACHINE_H_
#define XSB_ENGINE_MACHINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "base/status.h"
#include "db/program.h"
#include "engine/answer_source.h"
#include "term/flat.h"
#include "term/store.h"

namespace xsb {

class Machine;
class BuiltinRegistry;

// Resolvent node: an immutable cons cell in the machine's goal arena.
// `cut_depth` is the choice-point-stack height a '!' in this goal cuts back
// to (the height at entry to the clause that contributed the goal).
struct GoalNode {
  Word goal;
  const GoalNode* next;
  uint32_t cut_depth;
};

// Decision returned by the per-solution callback.
enum class SolveAction { kContinue, kStop };
using SolutionFn = std::function<SolveAction()>;

// Hook through which the tabling subsystem (tabling/evaluator.h) takes over
// calls to tabled predicates; keeps the SLD core free of table knowledge.
class TabledCallHandler {
 public:
  enum class CallOutcome {
    kFail,      // branch suspended (consumer registered) or no answers
    kContinue,  // handler installed machine state (answer choice point)
    kError,     // see machine->error()
  };

  virtual ~TabledCallHandler() = default;

  // A call to tabled predicate `goal`; `cont` is the rest of the resolvent.
  virtual CallOutcome OnTabledCall(Machine* machine, Word goal,
                                   const GoalNode* cont) = 0;
  // '$tabled_answer'(Index, CallTerm) reached: record the answer instance.
  // Returns false to fail the branch (always, in SLG), after recording.
  virtual CallOutcome OnTabledAnswer(Machine* machine, int64_t subgoal_index,
                                     Word call_instance) = 0;
  // tnot/1, e_tnot/1, tfindall/3: completes the table of `goal` and reports
  // whether it has an answer; a type error unless `goal` calls a tabled
  // predicate. With `existential` (e_tnot), evaluation may stop at the
  // first answer.
  virtual Result<bool> CompleteTable(Machine* machine, Word goal,
                                     bool existential) = 0;

  // Table-space statistics snapshot for the table_stats builtin.
  struct TableStatsInfo {
    bool found = false;
    uint64_t subgoals = 0;
    uint64_t answers = 0;
    uint64_t trie_nodes = 0;
    uint64_t interned_terms = 0;
    uint64_t bytes = 0;
    uint64_t call_trie_nodes = 0;       // variant-index trie nodes
    uint64_t factored_saved_bytes = 0;  // bytes factoring avoided storing
    // Shared-serving counters (relaxed-atomic reads: each is an independent
    // monotonic event count; no cross-counter snapshot is implied).
    uint64_t shared_table_hits = 0;     // lock-free warm-table serves
    uint64_t waits_on_inprogress = 0;   // callers parked on another batch
    uint64_t epochs_retired = 0;        // retired answer tables reclaimed
    uint64_t coarse_fallbacks = 0;      // batches restarted under the
                                        // all-shards coarse lock
    uint64_t mode_violations = 0;       // runtime tabled calls less bound
                                        // than the inferred call modes
    uint64_t subsumed_dropped = 0;      // answers dropped by lattice
                                        // subsumption (:- table p(_, min))
    uint64_t subsumed_replaced = 0;     // answers stored by beating (and
                                        // retiring) an existing answer
  };
  // Statistics for the variant table of `goal`, or aggregated over the
  // whole table space when goal == 0. Default: no statistics available.
  virtual TableStatsInfo GetTableStats(Machine* /*machine*/, Word /*goal*/) {
    return TableStatsInfo{};
  }

  // --- Incremental table maintenance hooks ----------------------------------

  // Clause resolution is about to touch incremental dynamic predicate
  // `functor` — the evaluator records a dependency edge from the table being
  // computed (if any) to the predicate. Default: no tracking.
  virtual void OnIncrementalAccess(FunctorId /*functor*/) {}

  // abolish_table_call/1: disposes the variant table of `goal`. Returns
  // true when such a table existed.
  virtual bool AbolishTableCall(Machine* /*machine*/, Word /*goal*/) {
    return false;
  }

  // table_state/2 snapshot of the variant table of `goal`.
  enum class TableState {
    kNoTable,     // never called (or abolished): `undefined`
    kIncomplete,  // mid-evaluation
    kComplete,    // completed and current
    kInvalid,     // completed, but invalidated by an update; will lazily
                  // re-evaluate on its next call
  };
  virtual TableState GetTableState(Machine* /*machine*/, Word /*goal*/) {
    return TableState::kNoTable;
  }
};

// Counters for the experiments (Figure 2 counts calls; section 3.2 compares
// engine tiers).
struct MachineStats {
  uint64_t user_calls = 0;
  uint64_t builtin_calls = 0;
  uint64_t choice_points = 0;
  uint64_t head_unifications = 0;
  uint64_t counted_calls = 0;  // calls to the counted functor, if set
  // findall/tfindall/clause instance collections that flattened into the
  // reused scratch without allocating (the steady state after warm-up).
  uint64_t findall_flatten_reuses = 0;
  // Answers delivered through the substitution-factored choice-point path
  // (template unified once, only bindings unified per answer).
  uint64_t factored_answer_returns = 0;
};

// The SLD(NF) resolution engine: a structure-copying abstract machine with a
// goal list, a choice-point stack and the TermStore's binding trail. This is
// the "WAM-level" execution core of the reproduction; tabling (SLG) plugs in
// through TabledCallHandler, making the combination the SLG engine.
class Machine {
 public:
  Machine(TermStore* store, Program* program);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  TermStore* store() { return store_; }
  Program* program() { return program_; }

  void set_tabled_handler(TabledCallHandler* handler) { handler_ = handler; }
  TabledCallHandler* tabled_handler() { return handler_; }

  // When true, calls to tabled predicates resolve against program clauses
  // directly (plain SLDNF) — the paper's "XSB / SLDNF" configuration.
  void set_ignore_tabling(bool value) { ignore_tabling_ = value; }
  bool ignore_tabling() const { return ignore_tabling_; }

  // --- Top-level solving ----------------------------------------------------

  // Proves `goal`, invoking `on_solution` with bindings live in the store at
  // each solution. Returns non-OK only on evaluation errors.
  Status Solve(Word goal, const SolutionFn& on_solution);

  // Proves `goal` once; true if a proof exists. Bindings of the first
  // solution are left in place.
  Result<bool> SolveOnce(Word goal);

  // Counts solutions (all bindings undone afterwards).
  Result<size_t> CountSolutions(Word goal);

  // findall-style collection of instances of `templ`.
  Result<std::vector<FlatTerm>> FindAll(Word templ, Word goal);

  // --- Hooks for builtins and the tabling evaluator -------------------------

  // Runs an explicit resolvent. Nested invocations (negation, findall,
  // tabling episodes) are re-entrant: each Run owns the choice points it
  // creates.
  Status Run(const GoalNode* goals, const SolutionFn& on_solution);

  const GoalNode* Cons(Word goal, const GoalNode* next, uint32_t cut_depth) {
    arena_.push_back(GoalNode{goal, next, cut_depth});
    return &arena_.back();
  }

  // Asks the current Run loop to stop as if solutions were exhausted
  // (used by existential negation to abandon a batch).
  void RequestStop() { stop_requested_ = true; }

  // Pushes a choice point that enumerates stored answers against `goal`.
  // Used by the tabling evaluator for completed tables (the source is the
  // answer table, read straight from its trie) and by clause/2. The machine
  // enters the choice point when the caller returns a fail-like outcome.
  void PushAnswerChoices(Word goal, const AnswerSource* answers,
                         const GoalNode* cont);

  // Runs `cont` once per stored answer of `answers`, starting at *cursor:
  // the answer choice point of PushAnswerChoices (factored when the source
  // is), entered at the cursor, with every answer read written back to
  // *cursor at once — a RequestStop mid-continuation leaves it exact.
  // Answers stored while the run is in progress are picked up too.
  // `deliver` is consulted before each live answer; returning false ends
  // the run with *cursor on that answer. Solutions of `cont` are ignored.
  // The goals of `cont` should carry cut depth choice_point_count() + 1,
  // above the answer choice point, so a '!' prunes one answer's
  // alternatives and never the cursor.
  Status RunAnswers(Word goal, const AnswerSource* answers, size_t* cursor,
                    const GoalNode* cont,
                    const std::function<bool()>& deliver);

  // Pushes a choice point enumerating integers low..high into `var`
  // (between/3). Enter by returning a fail-like outcome.
  void PushBetweenChoices(Word var, int64_t low, int64_t high,
                          const GoalNode* cont);

  // Schedules `goal` to run before the current continuation. Only valid
  // from within a builtin/handler callback during dispatch.
  void PushPendingGoal(Word goal);
  // Same, but gives the goal a fresh cut barrier (call/1 semantics).
  void PushPendingGoalOpaqueCut(Word goal);

  void SetError(Status status) { error_ = std::move(status); }

  size_t choice_point_count() const { return cps_.size(); }
  // Goals dispatched since the machine was built, control constructs
  // included: a query's first goal is the one dispatched when this reads
  // one more than it did before the query started.
  uint64_t goals_dispatched() const { return goals_dispatched_; }
  // Discards choice points above `depth` (the cut operation).
  void CutTo(size_t depth);

  // Frees the goal arena and the adopted answer sources; only call between
  // top-level queries.
  void ResetArena() {
    arena_.clear();
    adopted_sources_.clear();
  }
  // Both are 0 between top-level queries of a Session.
  size_t arena_size() const { return arena_.size(); }
  size_t adopted_source_count() const { return adopted_sources_.size(); }

  // Takes ownership of a materialized answer source referenced by an
  // answer choice point (clause/2); freed by the next ResetArena. Returns
  // the adopted pointer for use in PushAnswerChoices.
  const AnswerSource* AdoptAnswerSource(std::unique_ptr<AnswerSource> source) {
    adopted_sources_.push_back(std::move(source));
    return adopted_sources_.back().get();
  }

  MachineStats& stats() { return stats_; }
  void set_counted_functor(FunctorId functor) {
    counted_functor_ = functor;
    has_counted_functor_ = true;
  }

  // Evaluates an arithmetic expression term (is/2, comparisons).
  Result<int64_t> EvalArith(Word expression);

 private:
  friend class BuiltinRegistry;

  enum class ChoiceKind { kClauses, kDisjunction, kAnswers, kBetween };

  struct ChoicePoint {
    ChoiceKind kind;
    const GoalNode* cont;
    size_t trail_mark;
    size_t heap_mark;
    Word goal = 0;
    uint32_t cut_depth = 0;
    // kClauses
    Predicate* pred = nullptr;
    CandidateView candidates;
    size_t next_candidate = 0;
    // kDisjunction
    Word alternative = 0;
    // kAnswers
    const AnswerSource* answers = nullptr;
    size_t next_answer = 0;
    // RunAnswers only: where next_answer is written back, and the gate
    // consulted before each live answer.
    size_t* cursor = nullptr;
    const std::function<bool()>* deliver = nullptr;
    // kAnswers, factored mode: heap address of the first of the cells that
    // hold, per template variable, the goal subterm it aliases (template
    // unified with `goal` once, at push time, before this choice point's
    // marks — so per-answer backtracking keeps the aliasing and only undoes
    // the binding unifications).
    uint64_t template_vars = 0;
    bool factored = false;
    // kBetween
    int64_t next_value = 0;
    int64_t max_value = 0;
  };

  enum class StepResult { kAdvance, kBacktrack, kSolution, kError, kStopped };

  // Resolves the goal at the head of *goals (dispatch). On success updates
  // *goals to the new resolvent.
  StepResult DispatchGoal(const GoalNode** goals);
  // Tries alternatives from the top choice point; false when the whole
  // stack (down to base) is exhausted.
  bool Backtrack(size_t base_cp, const GoalNode** goals);
  // Unifies the next live answer of answer choice point `cp` with its goal;
  // false when the answers are exhausted or `deliver` declines the next.
  bool NextAnswer(ChoicePoint& cp);
  // The Run loop over the choice points above `base_cp`, starting at
  // `goals`.
  Status RunFrom(size_t base_cp, const GoalNode* goals,
                 const SolutionFn& on_solution);
  // Resolves `goal` against a user predicate's clauses.
  StepResult CallUserPredicate(Word goal, FunctorId functor,
                               const GoalNode* cont, uint32_t cut_depth,
                               bool force_clause_resolution);
  // Unifies the head of clause `id` of `pred` with `goal` straight from the
  // stored clause, then builds its body. On success sets *new_goals to the
  // clause body resolvent.
  bool TryClause(Predicate* pred, ClauseId id, Word goal,
                 const GoalNode* cont, uint32_t entry_depth,
                 const GoalNode** new_goals);

  TermStore* store_;
  Program* program_;
  TabledCallHandler* handler_ = nullptr;
  bool ignore_tabling_ = false;
  std::unique_ptr<BuiltinRegistry> builtins_;

  std::deque<GoalNode> arena_;
  std::vector<std::unique_ptr<AnswerSource>> adopted_sources_;
  std::vector<ChoicePoint> cps_;
  FlatTerm answer_scratch_;  // reused by the answer-choice backtracker
  std::vector<Word> template_scratch_;  // PushAnswerChoices' template vars
  FlatTerm findall_scratch_;  // reused by FindAll's per-solution flatten
  Status error_;
  bool stop_requested_ = false;

  std::vector<std::pair<Word, bool>> pending_goals_;  // goal, opaque_cut
  std::vector<Word> clause_vars_;  // TryClause's clause-variable terms

  MachineStats stats_;
  uint64_t goals_dispatched_ = 0;
  FunctorId counted_functor_ = 0;
  bool has_counted_functor_ = false;

  // Interned ids used by the dispatcher.
  FunctorId f_comma_, f_semicolon_, f_arrow_, f_naf_, f_cut_, f_tcut_,
      f_true_, f_fail_, f_false_, f_ite_commit_, f_tabled_answer_, f_tnot_,
      f_e_tnot_, f_tfindall_, f_findall_, f_resolve_clauses_;
};

}  // namespace xsb

#endif  // XSB_ENGINE_MACHINE_H_
