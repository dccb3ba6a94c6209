#ifndef XSB_ENGINE_MACHINE_H_
#define XSB_ENGINE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/status.h"
#include "db/program.h"
#include "term/flat.h"
#include "term/store.h"

namespace xsb {

class Machine;
class BuiltinRegistry;
class AnswerTable;

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

  // A call to tabled predicate `goal`, whose functor is `functor`; `cont`
  // is the rest of the resolvent.
  virtual CallOutcome OnTabledCall(Machine* machine, Word goal,
                                   FunctorId functor,
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
    uint64_t answers_inserted = 0;      // answers stored since the space
                                        // was created, replacements included
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
  // findall/tfindall instance collections that flattened into the reused
  // scratch without allocating (the steady state after warm-up).
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
    if (arena_used_ == kGoalChunk) NextGoalChunk();
    GoalNode* node = &goal_chunks_[arena_chunks_in_use_ - 1][arena_used_++];
    *node = GoalNode{goal, next, cut_depth};
    return node;
  }

  // Asks the current Run loop to stop as if solutions were exhausted
  // (used by existential negation to abandon a batch).
  void RequestStop() { stop_requested_ = true; }

  // Pushes a choice point that returns the answers of a tabled call's
  // table against `goal`, a variant of the table's call: the call template
  // is unified with `goal` once, and each answer then unifies only its
  // bindings, read straight from the answer trie. Returns false, pushing
  // nothing, when the template does not unify with `goal`: then no answer
  // could. The machine enters the choice point when the caller returns a
  // fail-like outcome.
  bool PushAnswerChoices(Word goal, const AnswerTable* table,
                         const GoalNode* cont);

  // Runs `cont` once per answer of `table`, starting at *cursor: the answer
  // choice point of PushAnswerChoices, entered at the cursor, with every
  // answer read written back to *cursor at once — a RequestStop
  // mid-continuation leaves it exact. Answers stored while the run is in
  // progress are picked up too. `deliver` is consulted before each live
  // answer; returning false ends the run with *cursor on that answer.
  // Solutions of `cont` are ignored. The goals of `cont` should carry cut
  // depth choice_point_count() + 1, above the answer choice point, so a '!'
  // prunes one answer's alternatives and never the cursor.
  Status RunAnswers(Word goal, const AnswerTable* table, size_t* cursor,
                    const GoalNode* cont,
                    const std::function<bool()>& deliver);

  // Pushes the clause choice point of a call to `pred`, which tries the
  // clauses `pred` had when it was pushed, in order, skipping retracted
  // ones. With `body` kNoVar it resolves `goal`: each matching clause's body
  // runs before `cont`. Otherwise it enumerates clause(goal, body): each
  // clause whose head unifies with `goal` and whose body (`true` for a
  // fact) unifies with `body` continues with `cont`. The machine enters the
  // choice point when the caller returns a fail-like outcome.
  void PushClauseChoices(Predicate* pred, Word goal, Word body,
                         const GoalNode* cont);

  // Records, for an incremental `pred`, that the table being computed (if
  // any) reads its clauses, so an update to them invalidates that table.
  // A call and clause/2 both report their reads here.
  void NoteClauseRead(const Predicate& pred, FunctorId functor) {
    if (pred.incremental() && handler_ != nullptr) {
      handler_->OnIncrementalAccess(functor);
    }
  }

  // Unifies stored `clause` with the heap term `head` and, unless `body` is
  // kNoVar, its body (`true` for a fact) with `body`. The match is made in
  // place on the stored tokens: clause variables meet heap subterms without
  // a copy, and only what the heap terms leave unbound is built. Bindings
  // are trailed; on failure the caller undoes them. clause/2, retract/1 and
  // retractall/1 match here; a call unifies the head the same way.
  bool MatchClause(const Clause& clause, Word head, Word body);

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

  // Empties the goal arena, keeping its chunks for the next query; only
  // call between top-level queries.
  void ResetArena() {
    arena_chunks_in_use_ = 0;
    arena_used_ = kGoalChunk;
  }
  // 0 between top-level queries of a Session.
  size_t arena_size() const {
    return arena_chunks_in_use_ == 0
               ? 0
               : (arena_chunks_in_use_ - 1) * kGoalChunk + arena_used_;
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
    Word body = kNoVar;  // clause/2's body argument; kNoVar for a call
    // kDisjunction
    Word alternative = 0;
    // kAnswers
    const AnswerTable* table = nullptr;
    size_t next_answer = 0;
    // RunAnswers only: where next_answer is written back, and the gate
    // consulted before each live answer.
    size_t* cursor = nullptr;
    const std::function<bool()>* deliver = nullptr;
    // kAnswers: heap address of the first of the cells that hold, per
    // template variable, the goal subterm it aliases (template unified with
    // `goal` once, at push time, before this choice point's marks — so
    // per-answer backtracking keeps the aliasing and only undoes the binding
    // unifications).
    uint64_t template_vars = 0;
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
  // A HiLog call apply(F, A1, ..., An) with F an atom, as the first-order
  // goal F(A1, ..., An); `fo` is F/n, already interned.
  Word FirstOrderGoal(Word goal, Word head, FunctorId fo);
  // The existence error of a call to name/arity, which has no definition.
  StepResult UnknownPredicate(AtomId name, int arity);
  // The functor of an atom or structure goal, found without interning:
  // SymbolTable::kNoFunctor for an atom whose name/0 was never interned,
  // which names no control construct, builtin or predicate.
  FunctorId GoalFunctor(Word goal) const;
  // Unifies the head of `clause` with `head` (see MatchClause), leaving
  // *pos just past the head: at the body of a rule.
  bool UnifyHead(const Clause& clause, Word head, size_t* pos);
  // Tries `clause` for clause choice point `cp`, the top one. For a call,
  // unifies the clause head with the goal, then builds the body: *new_goals
  // becomes the clause body resolvent. For clause/2, matches head and body
  // (MatchClause): *new_goals becomes the continuation.
  bool TryClause(const ChoicePoint& cp, const Clause& clause,
                 uint32_t entry_depth, const GoalNode** new_goals);

  TermStore* store_;
  Program* program_;
  TabledCallHandler* handler_ = nullptr;
  bool ignore_tabling_ = false;
  std::unique_ptr<BuiltinRegistry> builtins_;

  // Moves Cons on to the next goal chunk, allocating it only when no
  // earlier query reached that many.
  void NextGoalChunk();

  // The goal arena: fixed-size chunks, so a node never moves. ResetArena
  // rewinds to the first chunk and keeps them all: the arena holds as many
  // as the largest query needed.
  static constexpr size_t kGoalChunk = 256;
  std::vector<std::unique_ptr<GoalNode[]>> goal_chunks_;
  size_t arena_chunks_in_use_ = 0;
  size_t arena_used_ = kGoalChunk;  // nodes taken in the current chunk
  std::vector<ChoicePoint> cps_;
  std::vector<Word> template_scratch_;  // PushAnswerChoices' template vars
  FlatTerm findall_scratch_;  // reused by FindAll's per-solution flatten
  Status error_;
  bool stop_requested_ = false;

  std::vector<std::pair<Word, bool>> pending_goals_;  // goal, opaque_cut
  std::vector<Word> clause_vars_;  // UnifyHead's clause-variable terms

  MachineStats stats_;
  uint64_t goals_dispatched_ = 0;
  FunctorId counted_functor_ = 0;
  bool has_counted_functor_ = false;

  // Interned ids used by the dispatcher.
  Word fail_goal_;  // the atom fail, the else branch of a bare '->'
  Word true_atom_;  // the body of a fact, to clause/2 and retract/1
  FunctorId f_comma_, f_semicolon_, f_arrow_, f_naf_, f_cut_, f_tcut_,
      f_true_, f_fail_, f_false_, f_ite_commit_, f_tabled_answer_, f_tnot_,
      f_e_tnot_, f_tfindall_, f_findall_, f_resolve_clauses_;
};

}  // namespace xsb

#endif  // XSB_ENGINE_MACHINE_H_
