#ifndef XSB_TABLING_EVALUATOR_H_
#define XSB_TABLING_EVALUATOR_H_

#include <unordered_map>
#include <vector>

#include "engine/machine.h"
#include "tabling/table_space.h"

namespace xsb {

// The SLG evaluator: plugs into the Machine as its TabledCallHandler and
// turns SLD into SLG resolution for tabled predicates (section 3).
//
// Scheduling is *local*: a tabled call made from ordinary (non-tabled)
// execution opens an evaluation batch, drives every subgoal the batch
// creates to fixpoint, marks them complete, and only then returns answers
// to the caller through an answer choice point. Inside a batch, repeated
// calls become suspended consumers captured by copying the (call,
// continuation) pair into table space — the copying realization of the
// SLG-WAM's frozen stacks.
//
// Completion: a cold top-level tabled call, tnot/1, e_tnot/1 and
// tfindall/3 all first complete the callee's table, through one entry
// (Complete), and then read it:
//   * a tabled call enumerates the completed table's answers;
//   * tnot/1  — SLG negation — succeeds iff the (necessarily ground) call
//     has no answer. Inside a batch the completion runs as a nested batch;
//     one that meets an incomplete table of an enclosing batch is a
//     modular-stratification violation and is reported as an error;
//   * e_tnot/1 — existential negation: the nested batch stops at the first
//     answer and *disposes* every table it created (the tcut mechanism),
//     reproducing the paper's Table 2 behavior;
//   * tfindall/3 is findall/3 over the completed table.
//
// Ground calls complete early: as soon as a ground subgoal gets its answer,
// its generator is cut off (XSB's early completion), which is what makes
// e_tnot explore sqrt(2)^n rather than 2^n nodes of the win/1 tree.
//
// Incremental maintenance: the first evaluator built on a Program takes its
// (single) update-listener slot. While a table is being computed, the
// evaluator records which incremental dynamic predicates its clauses read
// and which subsidiary tables it consumed (refining the analyzer's static
// seeds). An assert/retract on an
// incremental predicate then marks exactly the completed tables that
// transitively depend on it invalid; an invalid table is re-evaluated
// lazily on its next call, reusing every still-valid subsidiary table. In
// baseline mode (incremental = false) such an update instead clears the
// whole table space, deferred by TableSpace::ClearOrDefer while a batch
// runs and applied by the next top-level completion.
//
// The TableSpace belongs to the caller (a Database, or a test fixture) and
// may be shared with other sessions (QueryService workers). The *warm
// path* — a top-level call whose table is already complete and valid —
// serves answers entirely lock-free via the publication/revalidation
// protocol (see Subgoal). A top-level caller that finds another session's
// batch mid-computation of its variant parks on the completion condvar
// instead of duplicating the work (first caller computes).
//
// Cold evaluation is parallel across *independent* subgoals: a top-level
// cold call acquires its predicate's static shard reach mask (analyzer SCC
// output, see PublishEvalShards) all-or-nothing, making this session the
// exclusive evaluator of every tabled predicate in those shards. Sessions
// whose roots reach disjoint shard sets evaluate concurrently against the
// shared space. A mid-batch call that falls outside the owned mask (the
// mask went stale via assertz, or the predicate was never analyzed) tries a
// non-blocking shard escalation; if the needed shards are contended the
// batch unwinds via an internal kRetryEvaluation status — disposing its
// partial tables exactly like an error — and restarts under the full shard
// mask (the coarse fallback, counted in coarse_fallbacks). Blocking shard
// acquisition only ever happens while holding no shards, so the scheduler
// cannot deadlock; condvar waits on in-progress variants likewise occur
// only outside any batch.
class Evaluator : public TabledCallHandler, public TableUpdateListener {
 public:
  struct Options {
    // Complete ground subgoals as soon as their answer arrives, cutting off
    // the rest of their generator. This post-1994 XSB optimization makes
    // default tnot behave like e_tnot on Table 2's trees, so it is OFF by
    // default and exercised by the ablation bench.
    bool early_completion = false;
    // Maintain tables across updates to :- incremental predicates (the
    // default). When false, such an update abolishes the whole table space
    // — the from-scratch baseline the update bench compares against.
    bool incremental = true;
  };

  // Evaluates against `tables`, which must outlive the evaluator.
  Evaluator(Machine* machine, TableSpace* tables)
      : Evaluator(machine, tables, Options()) {}
  Evaluator(Machine* machine, TableSpace* tables, Options options);
  ~Evaluator() override;

  TableSpace& tables() { return *tables_; }
  const TableSpace& tables() const { return *tables_; }

  // Drops all tables (exposed to benches; abolish_all_tables/0 equivalent).
  void AbolishAllTables();

  // Deferral, for QueryService workers. While allowed, a top-level cold
  // tabled call (or tnot/e_tnot/tfindall) that is the first goal the
  // machine dispatches after this call does not wait for shards another
  // session holds, nor for another session's evaluation of the same
  // variant: it fails with the internal kDeferred status before touching
  // any table, so the caller can run the query again later. Nothing has
  // been evaluated, and no answer delivered, at that point.
  void AllowDeferral(bool allow);

  // This session's counters, plain fields. The answer-path ones, from
  // answers_inserted on, are added into the shared TableStats when each
  // batch ends and before GetTableStats reads them (FoldStats).
  struct EvalStats {
    uint64_t batches = 0;
    uint64_t early_completions = 0;
    uint64_t existential_aborts = 0;
    uint64_t update_events = 0;  // incremental-predicate change reports
    uint64_t answers_inserted = 0;
    uint64_t duplicate_answers = 0;
    uint64_t factored_cells_saved = 0;
    uint64_t subsumed_dropped = 0;
    uint64_t subsumed_replaced = 0;
    uint64_t consumer_suspensions = 0;
    uint64_t consumer_resumptions = 0;
  };
  const EvalStats& stats() const { return stats_; }

  // TabledCallHandler:
  CallOutcome OnTabledCall(Machine* machine, Word goal, FunctorId functor,
                           const GoalNode* cont) override;
  CallOutcome OnTabledAnswer(Machine* machine, int64_t subgoal_index,
                             Word call_instance) override;
  Result<bool> CompleteTable(Machine* machine, Word goal,
                             bool existential) override;
  TableStatsInfo GetTableStats(Machine* machine, Word goal) override;
  void OnIncrementalAccess(FunctorId functor) override;
  bool AbolishTableCall(Machine* machine, Word goal) override;
  TableState GetTableState(Machine* machine, Word goal) override;

  // TableUpdateListener: an incremental predicate gained or lost clauses.
  void OnIncrementalUpdate(FunctorId functor) override;
  // A predicate became incremental after tables may have been built over it:
  // no dependency entries exist, so every completed table is conservatively
  // invalidated (or, in baseline mode, the table space abolished).
  void OnIncrementalDeclaration(FunctorId functor) override;

 private:
  // One evaluation batch. Slots are kept when a batch ends, vectors and
  // all, and reused by the next batch at that nesting depth.
  struct Batch {
    uint64_t id = 0;
    std::vector<SubgoalId> subgoals;
    std::vector<Consumer> consumers;
    std::vector<Word> saved_cells;  // every consumer's flattened term
    std::vector<SubgoalId> generator_queue;
    SubgoalId stop_on_answer = kNoSubgoal;
    bool aborted = false;
  };

  bool InBatch() const { return open_batches_ != 0; }
  Batch& CurrentBatch() { return batches_[open_batches_ - 1]; }
  // Opens a batch in the next slot and returns its index.
  size_t OpenBatch();

  // Adds the answer-path counters gathered since the last fold into the
  // shared TableStats.
  void FoldStats();

  // The one completion entry: completes the table of `goal`, a call to
  // tabled `functor`, and returns its published answer table in *table and
  // whether it has an answer in *has_answer (with `existential`, evaluation
  // stops at the first answer and disposes the batch's tables). At top
  // level it acquires the call's shard reach mask — every shard when a
  // clear is pending, which it then applies — and restarts under the full
  // mask on kRetryEvaluation (the coarse fallback). Inside a batch it widens
  // ownership, reports an incomplete table as a stratification error, runs
  // a nested batch, and records the caller's dependency on the table.
  Status Complete(Word goal, FunctorId functor, bool existential,
                  const AnswerTable** table, bool* has_answer);

  // Runs `root` (a fresh subgoal for `goal`) to completion in a new batch.
  // With `existential`, stops at the root's first answer and disposes the
  // batch's tables. *has_answer reports whether the root derived an answer.
  // Caller owns shards covering `functor` (owned_shards_); may return the
  // internal kRetryEvaluation status, after which the batch's tables are
  // already disposed and the caller restarts under the full mask.
  Status EvaluateToCompletion(Word goal, FunctorId functor, bool existential,
                              bool* has_answer, SubgoalId* root_out);

  Status RunBatchLoop(size_t batch_index);
  Status RunGeneratorEpisode(SubgoalId id);
  // One delivery pass: runs the consumer's continuation for each of its
  // unread answers through Machine::RunAnswers, and advances its cursor.
  Status ResumeConsumer(size_t batch_index, size_t consumer_index);

  // Lock-free warm-path attempt for a top-level tabled call: serve `goal`
  // from a published complete+valid table. Returns true and pushes the
  // answer choice point on success.
  bool TryServeWarm(Machine* machine, Word goal, const GoalNode* cont);

  // Builds '$consumer'(Goal, [G1, ..., Gk]) for the continuation chain.
  Word BuildConsumerTerm(Word goal, const GoalNode* cont);

  // The subgoal whose generator/consumer code is currently running, or
  // kNoSubgoal outside tabled evaluation. Dependency edges captured during
  // evaluation are attributed to it.
  SubgoalId CurrentSubgoal() const {
    return eval_stack_.empty() ? kNoSubgoal : eval_stack_.back();
  }

  // Registers a fresh subgoal with the analyzer's static dependency seeds.
  void SeedSubgoalDeps(SubgoalId id, FunctorId functor);

#ifdef XSB_MODE_ORACLE
  // Sanitizer-build soundness oracle: every subgoal records the success
  // modes the analysis published for its predicate (plus the clause epoch
  // they were computed at); every answer is then asserted against them.
  // An epoch mismatch (runtime assertz after the analysis) downgrades the
  // modes to untrusted hints and skips the assert.
  struct ModeExpectation {
    uint64_t epoch = 0;
    std::vector<uint8_t> success;  // kMode* bytes; empty = proven to fail
    bool has_modes = false;
  };
  void RecordModeExpectation(SubgoalId id, FunctorId functor);
  void CheckAnswerModes(SubgoalId id, Word call_instance);
  std::unordered_map<SubgoalId, ModeExpectation> mode_expectations_;
#endif

  // --- Shard ownership (see the class comment) -------------------------------

  // The shards to acquire before evaluating `functor` cold: its published
  // reach mask plus its own shard bit; kAllEvalShards when the analyzer
  // never assigned it a shard.
  ShardMask ReachMask(FunctorId functor) const;
  // Goal-aware refinement used by top-level cold calls: consults the mode
  // analysis's per-call-pattern reach masks (and, for a bound first
  // argument, the predicate's first-arg key masks) to acquire fewer shards
  // than the functor-level mask. Every returned mask includes the
  // predicate's own shard bit; all refinements are hints — staleness is
  // repaired by the in-batch escalation / coarse fallback. Also counts a
  // runtime mode violation when the actual goal is less bound than the
  // analysis's site join says every call site is.
  ShardMask ReachMask(FunctorId functor, Word goal) const;
  // Ensures the running batch owns shards covering `functor`, widening
  // owned_shards_ via a non-blocking TryAcquireShards when it does not.
  // Returns the internal kRetryEvaluation status if the widening loses the
  // race; the batch then unwinds and restarts coarse.
  Status EnsureOwnedForCall(FunctorId functor);

  // The predicate's answer-subsumption declaration, or nullptr for plain
  // tabling; passed to TableSpace::LookupOrCreate at table creation.
  const TableSpec* TableSpecOf(FunctorId functor) const;

  // True when deferral is allowed and the running goal is the first one
  // dispatched since (see AllowDeferral), outside any batch.
  bool MayDefer() const;

  Machine* machine_;
  TableSpace* tables_;
  bool early_completion_;
  bool incremental_;
  // Batch slots; the first open_batches_ are the open batches, innermost
  // last.
  std::vector<Batch> batches_;
  size_t open_batches_ = 0;
  // Evaluation shards this session currently holds. Nonzero exactly while a
  // top-level cold evaluation (and its nested batches) runs; the session is
  // single-threaded, so no synchronization is needed on the member itself.
  ShardMask owned_shards_ = 0;
  // Machine::goals_dispatched() when deferral was allowed, or kNoDeferral.
  static constexpr uint64_t kNoDeferral = ~uint64_t{0};
  uint64_t defer_mark_ = kNoDeferral;
  // Subgoals whose evaluation frames are active, innermost last.
  std::vector<SubgoalId> eval_stack_;
  EvalStats stats_;
  EvalStats folded_;  // stats_ as of the last FoldStats
  // Consumer resumption scratch, reused so that it grows no fresh vector.
  // It is fully consumed before anything that could re-enter the evaluator
  // runs.
  std::vector<Word> goals_scratch_;

  FunctorId f_resolve_clauses_, f_tabled_answer_, f_consumer_;
};

}  // namespace xsb

#endif  // XSB_TABLING_EVALUATOR_H_
