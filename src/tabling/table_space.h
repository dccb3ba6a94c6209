#ifndef XSB_TABLING_TABLE_SPACE_H_
#define XSB_TABLING_TABLE_SPACE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/concurrent.h"
#include "db/program.h"
#include "db/token_trie.h"
#include "tabling/call_trie.h"
#include "tabling/epoch.h"
#include "term/flat.h"
#include "term/intern.h"
#include "term/store.h"

namespace xsb {

using SubgoalId = uint32_t;
inline constexpr SubgoalId kNoSubgoal = 0xffffffffu;

enum class SubgoalState : uint8_t {
  kIncomplete,  // generator/consumers still at work
  kComplete,    // fixpoint reached; answers are final
  kDisposed,    // deleted by tcut / existential negation
};

// Outcome of inserting one answer instance. For plain tables only the first
// two occur; answer-subsumption tables (`:- table p(_, min)`) additionally
// drop lattice-subsumed answers and replace subsumed existing ones.
enum class AnswerInsert : uint8_t {
  kNew,             // stored; consumers must be woken
  kDuplicate,       // variant of a stored answer; ignored
  kSubsumedDropped, // an existing answer is at least as good; dropped
  kReplaced,        // stored, and the beaten answer was retired in place —
                    // consumers must be woken exactly like for kNew
  kBadAggregate,    // min/max position not bound to an integer (type error)
};

// Discrimination trie over answers: the answer-clause index of section 4.5,
// grown into the *primary* answer store with XSB's substitution factoring.
// An answer of subgoal `path(1,Y)` is not stored as the full instance
// `path(1,5)` — only the *bindings of the call's variables* (here `Y = 5`)
// enter the trie, as a token stream over the shared InternTable (ground
// compound bindings collapse to kInterned tokens). The call itself is kept
// once as the answer template.
//
// Both directions are one walk each (Swift & Warren's "XSB: Extending Prolog
// with Tabled Logic Programming"): Insert tokenizes the bindings straight
// from the heap (InternTable::EncodeHeap, the encoder the call trie uses)
// and then steps down the trie, so a duplicate allocates nothing; the
// factored return (UnifyBindings) unifies the consumer's template variables
// straight from the leaf's token path (UnifyTokens), building heap structure
// only where a consumer variable is unbound. No full instance is ever
// rebuilt.
//
// Concurrency: Insert runs only from the evaluation batch that owns the
// subgoal's shard (answers are only added to incomplete tables, and shard
// ownership makes the owning batch the table's single mutator). The
// read-back paths use thread-local scratch and only acquire-loads of the
// append-only trie, so any number of threads can enumerate a completed (or
// retired) table lock-free.
class AnswerTrie {
 public:
  // `call_template` is the canonical (flattened) call; it is owned by the
  // trie so retired tables stay readable after their subgoal is gone.
  AnswerTrie(InternTable* interns, FlatTerm call_template)
      : interns_(interns), template_(std::move(call_template)) {}

  // Factors the heap term `instance` — an instance of the call template —
  // into its binding stream and inserts it. Returns true if the answer was
  // new; then *saved_cells (may be null) is the number of flat cells that
  // factoring avoided storing versus the full instance. *index (may be null)
  // receives the answer's insertion-order index, new or existing.
  bool Insert(const TermStore& store, Word instance, size_t* saved_cells,
              size_t* index = nullptr);

  size_t size() const {
    return num_answers_.load(std::memory_order_acquire);
  }

  // Per-answer retirement (answer subsumption): a beaten answer is flagged,
  // not unlinked — indices stay stable and open cursors can still read it,
  // they just skip it as dead. Flag writes come only from the table's single
  // mutator; readers acquire-load.
  void RetireLeaf(size_t i) {
    leaves_[i].retired.store(1, std::memory_order_release);
  }
  bool leaf_live(size_t i) const {
    return leaves_[i].retired.load(std::memory_order_acquire) == 0;
  }

  // Unifies answer `i`'s binding of template variable k with the heap cell
  // template_vars + k, for every k in ordinal order; false at the first
  // clash (bindings stay trailed for the caller to undo).
  bool UnifyBindings(size_t i, TermStore* store, uint64_t template_vars) const;

  const FlatTerm& call_template() const { return template_; }

  // Drops every answer, keeping the first block of each arena (a recycled
  // table's warm storage). Requires quiescence, like destruction.
  void Clear();
  // Installs the template of a cleared trie.
  void set_call_template(const FlatTerm& call_template) {
    template_.cells.assign(call_template.cells.begin(),
                           call_template.cells.end());
    template_.num_vars = call_template.num_vars;
  }

  size_t node_count() const { return trie_.node_count(); }
  // Bytes of a fresh trie holding these answers: storage a cleared trie
  // keeps for reuse is not counted, so recycling never moves table_bytes.
  size_t bytes() const;

 private:
  struct Leaf {
    Leaf(TokenTrie::NodeId node_in, uint32_t num_vars_in)
        : node(node_in), num_vars(num_vars_in) {}
    TokenTrie::NodeId node;
    uint32_t num_vars;  // variables in the binding stream
    // Answer subsumption: set once (by the single mutator) when a better
    // answer replaces this one. Never cleared.
    std::atomic<uint8_t> retired{0};
  };

  // Per-thread read-back scratch: concurrent enumerators of one completed
  // table must not share buffers.
  struct ReadScratch {
    std::vector<Word> path;
    std::vector<Word> vars;
  };
  static ReadScratch& Scratch();

  // Answer `i`'s token stream, root to leaf, into *path.
  void LeafPath(size_t i, std::vector<Word>* path) const;

  InternTable* interns_;
  FlatTerm template_;
  TokenTrie trie_;
  // Answers in insertion order. Small first block: most tables hold a few
  // answers, and a large table only gains a few more blocks.
  ConcurrentArena<Leaf, 4> leaves_;
  // Published answer count: released after the leaf is fully linked, so a
  // reader that observes size() >= k can read answers [0, k) lock-free.
  std::atomic<size_t> num_answers_{0};
  // Insert scratch (single mutator: the batch owning the subgoal's shard).
  TokenScratch encode_scratch_;
  std::vector<Word> walk_scratch_;
  std::vector<size_t> seg_scratch_;
};

// The answers of one tabled subgoal, kept only as factored binding paths in
// an AnswerTrie, plus the lattice bookkeeping of answer subsumption. The
// machine's answer choice points (and the SLG evaluator's consumers)
// enumerate it by index: index order is insertion order and indices stay
// valid while the table grows, so a cursor is just a size_t — this is what
// lets consumers pick up answers that arrive after they suspended.
class AnswerTable {
 public:
  // `spec` (copied) enables answer subsumption when it has an aggregated
  // argument; the default spec is plain tabling.
  AnswerTable(InternTable* interns, FlatTerm call_template,
              TableSpec spec = TableSpec())
      : spec_(std::move(spec)),
        trie_(interns, std::move(call_template)) {}

  // Inserts the answer instance; see AnswerInsert for the outcomes.
  // *saved_cells as in AnswerTrie::Insert. For subsumptive tables the
  // lattice decision happens here, on the insert hot path: the per-key
  // aggregate index is consulted before any trie walk, so subsumed
  // answers are dropped without touching the trie, and a replacement
  // appends its leaf first and only then retires the beaten one (cursors at
  // the old answer stay sound; the count grows so suspended consumers wake).
  AnswerInsert Insert(const TermStore& store, Word instance,
                      size_t* saved_cells);

  // Enumeration in insertion order, stable under growth.
  size_t size() const { return trie_.size(); }

  // False for answers retired by a subsuming replacement. Indices stay
  // readable either way; enumerators skip dead ones.
  bool live(size_t i) const {
    return !spec_.subsumptive() || trie_.leaf_live(i);
  }
  // Answers not beaten by a replacement. Relaxed: the count is a statistic
  // (table_stats/2), not a synchronization point.
  size_t live_size() const {
    return size() - num_retired_.load(std::memory_order_relaxed);
  }

  // Factored enumeration: a reader unifies the call template with its goal
  // once, keeping the heap term each template variable met in consecutive
  // heap cells, and then per answer calls UnifyBindings (see AnswerTrie).
  const FlatTerm& call_template() const { return trie_.call_template(); }
  bool UnifyBindings(size_t i, TermStore* store,
                     uint64_t template_vars) const {
    return trie_.UnifyBindings(i, store, template_vars);
  }

  bool empty() const { return size() == 0; }

  const TableSpec& spec() const { return spec_; }

  // Recycling (TableSpace's free list): Clear drops every answer of a table
  // no reader can reach any more; Reopen then gives the cleared table the
  // call and spec of a new subgoal. A reopened table is indistinguishable
  // from a fresh one, bytes() included.
  void Clear();
  void Reopen(const FlatTerm& call_template, const TableSpec& spec);

  size_t trie_nodes() const { return trie_.node_count(); }
  size_t bytes() const;

 private:
  // Lattice bookkeeping per aggregate key (the flattened non-aggregated
  // arguments): current best value + its live answer index for min/max,
  // kept-answer count for first(N).
  struct AggEntry {
    int64_t best = 0;
    size_t live_index = 0;
    int64_t count = 0;
  };

  AnswerInsert InsertSubsumptive(const TermStore& store, Word instance,
                                 size_t* saved_cells);
  void RetireAnswerAt(size_t i);

  TableSpec spec_;
  AnswerTrie trie_;
  std::atomic<size_t> num_retired_{0};
  std::unordered_map<FlatTerm, AggEntry, FlatTermHash> agg_index_;
  // Key-building scratch (single mutator, like the trie's insert scratch).
  FlatTerm key_scratch_;
  std::vector<uint64_t> key_vars_;
};

// A suspended consumer: the copied (call, continuation) pair plus a cursor
// into the producer's answer list. This is the copying (CAT-style)
// realization of the SLG-WAM's frozen consumer choice points. `owner` is the
// subgoal whose generator episode suspended here — resumptions run in its
// context so dependency edges they capture are attributed correctly.
struct Consumer {
  SubgoalId producer;
  SubgoalId owner = kNoSubgoal;
  // '$consumer'(CallTerm, [Goal1, ..., GoalK]) flattened, with `saved_vars`
  // variables, at cell `saved_begin` of the store its batch keeps for all
  // of its consumers.
  size_t saved_begin = 0;
  uint32_t saved_vars = 0;
  size_t next_answer = 0;
};

// One tabled subgoal: canonical call (the answer template), state, answers,
// and its place in the incremental dependency graph.
//
// Publication protocol (the shared-table invariant): `state` is stored with
// release semantics on every transition, and the answer-table pointer is
// swapped only *after* the state has left kComplete. A lock-free reader
// therefore revalidates in this order — state == kComplete (acquire), load
// `answers` (acquire), re-check state/invalid — and either serves a table
// that is still the published complete snapshot, or falls back to the
// locked path. A reader that races an invalidation and serves the old
// snapshot linearizes before the update; the snapshot itself stays readable
// via epoch-deferred reclamation.
struct Subgoal {
  FlatTerm call;
  // Leaf of this subgoal's path in the call trie (the variant index).
  TokenTrie::NodeId call_leaf = TokenTrie::kNilNode;
  FunctorId functor = 0;
  // Answer-subsumption spec captured from the predicate at table creation;
  // re-evaluation and retirement rebuild answer tables with the same spec.
  TableSpec spec;
  std::atomic<SubgoalState> state{SubgoalState::kIncomplete};
  // Evaluation batch that created it. Written under the structure mutex at
  // creation; read by the owning batch and by same-thread reentrancy checks.
  uint64_t batch_id = 0;
  std::atomic<AnswerTable*> answers{nullptr};
  // Incremental maintenance: a completed table whose support changed is
  // marked invalid and lazily re-evaluated on its next call.
  std::atomic<bool> invalid{false};
  // Subgoals that consumed this table's answers (reverse call edges captured
  // during SLG evaluation); invalidation propagates along these. Guarded by
  // the structure mutex.
  std::vector<SubgoalId> dependents;

  Subgoal() = default;
  Subgoal(const Subgoal&) = delete;
  Subgoal& operator=(const Subgoal&) = delete;
  ~Subgoal() { delete answers.load(std::memory_order_relaxed); }

  bool ground_call() const { return call.ground(); }
  AnswerTable* table() const {
    return answers.load(std::memory_order_acquire);
  }
  SubgoalState state_acquire() const {
    return state.load(std::memory_order_acquire);
  }
  bool invalid_acquire() const {
    return invalid.load(std::memory_order_acquire);
  }
};

// Evaluation counters, shared by every session of the space. Each field is
// an atomic, independent monotonic event count: increments from concurrent
// threads interleave without synchronizing anything else, and a read
// observes some recent value of each counter individually (no cross-counter
// snapshot is implied). That is exactly the documented contract of
// table_stats/2 and the service counters. Rare events are counted where
// they happen, with `++` (a seq_cst read-modify-write, stronger than the
// contract needs). The per-answer counters — answers_inserted through
// consumer_resumptions and factored_cells_saved — are plain fields of the
// evaluator's EvalStats on the answer path, added in here with relaxed
// fetch_adds when each batch ends and before table_stats/2 reads them, so a
// running batch's answers show up only then.
struct TableStats {
  std::atomic<uint64_t> subgoals_created{0};
  std::atomic<uint64_t> subgoals_disposed{0};
  std::atomic<uint64_t> answers_inserted{0};
  std::atomic<uint64_t> duplicate_answers{0};
  // Answer subsumption (`:- table p(_, min)`): answers dropped because an
  // existing one was at least as good / answers stored by beating (and
  // retiring) an existing one.
  std::atomic<uint64_t> subsumed_dropped{0};
  std::atomic<uint64_t> subsumed_replaced{0};
  std::atomic<uint64_t> consumer_suspensions{0};
  std::atomic<uint64_t> consumer_resumptions{0};
  std::atomic<uint64_t> tables_invalidated{0};
  std::atomic<uint64_t> tables_reevaluated{0};
  // Flat cells substitution factoring avoided storing (fresh answers only):
  // full-instance size minus binding-stream size, summed.
  std::atomic<uint64_t> factored_cells_saved{0};
  // Shared-serving counters (relaxed; see struct comment).
  std::atomic<uint64_t> shared_table_hits{0};    // lock-free warm serves
  std::atomic<uint64_t> waits_on_inprogress{0};  // blocked on another batch
  std::atomic<uint64_t> epochs_retired{0};       // retired tables reclaimed
  // Parallel-evaluation counters (relaxed; see struct comment).
  std::atomic<uint64_t> parallel_batches{0};     // batches run on a proper
                                                 // shard subset (not coarse)
  std::atomic<uint64_t> shard_escalations{0};    // in-batch TryAcquireShards
                                                 // widenings that succeeded
  std::atomic<uint64_t> coarse_fallbacks{0};     // batches restarted under
                                                 // the all-shards coarse lock
  // Top-level tabled calls less bound than the mode analysis's site join
  // (a runtime call pattern the static analysis never predicted).
  std::atomic<uint64_t> mode_violations{0};
};

// The table space (section 3.2): call trie for variant-based subgoal
// indexing plus per-subgoal factored answer tables. Owns the engine-wide
// ground-term intern store. A call is checked/inserted in one walk over the
// live heap term — the hit path materializes nothing.
//
// Threading model (see DESIGN.md "Threading model" for the full treatment):
//   * The space is partitioned into kNumEvalShards *evaluation shards*
//     (shard = call-graph SCC index mod kNumEvalShards, published by the
//     analyzer onto Predicate). An evaluation batch acquires its root
//     call's whole static reach mask up front (AcquireShards, all-or-
//     nothing) and is then the exclusive evaluator of every subgoal in
//     those shards: batches over call-graph-independent tabled subgoals
//     own disjoint masks and run concurrently. A mid-batch call outside
//     the owned mask (stale mask after assertz) tries a non-blocking
//     widening (TryAcquireShards); if that fails the batch unwinds and
//     restarts under kAllEvalShards — the documented coarse fallback, and
//     the reason shard acquisition never deadlocks: blocking waits happen
//     only while holding nothing.
//   * Shared bookkeeping that is not per-shard — the call trie and subgoal
//     arena (insertion), the dependency graph, invalidation sweeps, global
//     stat walks — is serialized by the short-hold *structure mutex*;
//     per-answer work never touches it.
//   * Completed tables are published by a release store of the subgoal
//     state; thereafter any thread enumerates them lock-free (Lookup +
//     revalidation, see Subgoal). Concurrent variant callers of an
//     in-progress table WaitUntilComplete instead of duplicating work.
//   * Retiring a published table (Dispose, Clear, ResetForReevaluation)
//     never frees it in place: it is stamped with the current epoch and
//     parked; ReleaseRetiredAnswers frees only stamps every serving thread
//     has provably passed (EpochManager). The single-threaded engine has no
//     epoch slots, so there it degenerates to the old free-between-queries
//     behavior.
class TableSpace {
 public:
  explicit TableSpace(const SymbolTable* symbols, bool shared = false)
      : shared_(shared),
        interns_(symbols),
        call_trie_(&interns_) {}

  // Variant lookup straight from the heap term `goal`. Returns
  // {id, created}; on creation the new subgoal's canonical call (answer
  // template) is decoded from the walk's token stream. Takes the structure
  // mutex internally (trie insert + subgoal init + payload publish are one
  // critical section); the caller's batch must own `functor`'s shard, which
  // makes it the only possible creator/evaluator of this variant.
  // `spec` (optional) is the predicate's answer-subsumption declaration; it
  // is copied onto the subgoal at creation and ignored on a lookup hit.
  std::pair<SubgoalId, bool> LookupOrCreate(const TermStore& store, Word goal,
                                            FunctorId functor,
                                            uint64_t batch_id,
                                            const TableSpec* spec = nullptr);
  // Lookup without creating; kNoSubgoal if absent. Never mutates the trie
  // or the intern store; lock-free. Under concurrency a kNoSubgoal result
  // is advisory (the variant may have been inserted concurrently) — the
  // locked path re-checks.
  SubgoalId Lookup(const TermStore& store, Word goal) const;

  Subgoal& subgoal(SubgoalId id) { return subgoals_[id]; }
  const Subgoal& subgoal(SubgoalId id) const { return subgoals_[id]; }

  // Inserts the answer instance (a heap instance of `id`'s call) after
  // factoring out the call's ground skeleton; see AnswerInsert for the
  // outcomes (kNew/kReplaced mean "stored — wake consumers"). For a stored
  // answer, *saved_cells is the number of flat cells factoring avoided
  // storing. Counting the outcome is the caller's: the evaluator folds its
  // counts into stats() once per batch. Caller: the batch owning `id`'s
  // shard — the table's single mutator.
  AnswerInsert AddAnswer(SubgoalId id, const TermStore& store, Word instance,
                         size_t* saved_cells);

  // Removes the subgoal from the call index and drops its answers (tcut /
  // existential negation, abolish_table_call/1). The id remains valid but
  // disposed. The answer table is retired, not destroyed, so open cursors
  // keep enumerating their frozen snapshot. Caller owns `id`'s shard.
  void Dispose(SubgoalId id);

  // Drops every table (abolish_all_tables/0). The intern store survives: it
  // is a cache of ground structure, not per-table state. Answer tables are
  // retired (see Dispose) until ReleaseRetiredAnswers(). In shared mode the
  // call trie and subgoal arena are kept (concurrent readers may hold
  // indices into them) and every live subgoal is disposed instead;
  // non-shared mode truly clears. Caller owns all shards. Also drops a
  // pending ClearOrDefer.
  void Clear();
  // Clear() for an update that may arrive mid-evaluation (the baseline's
  // abolish-on-update): clears now when every shard is free, otherwise
  // marks the space clear-pending — some batch, possibly the caller's own,
  // is running. A pending space serves no table (warm path, table_state/2)
  // until the next top-level evaluation holding every shard applies it.
  void ClearOrDefer();
  bool clear_pending() const {
    return clear_pending_.load(std::memory_order_acquire);
  }

  // --- Incremental dependency graph ----------------------------------------

  // Records that `caller` consumed answers of `callee` (an SLG call edge).
  void AddDependent(SubgoalId callee, SubgoalId caller);

  // Records that subgoal `reader` resolved clauses of incremental dynamic
  // predicate `pred` (directly, or via the analyzer's static seeding).
  void AddPredReader(FunctorId pred, SubgoalId reader);

  // An update hit `pred`: marks every completed table that (transitively)
  // read it invalid. Returns the number of tables newly invalidated.
  size_t InvalidateForPredicate(FunctorId pred);

  // Marks every completed table invalid (a predicate became incremental
  // after tables were built: no dependency entries exist for it, so every
  // table is conservatively suspect). Returns the number newly invalidated.
  size_t InvalidateAll();

  // True when `id` is a completed table marked invalid: its next call must
  // re-evaluate instead of reusing the stale answers.
  bool NeedsReevaluation(SubgoalId id) const {
    const Subgoal& sg = subgoals_[id];
    return sg.state_acquire() == SubgoalState::kComplete &&
           sg.invalid_acquire();
  }

  // Reopens an invalid table for re-evaluation in `batch_id`: the old answer
  // table is retired (open cursors keep their frozen snapshot) and a fresh
  // one installed. The variant index entry is reused, so dependency edges
  // pointing at this subgoal survive re-evaluation. Caller owns `id`'s
  // shard.
  void ResetForReevaluation(SubgoalId id, uint64_t batch_id);

  // Reclaims retired answer tables whose epoch stamp every serving thread
  // has passed: they are cleared onto the recycling free list, or freed once
  // it is full. With no active epoch slots (the single-threaded engine)
  // that is all of them — the engine calls this between top-level queries.
  void ReleaseRetiredAnswers();
  size_t num_retired_answers() const;

  size_t num_subgoals() const { return subgoals_.size(); }

  InternTable& interns() { return interns_; }
  const InternTable& interns() const { return interns_; }

  const CallTrie& call_trie() const { return call_trie_; }

  bool shared() const { return shared_; }

  // --- Shard ownership protocol ---------------------------------------------

  // Blocking all-or-nothing acquisition of every shard in `mask`: parks on
  // the scheduler condvar until the whole mask is free, then claims it in
  // one step. Deadlock-freedom rule: a thread calls this only while holding
  // *no* shards (batch start, or coarse-fallback restart after releasing),
  // so circular hold-and-wait is impossible by construction.
  void AcquireShards(ShardMask mask);
  // Non-blocking widening for a batch that already holds shards and hits a
  // call outside its mask (stale reach mask after assertz). Claims `mask`
  // iff every requested-but-unowned shard is free; on failure the caller
  // must unwind to its batch boundary and restart coarse.
  bool TryAcquireShards(ShardMask mask);
  void ReleaseShards(ShardMask mask);
  // Shards currently held by some batch (diagnostic/test snapshot).
  ShardMask BusyShards() const;

  // Globally unique evaluation-batch ids across all sessions of this space.
  uint64_t NextBatchId() {
    return next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Blocks until `id` leaves kIncomplete (first-caller-computes: concurrent
  // variant callers park here instead of duplicating the evaluation). Must
  // NOT be called while holding the evaluation lock.
  void WaitUntilComplete(SubgoalId id);
  // Wakes WaitUntilComplete parkers; called after state transitions out of
  // kIncomplete (batch completion, disposal).
  void NotifyCompletion();

  EpochManager& epochs() { return epochs_; }

  // --- Schedule-perturbation test hook ---------------------------------------

  // Invoked (when set) at every lock acquisition / wait / publication point,
  // named by a stable string. The parallel stress tests install a seeded
  // randomized yield/sleep here to widen the explored interleaving space;
  // production leaves it null (one relaxed load on each hot-path call).
  using SchedulePerturbFn = void (*)(const char* point);
  static void SetSchedulePerturb(SchedulePerturbFn fn) {
    perturb_hook_.store(fn, std::memory_order_release);
  }
  static void Perturb(const char* point) {
    SchedulePerturbFn fn = perturb_hook_.load(std::memory_order_acquire);
    if (fn != nullptr) fn(point);
  }

  // Aggregates over all live tables (the table_stats/2 builtin). Each walk
  // takes the structure mutex so it never races subgoal initialization.
  size_t total_answers() const;
  size_t total_trie_nodes() const;  // answer-trie nodes
  size_t call_trie_nodes() const { return call_trie_.node_count(); }
  // Resident table-space bytes: answer tables (live and retired), the call
  // trie, subgoal metadata, and the intern store. Caller must hold every
  // shard (the intern/retired byte walks are not concurrency-safe).
  size_t table_bytes() const;

  TableStats& stats() { return stats_; }
  const TableStats& stats() const { return stats_; }

 private:
  // An empty answer table for `sg`'s call and spec: a recycled one when the
  // free list has one, else a new one.
  AnswerTable* NewAnswerTable(const Subgoal& sg);
  // Retires `sg`'s current answer table (epoch-stamped limbo) and installs
  // `replacement` (null only when the subgoal is about to be destroyed).
  // Caller has already moved `state` out of kComplete.
  void RetireAnswers(Subgoal& sg, AnswerTable* replacement);
  // Dispose without waking parked callers; false if already disposed.
  bool Unlink(SubgoalId id);

  bool shared_;
  InternTable interns_;
  CallTrie call_trie_;
  ConcurrentArena<Subgoal, 7> subgoals_;
  // Incremental predicate -> tables that read its clauses. Structure mutex.
  std::unordered_map<FunctorId, std::unordered_set<SubgoalId>> pred_readers_;

  // Answer tables detached by Dispose/Clear/ResetForReevaluation but kept
  // alive for still-open cursors and lock-free readers (freeze semantics),
  // each stamped with the epoch in which it was unlinked.
  struct Retired {
    std::unique_ptr<AnswerTable> table;
    uint64_t stamp;
  };
  mutable std::mutex retired_mutex_;
  std::vector<Retired> retired_answers_;
  // Reclaimed tables, cleared for reuse by NewAnswerTable instead of being
  // freed: cold evaluation creates and drops dozens of tables per query.
  // Only tables every reader has provably left (the epoch test above) get
  // here, on the engine and the service alike. Guarded by retired_mutex_;
  // at most kMaxRecycledTables, each holding only its first blocks.
  static constexpr size_t kMaxRecycledTables = 256;
  std::vector<std::unique_ptr<AnswerTable>> recycled_;
  EpochManager epochs_;

  // Shard scheduler: which evaluation shards are held by some batch.
  // Guarded by sched_mutex_; AcquireShards parks on sched_cv_.
  mutable std::mutex sched_mutex_;
  std::condition_variable sched_cv_;
  ShardMask shards_busy_ = 0;

  // Serializes cross-shard structural bookkeeping: call-trie insertion and
  // subgoal initialization, the dependency graph (dependents/pred_readers_),
  // invalidation sweeps, and whole-space stat walks. Never held while
  // blocking; below sched_mutex_ in the lock hierarchy (the two are never
  // held together).
  mutable std::mutex structure_mutex_;

  // Completion parking for waits-on-in-progress.
  std::mutex completion_mutex_;
  std::condition_variable completion_cv_;

  static std::atomic<SchedulePerturbFn> perturb_hook_;

  std::atomic<uint64_t> next_batch_id_{1};
  std::atomic<bool> clear_pending_{false};
  TableStats stats_;
};

// RAII shard lease: acquires `mask` blocking in the constructor, releases in
// the destructor. For whole-space operations and tests; the evaluator's
// batch loop manages its masks manually (it widens and restarts).
class ShardLease {
 public:
  ShardLease(TableSpace* tables, ShardMask mask)
      : tables_(tables), mask_(mask) {
    tables_->AcquireShards(mask_);
  }
  ~ShardLease() { tables_->ReleaseShards(mask_); }
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

 private:
  TableSpace* tables_;
  ShardMask mask_;
};

}  // namespace xsb

#endif  // XSB_TABLING_TABLE_SPACE_H_
