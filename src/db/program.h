#ifndef XSB_DB_PROGRAM_H_
#define XSB_DB_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/status.h"
#include "db/index.h"
#include "db/trie_index.h"
#include "parser/ops.h"
#include "term/flat.h"
#include "term/store.h"

namespace xsb {

// --- Evaluation sharding ------------------------------------------------------
//
// The shared table space is partitioned into kNumEvalShards evaluation
// shards; a tabled subgoal belongs to the shard of its predicate's call-graph
// SCC (scc index mod kNumEvalShards, assigned by the consult-time analyzer).
// A cold evaluation batch owns the shards of every *tabled* SCC statically
// reachable from its root before it starts, so batches over independent
// subgoals hold disjoint shard sets and run concurrently. A ShardMask is a
// bitset over the shards; mask 0 means "unknown" and callers treat it as
// kAllEvalShards (coarse, mutually exclusive with everything).
inline constexpr int kNumEvalShards = 16;
using ShardMask = uint32_t;
inline constexpr ShardMask kAllEvalShards =
    (ShardMask{1} << kNumEvalShards) - 1;
inline constexpr ShardMask EvalShardBit(int shard) {
  return ShardMask{1} << shard;
}

// --- Published instantiation modes --------------------------------------------
//
// The mode/groundness analysis (analysis/modes.h) publishes its per-predicate
// results here as raw bytes so this header stays free of the analysis types;
// analysis::Inst maps onto these values one-to-one.
inline constexpr uint8_t kModeGround = 0;  // no variables anywhere
inline constexpr uint8_t kModeNonvar = 1;  // outer symbol known
inline constexpr uint8_t kModeFree = 2;    // definitely an unbound variable
inline constexpr uint8_t kModeAny = 3;     // no information

// Inferred call/success patterns of one predicate, as published by
// analysis::PublishModes. Consumers: the WAM compiler (specialization
// target + runtime guard), predicate_mode/2, the evaluator's per-pattern
// shard reach masks, and the sanitizer-build soundness oracle.
struct PublishedModes {
  struct Pattern {
    std::vector<uint8_t> call;
    // Empty when the analysis proved the pattern can never succeed.
    std::vector<uint8_t> success;
    // Shards of the tabled SCCs reachable from this call pattern; a hint
    // exactly like Predicate::eval_reach_mask (0 = unknown).
    ShardMask reach_mask = 0;
  };
  std::vector<Pattern> patterns;     // [0] is the all-`any` top pattern
  std::vector<uint8_t> site_join;    // join over call-site patterns ([] = no
                                     // analyzed call site)
  std::vector<uint8_t> spec_meet;    // most precise site pattern worth
                                     // specializing for ([] = none)
  std::vector<uint8_t> success_join; // [] = never succeeds
  // Program::clause_epoch() at publication. Runtime asserts bump the epoch,
  // after which success modes may understate the program (a new clause can
  // produce differently-bound answers): epoch-mismatched modes must not be
  // *trusted* (the oracle skips its asserts), though they remain usable as
  // hints (shard masks, guarded WAM code).
  uint64_t epoch = 0;
};

// --- Answer subsumption table specs -------------------------------------------
//
// `:- table p(_, min).` declares per-argument lattice aggregation: answers
// that agree on every non-aggregated argument are collapsed by the lattice at
// the aggregated position instead of accumulating. At most one argument may
// carry a lattice; `first(N)` bounds the per-key answer count in insertion
// order rather than comparing values.
struct TableSpec {
  enum class Agg : uint8_t {
    kAll,    // `_`: plain tabling at this argument
    kMin,    // keep the answer with the smallest integer value
    kMax,    // keep the answer with the largest integer value
    kFirst,  // keep at most `n` answers per key, insertion order
  };
  struct Arg {
    Agg agg = Agg::kAll;
    int64_t n = 0;  // kFirst only
  };
  std::vector<Arg> args;
  int agg_pos = -1;  // index of the (single) aggregated argument, -1 if none
  bool subsumptive() const { return agg_pos >= 0; }
};

// How a predicate's clauses are indexed.
enum class IndexKind {
  kNone,         // linear scan
  kFirstArg,     // hash on the outer symbol of one argument (default: arg 1)
  kMultiField,   // :- index(p/5, [1, 2, 3+5])
  kFirstString,  // trie-based first-string indexing
};

// One stored clause. `term` is the flattened full clause: either a bare head
// (a fact) or ':-'(Head, Body); in a rule the body follows the head.
struct Clause {
  FlatTerm term;
  bool is_rule = false;
  bool erased = false;  // tombstone left by retract
  size_t head_pos = 0;  // position of the head within term.cells
  SourceSpan span;      // where the clause was read; unknown for asserts
  // Sorts in clause order: asserta'd clauses count down from -1, the
  // others take their id.
  int64_t order = 0;
};

// A predicate: its clauses plus indexing and evaluation attributes.
class Predicate {
 public:
  Predicate(FunctorId functor, AtomId module)
      : functor_(functor), module_(module) {}

  FunctorId functor() const { return functor_; }
  AtomId module() const { return module_; }

  bool tabled() const { return tabled_; }
  void set_tabled(bool value) { tabled_ = value; }
  bool dynamic() const { return dynamic_; }
  void set_dynamic(bool value) { dynamic_ = value; }
  // Declared via :- incremental(p/N): updates to this predicate's clauses
  // are reported to the table-maintenance listener so dependent tables can
  // be invalidated instead of going silently stale.
  bool incremental() const { return incremental_; }
  void set_incremental(bool value) { incremental_ = value; }
  // Declared via a directive (table/dynamic/index/...): calling it with no
  // clauses is intentional, so the unknown-predicate lint stays quiet.
  bool declared() const { return declared_; }
  void set_declared(bool value) { declared_ = value; }
  // :- discontiguous p/N. suppresses the L002 lint.
  bool discontiguous_ok() const { return discontiguous_ok_; }
  void set_discontiguous_ok(bool value) { discontiguous_ok_ = value; }

  // Answer-subsumption lattice declaration (`:- table p(_, min).`); nullptr
  // for plain tabling. Captured by each Subgoal at table creation, so a
  // redeclaration only affects tables created afterwards.
  const TableSpec* table_spec() const { return table_spec_.get(); }
  void set_table_spec(std::unique_ptr<const TableSpec> spec) {
    table_spec_ = std::move(spec);
  }

  // Evaluation-shard assignment published by the consult-time analyzer:
  // `eval_shard` is the shard of this predicate's call-graph SCC (-1 before
  // any analysis), `eval_reach_mask` the shards of every tabled SCC
  // statically reachable from it (0 = unknown; callers treat 0 as all
  // shards). The mask is a *hint*: clauses asserted after the analysis can
  // make it stale, which the evaluator's ownership check catches at the
  // tabled call (escalate or fall back to coarse) — soundness never depends
  // on the mask being current.
  int eval_shard() const { return eval_shard_; }
  ShardMask eval_reach_mask() const { return eval_reach_mask_; }
  void set_eval_shards(int shard, ShardMask reach_mask) {
    eval_shard_ = shard;
    eval_reach_mask_ = reach_mask;
  }

  // Inferred call/success modes published by the mode analysis; nullptr
  // before any analysis (and after clear_modes()). Same publication
  // discipline as set_eval_shards: written only under pause-the-world or a
  // single-threaded session.
  const PublishedModes* modes() const { return modes_.get(); }
  void set_modes(std::unique_ptr<const PublishedModes> modes) {
    modes_ = std::move(modes);
  }
  void clear_modes() { modes_.reset(); }

  // First-argument dispatch masks for tabled predicates whose live clauses
  // all key on an atom/int first argument: constant -> shards reachable
  // through that clause group (plus nothing else). A bound cold call whose
  // first argument hits a key acquires only that group's shards; a miss
  // means no clause matches, so only the predicate's own shard is needed.
  // nullptr = not applicable. Hints like eval_reach_mask: stale entries are
  // repaired by the evaluator's runtime ownership check.
  const std::unordered_map<Word, ShardMask>* key_masks() const {
    return key_masks_.get();
  }
  void set_key_masks(
      std::unique_ptr<const std::unordered_map<Word, ShardMask>> masks) {
    key_masks_ = std::move(masks);
  }
  void clear_key_masks() { key_masks_.reset(); }

  IndexKind index_kind() const { return index_kind_; }

  // Every clause ever added, erased ones included, indexed by ClauseId. Ids
  // are stable: a clause keeps its id for the predicate's life, and id
  // order is the order of addition, not clause order (see AllClauses).
  const std::vector<Clause>& clauses() const { return clauses_; }
  const Clause& clause(ClauseId id) const { return clauses_[id]; }
  size_t num_live_clauses() const { return live_count_; }

  // Every clause in clause order (erased ones included).
  CandidateView AllClauses() const { return CandidateView(all_); }

  // Adds a clause at the end of the clause order, or at its front for
  // asserta, and updates the indexes. Returns its new id. Open views keep
  // their snapshot (see CandidateView).
  ClauseId AddClause(const SymbolTable& symbols, Clause clause, bool front);

  // Tombstones a clause (retract/1).
  void EraseClause(ClauseId id);

  // Drops all clauses and indexes (used by source-to-source transforms).
  void ClearClauses();

  // Declares the index layout. `fields`: list of field sets (1-based arg
  // numbers); empty = no indexing. Rebuilds over existing clauses.
  void SetHashIndex(const SymbolTable& symbols,
                    std::vector<std::vector<int>> field_sets);
  void SetFirstStringIndex(const SymbolTable& symbols);
  void SetNoIndex();

  // Candidate clauses for `goal` (a heap term of this predicate), best
  // available index first: a superset of the clauses whose heads unify with
  // the goal, in clause order, possibly including erased clauses (callers
  // must check). A view, not a copy: except under first-string indexing it
  // allocates nothing.
  CandidateView Candidates(const TermStore& store, Word goal) const;

  const FirstStringIndex* first_string_index() const { return trie_.get(); }

 private:
  void Reindex(const SymbolTable& symbols);
  void IndexClause(const SymbolTable& symbols, ClauseId id, bool front);
  std::vector<Word> KeysFor(const SymbolTable& symbols, const Clause& clause,
                            const std::vector<int>& fields) const;

  FunctorId functor_;
  AtomId module_;
  bool tabled_ = false;
  bool dynamic_ = true;
  bool incremental_ = false;
  bool declared_ = false;
  bool discontiguous_ok_ = false;
  std::unique_ptr<const TableSpec> table_spec_;
  int eval_shard_ = -1;
  ShardMask eval_reach_mask_ = 0;
  std::unique_ptr<const PublishedModes> modes_;
  std::unique_ptr<const std::unordered_map<Word, ShardMask>> key_masks_;
  size_t live_count_ = 0;

  IndexKind index_kind_ = IndexKind::kFirstArg;
  std::vector<std::vector<int>> field_sets_ = {{1}};
  std::vector<std::unique_ptr<CombinedHashIndex>> hash_indexes_;
  std::unique_ptr<ArgHashIndex> first_arg_;
  std::unique_ptr<FirstStringIndex> trie_;

  std::vector<Clause> clauses_;
  ClauseList all_;  // every clause id, in clause order
};

// Receives change notifications for incremental dynamic predicates. The
// tabling evaluator registers itself here so assert/retract/consult on a
// `:- incremental` predicate invalidates exactly the dependent tables.
class TableUpdateListener {
 public:
  virtual ~TableUpdateListener() = default;

  // Predicate `functor` (declared incremental) gained or lost a clause.
  virtual void OnIncrementalUpdate(FunctorId functor) = 0;

  // Predicate `functor` just *became* incremental. Tables created before the
  // declaration carry no dependency entries for it, so a late (runtime)
  // declaration must be handled conservatively.
  virtual void OnIncrementalDeclaration(FunctorId /*functor*/) {}
};

// The clause database: predicates, HiLog declarations, the operator table,
// and the per-module bookkeeping used by table_all.
class Program {
 public:
  explicit Program(SymbolTable* symbols)
      : symbols_(symbols), ops_(symbols) {
    user_module_ = symbols->InternAtom("user");
    current_module_ = user_module_;
  }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  SymbolTable* symbols() const { return symbols_; }
  OpTable* ops() { return &ops_; }
  const OpTable& ops() const { return ops_; }

  // Looks a predicate up; returns nullptr if never defined/declared. One
  // load on the clause-resolution hot path.
  Predicate* Lookup(FunctorId functor) {
    return functor < predicates_.size() ? predicates_[functor].get()
                                        : nullptr;
  }
  const Predicate* Lookup(FunctorId functor) const {
    return functor < predicates_.size() ? predicates_[functor].get()
                                        : nullptr;
  }
  // Looks up, creating an empty predicate on first use.
  Predicate* LookupOrCreate(FunctorId functor);

  // Adds the clause `clause_term` (a heap term: fact or H :- B).
  // `front` selects asserta semantics. `span` records where the clause was
  // read from (default: unknown, as for runtime asserts).
  Status AddClauseTerm(const TermStore& store, Word clause_term,
                       bool front = false, SourceSpan span = SourceSpan());

  // Declarations (normally issued via directives during a consult).
  Status DeclareTabled(FunctorId functor);
  // `:- table p(_, min).`: tabled with answer-subsumption. `spec.args` must
  // match the functor's arity and carry exactly one aggregated position.
  Status DeclareTabledSubsumptive(FunctorId functor, TableSpec spec);
  // :- incremental(p/N): dynamic + update events feed table maintenance.
  Status DeclareIncremental(FunctorId functor);
  Status DeclareHilog(AtomId atom);
  Status DeclareIndex(FunctorId functor,
                      std::vector<std::vector<int>> field_sets);
  Status DeclareFirstString(FunctorId functor);

  bool IsHilogAtom(AtomId atom) const { return hilog_atoms_.count(atom) > 0; }
  const std::unordered_set<AtomId>* hilog_atoms() const {
    return &hilog_atoms_;
  }

  AtomId current_module() const { return current_module_; }
  void set_current_module(AtomId module) { current_module_ = module; }

  // Every predicate, indexed by FunctorId; null where none was defined or
  // declared.
  const std::vector<std::unique_ptr<Predicate>>& predicates() const {
    return predicates_;
  }

  // Splits a callable heap term into functor + whether it is callable.
  // Atoms are arity-0 predicates.
  static std::optional<FunctorId> CallableFunctor(const TermStore& store,
                                                  Word goal);

  // --- Consult-time analysis state ------------------------------------------

  // Lints collected while reading (singleton variables need the variable
  // names, which do not survive flattening). Analyze() folds these into its
  // diagnostics.
  void AddConsultLint(analysis::Diagnostic lint) {
    consult_lints_.push_back(std::move(lint));
  }
  const std::vector<analysis::Diagnostic>& consult_lints() const {
    return consult_lints_;
  }

  // Diagnostics produced by the most recent consult-time analysis, for
  // analyze/1 and shell reporting.
  void SetAnalysisDiagnostics(std::vector<analysis::Diagnostic> diags) {
    analysis_diagnostics_ = std::move(diags);
  }
  const std::vector<analysis::Diagnostic>& analysis_diagnostics() const {
    return analysis_diagnostics_;
  }

  // Per-predicate stratification verdict published by the analyzer: maps
  // each member of a negation-infected SCC to its S001 message. The tabling
  // evaluator cites this instead of its generic runtime error.
  void SetUnstratified(std::unordered_map<FunctorId, std::string> reasons) {
    unstratified_ = std::move(reasons);
  }
  // Returns the S001 message for `functor`, or nullptr if the analyzer
  // found it stratified (or never ran).
  const std::string* UnstratifiedReason(FunctorId functor) const {
    auto it = unstratified_.find(functor);
    return it == unstratified_.end() ? nullptr : &it->second;
  }

  // Monotone counter naming anonymous consult units ("<consult-N>"), so
  // clauses from different ConsultString calls never appear interleaved.
  int NextConsultId() { return ++consult_counter_; }

  // Monotone count of clause *additions* (consult and runtime asserts).
  // Published modes carry the epoch they were computed at; a mismatch tells
  // trust-requiring consumers (the soundness oracle) that success modes may
  // understate the current program. Clause erasure does not bump it: a
  // shrunken program only ever satisfies the published upper bounds more.
  uint64_t clause_epoch() const { return clause_epoch_; }
  void BumpClauseEpoch() { ++clause_epoch_; }

  // --- Incremental update maintenance ---------------------------------------

  // The table-maintenance listener (the tabling evaluator), or nullptr.
  void set_update_listener(TableUpdateListener* listener) {
    update_listener_ = listener;
  }
  TableUpdateListener* update_listener() const { return update_listener_; }
  // Reports a clause change on incremental predicate `functor`. AddClauseTerm
  // calls this itself; the retract family of builtins calls it after erasing.
  void NotifyIncrementalUpdate(FunctorId functor) {
    if (update_listener_ != nullptr) {
      update_listener_->OnIncrementalUpdate(functor);
    }
  }

  // Static dependency seeds published by the analyzer: for each predicate,
  // the incremental predicates reachable through the call graph (including
  // itself when incremental). New tables are registered as readers of every
  // seed, which makes invalidation a superset of the truly affected tables
  // even for calls the runtime capture cannot see (call/N, HiLog).
  void SetIncrementalDeps(
      std::unordered_map<FunctorId, std::vector<FunctorId>> deps) {
    incremental_deps_ = std::move(deps);
  }
  const std::vector<FunctorId>* IncrementalDepsOf(FunctorId functor) const {
    auto it = incremental_deps_.find(functor);
    return it == incremental_deps_.end() ? nullptr : &it->second;
  }

 private:
  SymbolTable* symbols_;
  OpTable ops_;
  AtomId user_module_;
  AtomId current_module_;
  std::vector<std::unique_ptr<Predicate>> predicates_;  // see predicates()
  std::unordered_set<AtomId> hilog_atoms_;
  std::vector<analysis::Diagnostic> consult_lints_;
  std::vector<analysis::Diagnostic> analysis_diagnostics_;
  std::unordered_map<FunctorId, std::string> unstratified_;
  int consult_counter_ = 0;
  uint64_t clause_epoch_ = 0;
  TableUpdateListener* update_listener_ = nullptr;
  std::unordered_map<FunctorId, std::vector<FunctorId>> incremental_deps_;
};

}  // namespace xsb

#endif  // XSB_DB_PROGRAM_H_
