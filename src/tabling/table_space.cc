#include "tabling/table_space.h"

#include <algorithm>

#include "db/index.h"

namespace xsb {

AnswerTrie::ReadScratch& AnswerTrie::Scratch() {
  static thread_local ReadScratch scratch;
  return scratch;
}

bool AnswerTrie::Insert(const TermStore& store, Word instance,
                        size_t* saved_cells, size_t* index) {
  // Factor `instance` against the template in one lockstep walk: the
  // template's flat cells are traversed in preorder while the work stack
  // tracks the corresponding heap subterms. At a template variable's first
  // occurrence the heap subterm is its binding — tokenized straight from the
  // heap into the binding stream (shared variable numbering across
  // segments); repeated occurrences necessarily carry the same binding (the
  // instance is the unflattened template, instantiated) and are skipped.
  // Non-variable template cells match the instance's skeleton by
  // construction.
  encode_scratch_.Reset();
  walk_scratch_.clear();
  walk_scratch_.push_back(instance);
  const SymbolTable& symbols = interns_->symbols();
  size_t full_cells = 0;     // cells a full (unfactored) flatten would store
  size_t binding_cells = 0;  // cells of the binding stream, flattened
  seg_scratch_.clear();      // per-ordinal binding length in flat cells
  for (Word tc : template_.cells) {
    Word x = walk_scratch_.back();
    walk_scratch_.pop_back();
    if (IsLocal(tc)) {
      uint64_t ord = PayloadOf(tc);
      if (ord == seg_scratch_.size()) {
        size_t cells = 0;
        interns_->EncodeHeap(store, x, &encode_scratch_, &cells);
        seg_scratch_.push_back(cells);
        binding_cells += cells;
      }
      full_cells += seg_scratch_[ord];
    } else {
      ++full_cells;
      if (IsFunctor(tc)) {
        Word d = store.Deref(x);
        int arity = symbols.FunctorArity(FunctorOf(tc));
        for (int i = arity - 1; i >= 0; --i) {
          walk_scratch_.push_back(store.Arg(d, i));
        }
      }
    }
  }

  TokenTrie::NodeId node = TokenTrie::root();
  for (Word token : encode_scratch_.tokens) {
    node = trie_.Extend(node, token, nullptr);
  }
  if (trie_.payload(node) != TokenTrie::kNoPayload) {  // duplicate
    if (index != nullptr) *index = trie_.payload(node);
    return false;
  }
  // Publication order: link the leaf, then release the new answer count —
  // a concurrent enumerator that observes size() >= k finds answer k-1
  // fully formed.
  size_t i = leaves_.EmplaceBack(node, encode_scratch_.num_vars());
  trie_.set_payload(node, static_cast<uint32_t>(i));
  num_answers_.store(i + 1, std::memory_order_release);
  if (saved_cells != nullptr) *saved_cells = full_cells - binding_cells;
  if (index != nullptr) *index = i;
  return true;
}

void AnswerTrie::LeafPath(size_t i, std::vector<Word>* path) const {
  path->clear();
  for (TokenTrie::NodeId n = leaves_[i].node; n != TokenTrie::root();
       n = trie_.parent(n)) {
    path->push_back(trie_.token(n));
  }
  std::reverse(path->begin(), path->end());
}

bool AnswerTrie::UnifyBindings(size_t i, TermStore* store,
                               uint64_t template_vars) const {
  ReadScratch& scratch = Scratch();
  LeafPath(i, &scratch.path);
  scratch.vars.assign(leaves_[i].num_vars, kNoVar);
  size_t pos = 0;
  for (uint32_t k = 0; k < template_.num_vars; ++k) {
    if (!UnifyTokens(store, interns_, scratch.path.data(), &pos,
                     RefCell(template_vars + k), &scratch.vars)) {
      return false;
    }
  }
  return true;
}

void AnswerTrie::ReadAnswer(size_t i, FlatTerm* out) const {
  ReadScratch& scratch = Scratch();
  LeafPath(i, &scratch.path);
  scratch.expand.clear();
  for (Word token : scratch.path) {
    interns_->AppendExpansion(token, &scratch.expand);
  }
  out->cells.clear();
  out->num_vars = leaves_[i].num_vars;
  // Splice binding segments back into the template. First occurrences of
  // template variables appear in ordinal order, so segment starts are
  // discovered left to right; repeated occurrences re-splice their segment,
  // reproducing exactly the canonical flatten of the full instance.
  const SymbolTable& symbols = interns_->symbols();
  scratch.seg.clear();  // per-ordinal segment start
  size_t next_seg = 0;
  for (Word tc : template_.cells) {
    if (!IsLocal(tc)) {
      out->cells.push_back(tc);
      continue;
    }
    uint64_t ord = PayloadOf(tc);
    size_t s;
    if (ord == scratch.seg.size()) {
      s = next_seg;
      scratch.seg.push_back(s);
      next_seg = SkipFlatSubterm(symbols, scratch.expand, s);
    } else {
      s = scratch.seg[ord];
    }
    size_t e = SkipFlatSubterm(symbols, scratch.expand, s);
    out->cells.insert(out->cells.end(), scratch.expand.begin() + s,
                      scratch.expand.begin() + e);
  }
}

void AnswerTrie::Clear() {
  trie_.Clear();
  leaves_.Clear();
  num_answers_.store(0, std::memory_order_release);
}

size_t AnswerTrie::bytes() const {
  return trie_.used_bytes() + leaves_.used_bytes() +
         template_.cells.size() * sizeof(Word);
}

void AnswerTable::RetireAnswerAt(size_t i) {
  trie_.RetireLeaf(i);
  num_retired_.fetch_add(1, std::memory_order_relaxed);
}

AnswerInsert AnswerTable::Insert(const TermStore& store, Word instance,
                                 size_t* saved_cells) {
  if (spec_.subsumptive()) {
    return InsertSubsumptive(store, instance, saved_cells);
  }
  return trie_.Insert(store, instance, saved_cells) ? AnswerInsert::kNew
                                                    : AnswerInsert::kDuplicate;
}

AnswerInsert AnswerTable::InsertSubsumptive(const TermStore& store,
                                            Word instance,
                                            size_t* saved_cells) {
  const int agg_pos = spec_.agg_pos;
  const TableSpec::Arg& agg = spec_.args[agg_pos];
  Word instance_deref = store.Deref(instance);
  Word agg_value = store.Deref(store.Arg(instance_deref, agg_pos));
  int64_t value = 0;
  if (agg.agg != TableSpec::Agg::kFirst) {
    // min/max compare integers; anything else is a type error the evaluator
    // raises at the answer site.
    if (!IsInt(agg_value)) return AnswerInsert::kBadAggregate;
    value = IntValue(agg_value);
  }
  // Aggregate key: the canonical flatten of every non-aggregated argument.
  // Two answers collapse iff they are variants outside the lattice position.
  key_scratch_.cells.clear();
  key_vars_.clear();
  int arity = static_cast<int>(spec_.args.size());
  for (int i = 0; i < arity; ++i) {
    if (i == agg_pos) continue;
    FlattenAppend(store, store.Arg(instance_deref, i), &key_scratch_.cells,
                  &key_vars_);
  }
  key_scratch_.num_vars = static_cast<uint32_t>(key_vars_.size());
  auto [it, created] = agg_index_.try_emplace(key_scratch_);
  AggEntry& entry = it->second;

  if (agg.agg == TableSpec::Agg::kFirst) {
    if (entry.count >= agg.n) {
      if (created) agg_index_.erase(it);  // n == 0: nothing is ever kept
      return AnswerInsert::kSubsumedDropped;
    }
    size_t index = 0;
    if (!trie_.Insert(store, instance, saved_cells, &index)) {
      return AnswerInsert::kDuplicate;
    }
    ++entry.count;
    return AnswerInsert::kNew;
  }

  if (!created) {
    bool better = agg.agg == TableSpec::Agg::kMin ? value < entry.best
                                                  : value > entry.best;
    if (!better) {
      // Equal value + equal key means a variant of the kept answer; a worse
      // value is lattice-subsumed. Neither touches the trie.
      return value == entry.best ? AnswerInsert::kDuplicate
                                 : AnswerInsert::kSubsumedDropped;
    }
  }
  // Store first, retire second: the beaten answer stays readable (frozen)
  // for any cursor currently parked on it, and the table never passes
  // through a state with zero live answers for this key. The new answer is
  // provably trie-fresh — per-key values move strictly through the lattice,
  // so this (key, value) pair has never been stored.
  size_t index = 0;
  if (!trie_.Insert(store, instance, saved_cells, &index)) {
    return AnswerInsert::kDuplicate;  // defensive; see invariant above
  }
  if (!created) RetireAnswerAt(entry.live_index);
  entry.best = value;
  entry.live_index = index;
  return created ? AnswerInsert::kNew : AnswerInsert::kReplaced;
}

void AnswerTable::ReadAnswer(size_t i, FlatTerm* out) const {
  trie_.ReadAnswer(i, out);
}

void AnswerTable::Clear() {
  trie_.Clear();
  num_retired_.store(0, std::memory_order_relaxed);
  agg_index_.clear();
}

void AnswerTable::Reopen(const FlatTerm& call_template,
                         const TableSpec& spec) {
  trie_.set_call_template(call_template);
  spec_ = spec;
}

size_t AnswerTable::bytes() const {
  size_t agg_bytes = 0;
  for (const auto& [key, entry] : agg_index_) {
    agg_bytes += key.cells.capacity() * sizeof(Word) + sizeof(AggEntry) +
                 2 * sizeof(void*);
  }
  return trie_.bytes() + agg_bytes;
}

std::atomic<TableSpace::SchedulePerturbFn> TableSpace::perturb_hook_{nullptr};

std::pair<SubgoalId, bool> TableSpace::LookupOrCreate(const TermStore& store,
                                                      Word goal,
                                                      FunctorId functor,
                                                      uint64_t batch_id,
                                                      const TableSpec* spec) {
  Perturb("table.lookup_or_create");
  std::lock_guard<std::mutex> lock(structure_mutex_);
  TokenTrie::NodeId leaf = call_trie_.LookupOrInsert(store, goal);
  uint32_t payload = call_trie_.payload(leaf);
  if (payload != TokenTrie::kNoPayload) {
    return {static_cast<SubgoalId>(payload), false};
  }
  SubgoalId id = static_cast<SubgoalId>(subgoals_.EmplaceBack());
  Subgoal& sg = subgoals_[id];
  sg.call = call_trie_.DecodeLastCall();
  sg.call_leaf = leaf;
  sg.functor = functor;
  sg.batch_id = batch_id;
  if (spec != nullptr) sg.spec = *spec;
  sg.answers.store(NewAnswerTable(sg), std::memory_order_release);
  // Publish last: a lock-free prober that reads this payload finds the
  // subgoal fully initialized.
  call_trie_.set_payload(leaf, id);
  ++stats_.subgoals_created;
  return {id, true};
}

SubgoalId TableSpace::Lookup(const TermStore& store, Word goal) const {
  TokenTrie::NodeId leaf = call_trie_.Probe(store, goal);
  if (leaf == TokenTrie::kNilNode) return kNoSubgoal;
  uint32_t payload = call_trie_.payload(leaf);
  return payload == TokenTrie::kNoPayload ? kNoSubgoal
                                          : static_cast<SubgoalId>(payload);
}

AnswerInsert TableSpace::AddAnswer(SubgoalId id, const TermStore& store,
                                   Word instance, size_t* saved_cells) {
  Perturb("answer.insert");
  return subgoals_[id].table()->Insert(store, instance, saved_cells);
}

AnswerTable* TableSpace::NewAnswerTable(const Subgoal& sg) {
  std::unique_ptr<AnswerTable> table;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    if (!recycled_.empty()) {
      table = std::move(recycled_.back());
      recycled_.pop_back();
    }
  }
  if (table == nullptr) return new AnswerTable(&interns_, sg.call, sg.spec);
  table->Reopen(sg.call, sg.spec);
  return table.release();
}

void TableSpace::RetireAnswers(Subgoal& sg, AnswerTable* replacement) {
  AnswerTable* old =
      sg.answers.exchange(replacement, std::memory_order_acq_rel);
  uint64_t stamp = epochs_.Retire();
  std::lock_guard<std::mutex> lock(retired_mutex_);
  retired_answers_.push_back(
      Retired{std::unique_ptr<AnswerTable>(old), stamp});
}

bool TableSpace::Unlink(SubgoalId id) {
  Subgoal& sg = subgoals_[id];
  if (sg.state_acquire() == SubgoalState::kDisposed) return false;
  // The trie path stays; clearing the leaf payload unlinks the variant. A
  // later variant call reuses the path and installs a fresh subgoal id.
  call_trie_.set_payload(sg.call_leaf, TokenTrie::kNoPayload);
  // Publication order: leave kComplete *before* swapping the table pointer,
  // so a revalidating reader that sees the fresh pointer must also see the
  // disposed state and reject it (see Subgoal's protocol comment).
  sg.state.store(SubgoalState::kDisposed, std::memory_order_release);
  RetireAnswers(sg, NewAnswerTable(sg));
  ++stats_.subgoals_disposed;
  return true;
}

void TableSpace::Dispose(SubgoalId id) {
  if (Unlink(id)) NotifyCompletion();
}

void TableSpace::Clear() {
  // Reset first, so a clear deferred while this one runs is kept.
  clear_pending_.store(false, std::memory_order_release);
  size_t n = subgoals_.size();
  if (shared_) {
    // Concurrent readers may hold subgoal ids and trie indices: keep the
    // arenas and dispose every live table instead of deallocating. Parked
    // callers are woken once, after the last disposal.
    for (size_t i = 0; i < n; ++i) Unlink(static_cast<SubgoalId>(i));
    NotifyCompletion();
    std::lock_guard<std::mutex> lock(structure_mutex_);
    pred_readers_.clear();
    return;
  }
  // The subgoals are destroyed below, so their tables are retired without
  // a replacement.
  for (size_t i = 0; i < n; ++i) {
    Subgoal& sg = subgoals_[i];
    if (sg.table() != nullptr) RetireAnswers(sg, nullptr);
  }
  std::lock_guard<std::mutex> lock(structure_mutex_);
  call_trie_.Clear();
  subgoals_.Clear();
  pred_readers_.clear();
}

void TableSpace::ClearOrDefer() {
  if (!TryAcquireShards(kAllEvalShards)) {
    clear_pending_.store(true, std::memory_order_release);
    return;
  }
  Clear();
  ReleaseShards(kAllEvalShards);
}

void TableSpace::AddDependent(SubgoalId callee, SubgoalId caller) {
  if (callee == caller) return;
  std::lock_guard<std::mutex> lock(structure_mutex_);
  std::vector<SubgoalId>& deps = subgoals_[callee].dependents;
  if (std::find(deps.begin(), deps.end(), caller) == deps.end()) {
    deps.push_back(caller);
  }
}

void TableSpace::AddPredReader(FunctorId pred, SubgoalId reader) {
  std::lock_guard<std::mutex> lock(structure_mutex_);
  pred_readers_[pred].insert(reader);
}

size_t TableSpace::InvalidateForPredicate(FunctorId pred) {
  std::lock_guard<std::mutex> lock(structure_mutex_);
  auto it = pred_readers_.find(pred);
  if (it == pred_readers_.end()) return 0;
  size_t count = 0;
  std::vector<SubgoalId> work(it->second.begin(), it->second.end());
  std::unordered_set<SubgoalId> visited(work.begin(), work.end());
  while (!work.empty()) {
    SubgoalId id = work.back();
    work.pop_back();
    Subgoal& sg = subgoals_[id];
    if (sg.state_acquire() == SubgoalState::kDisposed) continue;
    // Incomplete tables are flagged too: they are mid-evaluation and may
    // have read the predicate before the update, so they complete as
    // already-invalid and re-evaluate on their next call. Already invalid
    // tables still propagate: edges may have been added since they were
    // first flagged.
    if (!sg.invalid.load(std::memory_order_relaxed)) {
      sg.invalid.store(true, std::memory_order_release);
      if (sg.state_acquire() == SubgoalState::kComplete) ++count;
    }
    for (SubgoalId dep : sg.dependents) {
      if (visited.insert(dep).second) work.push_back(dep);
    }
  }
  stats_.tables_invalidated += count;
  return count;
}

size_t TableSpace::InvalidateAll() {
  size_t count = 0;
  size_t n = subgoals_.size();
  for (size_t i = 0; i < n; ++i) {
    Subgoal& sg = subgoals_[i];
    if (sg.state_acquire() == SubgoalState::kComplete &&
        !sg.invalid.load(std::memory_order_relaxed)) {
      sg.invalid.store(true, std::memory_order_release);
      ++count;
    }
  }
  stats_.tables_invalidated += count;
  return count;
}

void TableSpace::ResetForReevaluation(SubgoalId id, uint64_t batch_id) {
  Subgoal& sg = subgoals_[id];
  // Same publication order as Dispose: leave kComplete first, then swap.
  sg.state.store(SubgoalState::kIncomplete, std::memory_order_release);
  RetireAnswers(sg, NewAnswerTable(sg));
  sg.invalid.store(false, std::memory_order_release);
  sg.batch_id = batch_id;
  ++stats_.tables_reevaluated;
}

void TableSpace::ReleaseRetiredAnswers() {
  Perturb("retired.sweep");
  std::vector<std::unique_ptr<AnswerTable>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    // One scan of the epoch slots for the whole sweep, made under the lock:
    // every table on the list was unlinked and stamped before it was pushed,
    // so a reader that could still hold one has announced by now, and a
    // stamp below the minimum announced epoch is past every reader.
    uint64_t min_active = epochs_.MinActive();
    auto kept = std::partition(
        retired_answers_.begin(), retired_answers_.end(),
        [min_active](const Retired& r) { return r.stamp >= min_active; });
    reclaimed.reserve(static_cast<size_t>(retired_answers_.end() - kept));
    for (auto it = kept; it != retired_answers_.end(); ++it) {
      reclaimed.push_back(std::move(it->table));
    }
    retired_answers_.erase(kept, retired_answers_.end());
    stats_.epochs_retired += reclaimed.size();
  }
  if (reclaimed.empty()) return;
  // Clear outside the lock (a large table takes a while to free), then
  // park what fits; the rest is freed with `reclaimed`.
  for (std::unique_ptr<AnswerTable>& table : reclaimed) table->Clear();
  std::lock_guard<std::mutex> lock(retired_mutex_);
  for (std::unique_ptr<AnswerTable>& table : reclaimed) {
    if (recycled_.size() == kMaxRecycledTables) break;
    recycled_.push_back(std::move(table));
  }
}

size_t TableSpace::num_retired_answers() const {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  return retired_answers_.size();
}

void TableSpace::AcquireShards(ShardMask mask) {
  Perturb("shards.acquire");
  std::unique_lock<std::mutex> lock(sched_mutex_);
  sched_cv_.wait(lock, [&] { return (shards_busy_ & mask) == 0; });
  shards_busy_ |= mask;
  lock.unlock();
  Perturb("shards.acquired");
}

bool TableSpace::TryAcquireShards(ShardMask mask) {
  Perturb("shards.try");
  std::lock_guard<std::mutex> lock(sched_mutex_);
  if ((shards_busy_ & mask) != 0) return false;
  shards_busy_ |= mask;
  return true;
}

void TableSpace::ReleaseShards(ShardMask mask) {
  Perturb("shards.release");
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    shards_busy_ &= ~mask;
  }
  sched_cv_.notify_all();
}

ShardMask TableSpace::BusyShards() const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return shards_busy_;
}

void TableSpace::WaitUntilComplete(SubgoalId id) {
  Perturb("completion.park");
  std::unique_lock<std::mutex> lock(completion_mutex_);
  completion_cv_.wait(lock, [&] {
    return subgoals_[id].state_acquire() != SubgoalState::kIncomplete;
  });
}

void TableSpace::NotifyCompletion() {
  Perturb("completion.notify");
  // Taking the mutex (even empty) orders the preceding state stores before
  // the notify with respect to a parker between its predicate check and its
  // wait — the classic lost-wakeup guard.
  { std::lock_guard<std::mutex> lock(completion_mutex_); }
  completion_cv_.notify_all();
}

size_t TableSpace::total_answers() const {
  std::lock_guard<std::mutex> lock(structure_mutex_);
  size_t total = 0;
  size_t n = subgoals_.size();
  for (size_t i = 0; i < n; ++i) {
    if (const AnswerTable* t = subgoals_[i].table()) total += t->live_size();
  }
  return total;
}

size_t TableSpace::total_trie_nodes() const {
  std::lock_guard<std::mutex> lock(structure_mutex_);
  size_t total = 0;
  size_t n = subgoals_.size();
  for (size_t i = 0; i < n; ++i) {
    if (const AnswerTable* t = subgoals_[i].table()) total += t->trie_nodes();
  }
  return total;
}

size_t TableSpace::table_bytes() const {
  std::lock_guard<std::mutex> lock(structure_mutex_);
  size_t total = interns_.bytes() + call_trie_.bytes();
  size_t n = subgoals_.size();
  total += subgoals_.bytes();
  for (size_t i = 0; i < n; ++i) {
    const Subgoal& sg = subgoals_[i];
    if (const AnswerTable* t = sg.table()) total += t->bytes();
    total += sg.call.cells.capacity() * sizeof(Word);
    total += sg.dependents.capacity() * sizeof(SubgoalId);
  }
  std::lock_guard<std::mutex> retired_lock(retired_mutex_);
  for (const Retired& r : retired_answers_) total += r.table->bytes();
  return total;
}

}  // namespace xsb
