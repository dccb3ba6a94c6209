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
  // occurrence the heap subterm is its binding — flattened into the binding
  // stream (shared variable numbering across segments); repeated occurrences
  // necessarily carry the same binding (the instance is the unflattened
  // template, instantiated) and are skipped. Non-variable template cells
  // match the instance's skeleton by construction.
  bindings_scratch_.clear();
  var_scratch_.clear();
  walk_scratch_.clear();
  walk_scratch_.push_back(instance);
  const SymbolTable& symbols = interns_->symbols();
  size_t full_cells = 0;  // cells a full (unfactored) flatten would store
  size_t next_ord = 0;
  seg_scratch_.clear();  // per-ordinal binding segment length
  for (Word tc : template_.cells) {
    Word x = walk_scratch_.back();
    walk_scratch_.pop_back();
    if (IsLocal(tc)) {
      uint64_t ord = PayloadOf(tc);
      if (ord == next_ord) {
        size_t before = bindings_scratch_.size();
        FlattenAppend(store, x, &bindings_scratch_, &var_scratch_);
        seg_scratch_.push_back(bindings_scratch_.size() - before);
        ++next_ord;
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

  interns_->Encode(bindings_scratch_, &encode_scratch_);
  TokenTrie::NodeId node = TokenTrie::root();
  for (Word token : encode_scratch_) {
    node = trie_.Extend(node, token, nullptr);
  }
  if (trie_.payload(node) != TokenTrie::kNoPayload) {  // duplicate
    if (index != nullptr) *index = trie_.payload(node);
    return false;
  }
  // Publication order: link the leaf, then release the new answer count —
  // a concurrent enumerator that observes size() >= k finds answer k-1
  // fully formed.
  size_t i =
      leaves_.EmplaceBack(node, static_cast<uint32_t>(var_scratch_.size()));
  trie_.set_payload(node, static_cast<uint32_t>(i));
  num_answers_.store(i + 1, std::memory_order_release);
  if (saved_cells != nullptr) {
    *saved_cells = full_cells - bindings_scratch_.size();
  }
  if (index != nullptr) *index = i;
  return true;
}

void AnswerTrie::ExpandLeaf(size_t i, std::vector<Word>* out) const {
  std::vector<Word>& path = Scratch().path;
  path.clear();
  for (TokenTrie::NodeId n = leaves_[i].node; n != TokenTrie::root();
       n = trie_.parent(n)) {
    path.push_back(trie_.token(n));
  }
  out->clear();
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    interns_->AppendExpansion(*it, out);
  }
}

void AnswerTrie::ReadBindings(size_t i, FlatTerm* out) const {
  ExpandLeaf(i, &out->cells);
  out->num_vars = leaves_[i].num_vars;
}

void AnswerTrie::ReadAnswer(size_t i, FlatTerm* out) const {
  ReadScratch& scratch = Scratch();
  ExpandLeaf(i, &scratch.expand);
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

size_t AnswerTrie::bytes() const {
  return trie_.bytes() + leaves_.bytes() +
         template_.cells.capacity() * sizeof(Word);
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

void AnswerTable::ReadBindings(size_t i, FlatTerm* out) const {
  trie_.ReadBindings(i, out);
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
                                   Word instance) {
  Perturb("answer.insert");
  size_t saved = 0;
  AnswerInsert outcome =
      subgoals_[id].table()->Insert(store, instance, &saved);
  switch (outcome) {
    case AnswerInsert::kNew:
      ++stats_.answers_inserted;
      stats_.factored_cells_saved += saved;
      break;
    case AnswerInsert::kReplaced:
      ++stats_.answers_inserted;
      ++stats_.subsumed_replaced;
      stats_.factored_cells_saved += saved;
      break;
    case AnswerInsert::kDuplicate:
      ++stats_.duplicate_answers;
      break;
    case AnswerInsert::kSubsumedDropped:
      ++stats_.subsumed_dropped;
      break;
    case AnswerInsert::kBadAggregate:
      break;  // the evaluator raises the type error
  }
  return outcome;
}

AnswerTable* TableSpace::NewAnswerTable(const Subgoal& sg) {
  return new AnswerTable(&interns_, sg.call, sg.spec);
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
  std::lock_guard<std::mutex> lock(retired_mutex_);
  size_t before = retired_answers_.size();
  retired_answers_.erase(
      std::remove_if(retired_answers_.begin(), retired_answers_.end(),
                     [this](const Retired& r) {
                       return epochs_.SafeToReclaim(r.stamp);
                     }),
      retired_answers_.end());
  stats_.epochs_retired += before - retired_answers_.size();
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
