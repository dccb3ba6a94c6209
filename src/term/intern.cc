#include "term/intern.h"

namespace xsb {

InternTable::InternTable(const SymbolTable* symbols) : symbols_(symbols) {
  dedup_.store(NewDedupTable(1024), std::memory_order_release);
}

InternTable::~InternTable() {
  delete dedup_.load(std::memory_order_relaxed);
  for (DedupTable* t : retired_dedup_) delete t;
}

InternTable::DedupTable* InternTable::NewDedupTable(size_t capacity) {
  DedupTable* t = new DedupTable;
  t->capacity = capacity;
  t->buckets = std::make_unique<std::atomic<InternId>[]>(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    t->buckets[i].store(kNoId, std::memory_order_relaxed);
  }
  return t;
}

uint64_t InternTable::HashNode(FunctorId functor, const Word* args,
                               int arity) {
  uint64_t h = 1469598103934665603ULL;
  h ^= functor;
  h *= 1099511628211ULL;
  for (int i = 0; i < arity; ++i) {
    h ^= args[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool InternTable::NodeEquals(InternId id, FunctorId functor, const Word* args,
                             int arity) const {
  const Node& node = nodes_[id];
  if (node.functor != functor) return false;
  const Word* stored = arg_pool_.at(node.first_arg);
  for (int i = 0; i < arity; ++i) {
    if (stored[i] != args[i]) return false;
  }
  return true;
}

Word InternTable::FindNode(FunctorId functor, const Word* args,
                           int arity) const {
  uint64_t h = HashNode(functor, args, arity);
  const DedupTable* t = dedup_.load(std::memory_order_acquire);
  InternId id = t->buckets[h & (t->capacity - 1)].load(
      std::memory_order_acquire);
  while (id != kNoId) {
    if (NodeEquals(id, functor, args, arity)) return InternedCell(id);
    id = nodes_[id].next_same_hash.load(std::memory_order_acquire);
  }
  return kNoToken;
}

Word InternTable::MakeNode(FunctorId functor, const Word* args, int arity) {
  // Lock-free fast path: a hit is definitive, and on warm workloads nearly
  // every probe is a hit.
  Word found = FindNode(functor, args, arity);
  if (found != kNoToken) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  GrowIfNeeded();
  uint64_t h = HashNode(functor, args, arity);
  std::lock_guard<std::mutex> lock(shard_mutex_[h % kShards]);
  // Re-probe under the shard lock: the lock-free miss was advisory.
  found = FindNode(functor, args, arity);
  if (found != kNoToken) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  DedupTable* t = dedup_.load(std::memory_order_acquire);
  size_t bucket = h & (t->capacity - 1);
  InternId head = t->buckets[bucket].load(std::memory_order_relaxed);
  InternId id;
  {
    std::lock_guard<std::mutex> alloc(alloc_mutex_);
    uint32_t first_arg =
        static_cast<uint32_t>(arg_pool_.AppendRun(args, arity));
    id = static_cast<InternId>(nodes_.EmplaceBack(functor, first_arg, head));
  }
  // Publish: the release store on the bucket head orders the node and its
  // argument run before any reader that follows the chain to it.
  t->buckets[bucket].store(id, std::memory_order_release);
  return InternedCell(id);
}

void InternTable::GrowIfNeeded() {
  DedupTable* t = dedup_.load(std::memory_order_acquire);
  if (nodes_.size() * 10 < t->capacity * 7) return;
  // Take every shard lock (ascending order; writers never hold one shard
  // while waiting for another, so this cannot deadlock), then rebuild.
  for (size_t s = 0; s < kShards; ++s) shard_mutex_[s].lock();
  t = dedup_.load(std::memory_order_relaxed);
  size_t n = nodes_.size();
  if (n * 10 >= t->capacity * 7) {
    size_t capacity = t->capacity;
    while (n * 10 >= capacity * 7) capacity *= 2;
    DedupTable* bigger = NewDedupTable(capacity);
    // Relink every node into the new bucket array in ascending id order, so
    // chains keep the strictly-descending-id invariant that guarantees
    // termination for readers caught mid-walk on a relinked chain.
    for (InternId id = 0; id < n; ++id) {
      const Node& node = nodes_[id];
      int arity = symbols_->FunctorArity(node.functor);
      uint64_t h = HashNode(node.functor, arg_pool_.at(node.first_arg), arity);
      size_t bucket = h & (capacity - 1);
      nodes_[id].next_same_hash.store(
          bigger->buckets[bucket].load(std::memory_order_relaxed),
          std::memory_order_release);
      bigger->buckets[bucket].store(id, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> alloc(alloc_mutex_);
      retired_dedup_.push_back(t);
    }
    dedup_.store(bigger, std::memory_order_release);
  }
  for (size_t s = kShards; s-- > 0;) shard_mutex_[s].unlock();
}

template <typename NodeFn>
bool InternTable::EncodeWalk(const TermStore& store, Word t,
                             TokenScratch* scratch, size_t* flat_cells,
                             NodeFn node) {
  // Preorder walk on an explicit stack of open compounds. A compound's
  // functor token is emitted speculatively; every ground argument collapses
  // to exactly one token, so when a compound closes ground its arguments
  // sit in tokens[mark+1 .. mark+arity] and are replaced by one kInterned
  // token. Compounds are interned bottom-up, children first.
  const SymbolTable& symbols = *store.symbols();
  std::vector<Word>& tokens = scratch->tokens;
  std::vector<uint64_t>& var_cells = scratch->var_cells;
  std::vector<TokenScratch::Frame>& frames = scratch->frames;
  frames.clear();
  size_t cells = 0;
  Word x = store.Deref(t);
  for (;;) {
    ++cells;
    if (IsStruct(x)) {
      FunctorId f = store.StructFunctor(x);
      frames.push_back(TokenScratch::Frame{
          x, static_cast<uint32_t>(tokens.size()), 0,
          symbols.FunctorArity(f), true});
      tokens.push_back(FunctorCell(f));
    } else {
      bool ground = true;
      if (IsRef(x)) {
        uint64_t cell = PayloadOf(x);
        size_t ordinal = var_cells.size();
        for (size_t i = 0; i < var_cells.size(); ++i) {
          if (var_cells[i] == cell) {
            ordinal = i;
            break;
          }
        }
        if (ordinal == var_cells.size()) var_cells.push_back(cell);
        x = LocalCell(ordinal);
        ground = false;
      }
      tokens.push_back(x);
      if (frames.empty()) break;
      frames.back().ground = frames.back().ground && ground;
    }
    // Close every compound whose arguments are all encoded.
    while (!frames.empty() && frames.back().next == frames.back().arity) {
      TokenScratch::Frame done = frames.back();
      frames.pop_back();
      if (done.ground) {
        Word token = node(FunctorOf(tokens[done.mark]),
                          tokens.data() + done.mark + 1, done.arity);
        if (token == kNoToken) return false;
        tokens.resize(done.mark);
        tokens.push_back(token);
      } else if (!frames.empty()) {
        frames.back().ground = false;
      }
    }
    if (frames.empty()) break;
    TokenScratch::Frame& top = frames.back();
    x = store.Deref(store.Arg(top.term, top.next++));
  }
  if (flat_cells != nullptr) *flat_cells += cells;
  return true;
}

void InternTable::EncodeHeap(const TermStore& store, Word t,
                             TokenScratch* scratch, size_t* flat_cells) {
  EncodeWalk(store, t, scratch, flat_cells,
             [this](FunctorId f, const Word* args, int arity) {
               return MakeNode(f, args, arity);
             });
}

bool InternTable::ProbeHeap(const TermStore& store, Word t,
                            TokenScratch* scratch) const {
  return EncodeWalk(store, t, scratch, nullptr,
                    [this](FunctorId f, const Word* args, int arity) {
                      return FindNode(f, args, arity);
                    });
}

void InternTable::AppendExpansion(Word token, std::vector<Word>* out) const {
  if (!IsInterned(token)) {
    out->push_back(token);
    return;
  }
  // Preorder expansion on an explicit per-thread stack (readers of one
  // table may expand concurrently); arguments are pushed in reverse.
  static thread_local std::vector<Word> work;
  size_t base = work.size();
  work.push_back(token);
  while (work.size() > base) {
    Word t = work.back();
    work.pop_back();
    if (!IsInterned(t)) {
      out->push_back(t);
      continue;
    }
    const Node& node = nodes_[InternIdOf(t)];
    out->push_back(FunctorCell(node.functor));
    const Word* args = arg_pool_.at(node.first_arg);
    for (int i = symbols_->FunctorArity(node.functor) - 1; i >= 0; --i) {
      work.push_back(args[i]);
    }
  }
}

FlatTerm InternTable::Decode(const std::vector<Word>& tokens) const {
  // Expanded into a warm per-thread scratch, then copied out at its exact
  // size: one allocation per decoded term.
  static thread_local std::vector<Word> scratch;
  scratch.clear();
  for (Word token : tokens) AppendExpansion(token, &scratch);
  FlatTerm out;
  out.cells.assign(scratch.begin(), scratch.end());
  for (Word w : out.cells) {
    if (IsLocal(w)) {
      uint32_t ordinal = static_cast<uint32_t>(PayloadOf(w));
      if (ordinal + 1 > out.num_vars) out.num_vars = ordinal + 1;
    }
  }
  return out;
}

size_t InternTable::bytes() const {
  size_t total = nodes_.bytes() + arg_pool_.bytes();
  const DedupTable* t = dedup_.load(std::memory_order_acquire);
  total += sizeof(DedupTable) + t->capacity * sizeof(std::atomic<InternId>);
  std::lock_guard<std::mutex> alloc(alloc_mutex_);
  for (const DedupTable* r : retired_dedup_) {
    total += sizeof(DedupTable) + r->capacity * sizeof(std::atomic<InternId>);
  }
  return total;
}

}  // namespace xsb
