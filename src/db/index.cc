#include "db/index.h"

namespace xsb {

size_t SkipFlatSubterm(const SymbolTable& symbols,
                       const std::vector<Word>& cells, size_t pos) {
  size_t remaining = 1;
  while (remaining > 0 && pos < cells.size()) {
    Word w = cells[pos++];
    --remaining;
    if (IsFunctor(w)) {
      remaining += static_cast<size_t>(symbols.FunctorArity(FunctorOf(w)));
    }
  }
  return pos;
}

Word FlatArgKey(const std::vector<Word>& cells, size_t pos) {
  Word w = cells[pos];
  if (IsLocal(w)) return 0;
  return w;  // atoms, ints, and functor cells are their own keys
}

size_t FlatArgPos(const SymbolTable& symbols, const std::vector<Word>& cells,
                  size_t pos, int arg) {
  // cells[pos] is the functor cell; the first argument follows it.
  size_t p = pos + 1;
  for (int i = 0; i < arg; ++i) p = SkipFlatSubterm(symbols, cells, p);
  return p;
}

ClauseList& ClauseBuckets::FindOrCreate(uint64_t key, const ClauseList& seed) {
  uint32_t i = map_.Find(key);
  if (i != AtomicKeyMap::kNotFound) return lists_[i];
  lists_.push_back(seed);
  map_.Insert(key, static_cast<uint32_t>(lists_.size() - 1));
  return lists_.back();
}

void ArgHashIndex::Insert(ClauseId id, Word key, bool at_front) {
  if (key == 0) {
    // Variable in the indexed position: matches every key, so add to all
    // current buckets and remember it for buckets created later.
    var_clauses_.Add(id, at_front);
    buckets_.AddToAll(id, at_front);
    return;
  }
  // A new bucket is seeded with the earlier var clauses.
  buckets_.FindOrCreate(key, var_clauses_).Add(id, at_front);
}

uint64_t CombinedHashIndex::HashKeys(const Word* keys, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= keys[i];
    h *= 1099511628211ULL;
  }
  return h == AtomicKeyMap::kEmptyKey ? h - 1 : h;
}

bool CombinedHashIndex::Keyable(const std::vector<Word>& keys) {
  for (Word k : keys) {
    if (k == 0) return false;
  }
  return true;
}

void CombinedHashIndex::Insert(ClauseId id, const std::vector<Word>& keys,
                               bool at_front) {
  if (!Keyable(keys)) {
    catch_all_.Add(id, at_front);
    buckets_.AddToAll(id, at_front);
    return;
  }
  buckets_.FindOrCreate(HashKeys(keys.data(), keys.size()), catch_all_)
      .Add(id, at_front);
}

}  // namespace xsb
