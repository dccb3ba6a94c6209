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

void ArgHashIndex::Insert(ClauseId id, Word key, bool at_front) {
  if (key == 0) {
    // Variable in the indexed position: matches every key, so add to all
    // current buckets and remember it for buckets created later.
    var_clauses_.Add(id, at_front);
    for (auto& [k, bucket] : buckets_) bucket.Add(id, at_front);
    return;
  }
  auto [it, inserted] = buckets_.try_emplace(key);
  if (inserted) it->second = var_clauses_;  // seed with earlier var clauses
  it->second.Add(id, at_front);
}

const ClauseList& ArgHashIndex::Lookup(Word key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return var_clauses_;
  return it->second;
}

uint64_t CombinedHashIndex::HashKeys(const Word* keys, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= keys[i];
    h *= 1099511628211ULL;
  }
  return h;
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
    for (auto& [k, bucket] : buckets_) bucket.Add(id, at_front);
    return;
  }
  auto [it, inserted] =
      buckets_.try_emplace(HashKeys(keys.data(), keys.size()));
  if (inserted) it->second = catch_all_;
  it->second.Add(id, at_front);
}

const ClauseList& CombinedHashIndex::Lookup(const Word* keys) const {
  auto it = buckets_.find(HashKeys(keys, args_.size()));
  if (it == buckets_.end()) return catch_all_;
  return it->second;
}

}  // namespace xsb
