#ifndef XSB_DB_INDEX_H_
#define XSB_DB_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <vector>

#include "term/flat.h"

namespace xsb {

using ClauseId = uint32_t;

// --- Flat-stream helpers ----------------------------------------------------

// Position just past the subterm starting at `pos` in a flattened stream.
size_t SkipFlatSubterm(const SymbolTable& symbols,
                       const std::vector<Word>& cells, size_t pos);

// Index key of the cell at `pos`: the cell itself for atoms/ints, the
// functor cell for structs (outer symbol only, as all XSB hash indexing
// does), and 0 for variables ("matches anything").
Word FlatArgKey(const std::vector<Word>& cells, size_t pos);

// Start position of argument `arg` (0-based) of the struct whose functor
// cell sits at `pos` in the stream.
size_t FlatArgPos(const SymbolTable& symbols, const std::vector<Word>& cells,
                  size_t pos, int arg);

// --- Clause lists and candidate views ----------------------------------------

// Clause ids in clause order. The ids added by asserta are kept apart,
// newest last (so clause order reads them backwards), from the others, kept
// in order; clause ids grow with time, so the others are sorted. Both parts
// only ever grow, which is what makes a view that remembers their lengths a
// snapshot (see CandidateView).
class ClauseList {
 public:
  void Add(ClauseId id, bool at_front) {
    (at_front ? front_ : back_).push_back(id);
  }
  size_t size() const { return front_.size() + back_.size(); }
  // The asserta'd ids, newest last.
  const std::vector<ClauseId>& front() const { return front_; }
  const std::vector<ClauseId>& back() const { return back_; }

 private:
  std::vector<ClauseId> back_;
  std::vector<ClauseId> front_;
};

// The candidate clauses of one call, in clause order, without copying them:
// a view of a ClauseList (an index bucket, or every clause) as it stood when
// the view was taken. Clauses added later — by asserta or assertz, even while
// the view is being walked — stay outside it: the logical update view of
// ISO Prolog. Retracted clauses stay inside as tombstones (callers skip
// `erased` ones). A view of the first-string index owns the id list that
// index computes per call.
//
// A view stays valid across clause additions and erasures; redeclaring the
// predicate's index (a consult-time directive) invalidates it.
class CandidateView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClauseId;
    using difference_type = std::ptrdiff_t;
    using pointer = const ClauseId*;
    using reference = ClauseId;

    Iterator() = default;
    Iterator(const CandidateView* view, size_t i) : view_(view), i_(i) {}
    ClauseId operator*() const { return (*view_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const CandidateView* view_ = nullptr;
    size_t i_ = 0;
  };

  CandidateView() = default;
  explicit CandidateView(const ClauseList& list)
      : list_(&list), num_front_(list.front().size()), size_(list.size()) {}
  explicit CandidateView(std::vector<ClauseId> ids)
      : size_(ids.size()), owned_(std::move(ids)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ClauseId operator[](size_t i) const {
    if (list_ == nullptr) return owned_[i];
    return i < num_front_ ? list_->front()[num_front_ - 1 - i]
                          : list_->back()[i - num_front_];
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

 private:
  const ClauseList* list_ = nullptr;  // null: the ids are owned_
  size_t num_front_ = 0;
  size_t size_ = 0;
  std::vector<ClauseId> owned_;
};

// --- Hash indexes ------------------------------------------------------------

// Hash index on the outer symbol of one argument position. Clauses whose
// indexed argument is a variable appear in every bucket (and in the bucket
// seeded for keys unseen so far), preserving clause order. Buckets are hash
// nodes, so a bucket keeps its address — which open CandidateViews rely on
// — while the index grows.
class ArgHashIndex {
 public:
  explicit ArgHashIndex(int arg) : arg_(arg) {}

  int arg() const { return arg_; }

  // `key` = FlatArgKey of the clause head's indexed argument; `at_front`
  // for asserta.
  void Insert(ClauseId id, Word key, bool at_front);

  // Candidate clauses for a call whose indexed argument has key `key`
  // (0 = unbound: caller should scan all clauses instead). The list stays
  // at its address while the index lives.
  const ClauseList& Lookup(Word key) const;

 private:
  int arg_;
  std::unordered_map<Word, ClauseList> buckets_;
  ClauseList var_clauses_;
};

// A multi-field index: one combined hash over the outer symbols of a set of
// argument positions (at most 3, as in the paper). Only usable when every
// position in the set is bound in the call.
class CombinedHashIndex {
 public:
  static constexpr size_t kMaxFields = 3;

  explicit CombinedHashIndex(std::vector<int> args) : args_(std::move(args)) {}

  const std::vector<int>& args() const { return args_; }

  void Insert(ClauseId id, const std::vector<Word>& keys, bool at_front);
  // `keys` holds one key per field in args() order, none of them 0 (an
  // unbound field makes the index unusable; the caller moves on to the next
  // index in declaration order).
  const ClauseList& Lookup(const Word* keys) const;

  // True if the clause can be keyed (no variable among indexed args).
  static bool Keyable(const std::vector<Word>& keys);

 private:
  static uint64_t HashKeys(const Word* keys, size_t n);

  std::vector<int> args_;
  std::unordered_map<uint64_t, ClauseList> buckets_;
  ClauseList catch_all_;  // clauses with a variable in a keyed arg
};

}  // namespace xsb

#endif  // XSB_DB_INDEX_H_
