#ifndef XSB_TERM_STORE_H_
#define XSB_TERM_STORE_H_

#include <cstddef>
#include <vector>

#include "term/cell.h"
#include "term/rawbuf.h"
#include "term/symbols.h"

namespace xsb {

// The term heap plus the binding trail: the mutable state that resolution
// operates on. Cells are addressed by index so the underlying vector may
// grow without invalidating terms. Backtracking is watermark-based: record
// {heap size, trail size}, and later unwind the trail and truncate the heap
// back to the marks.
class TermStore {
 public:
  explicit TermStore(SymbolTable* symbols) : symbols_(symbols) {}
  TermStore(const TermStore&) = delete;
  TermStore& operator=(const TermStore&) = delete;

  SymbolTable* symbols() const { return symbols_; }

  // --- Construction -------------------------------------------------------

  // Allocates a fresh unbound variable; returns a ref cell to it.
  Word MakeVar() {
    uint64_t i = heap_.size();
    heap_.push_back(RefCell(i));
    return RefCell(i);
  }

  // Allocates an uninitialized struct block for functor `f`; the caller must
  // fill the `arity` argument cells at ArgIndex(result, 0..arity-1).
  Word MakeStructUninit(FunctorId f) {
    uint64_t i = heap_.size();
    int arity = symbols_->FunctorArity(f);
    heap_.push_back(FunctorCell(f));
    for (int k = 0; k < arity; ++k) heap_.push_back(RefCell(i + 1 + k));
    return StructCell(i);
  }

  // Builds f(args...) where args are existing cells.
  Word MakeStruct(FunctorId f, const std::vector<Word>& args);
  Word MakeStruct2(AtomId name, Word a, Word b);  // name(a, b)
  Word MakeList(const std::vector<Word>& elements, Word tail);

  // --- Access --------------------------------------------------------------

  Word& At(uint64_t i) { return heap_[i]; }
  Word At(uint64_t i) const { return heap_[i]; }
  size_t heap_size() const { return heap_.size(); }

  // Follows ref chains to the representative cell.
  Word Deref(Word w) const {
    while (IsRef(w)) {
      Word next = heap_[PayloadOf(w)];
      if (next == w) return w;  // unbound
      w = next;
    }
    return w;
  }

  bool IsUnbound(Word w) const {
    w = Deref(w);
    return IsRef(w);
  }

  // For a dereferenced struct cell: its functor and argument cells.
  FunctorId StructFunctor(Word s) const {
    return FunctorOf(heap_[PayloadOf(s)]);
  }
  int StructArity(Word s) const {
    return symbols_->FunctorArity(StructFunctor(s));
  }
  Word Arg(Word s, int i) const { return heap_[PayloadOf(s) + 1 + i]; }
  uint64_t ArgIndex(Word s, int i) const { return PayloadOf(s) + 1 + i; }
  void SetArg(Word s, int i, Word v) { heap_[PayloadOf(s) + 1 + i] = v; }

  // --- Binding and backtracking -------------------------------------------

  // Binds the unbound variable `ref` (a dereferenced kRef cell) to `value`,
  // recording the old state on the trail.
  void Bind(Word ref, Word value) {
    uint64_t i = PayloadOf(ref);
    trail_.push_back(i);
    heap_[i] = value;
  }

  size_t TrailMark() const { return trail_.size(); }
  size_t HeapMark() const { return heap_.size(); }

  // Unbinds everything trailed after `mark`.
  void UndoTrail(size_t mark) {
    while (trail_.size() > mark) {
      uint64_t i = trail_.back();
      trail_.pop_back();
      heap_[i] = RefCell(i);
    }
  }

  // Frees heap cells allocated after `mark`. Only call after UndoTrail for a
  // trail mark taken at the same time, so no surviving cell points above.
  void TruncateHeap(size_t mark) { heap_.resize(mark); }

  // --- Unification ---------------------------------------------------------

  // Unifies a and b, trailing bindings; returns false (with bindings still
  // trailed — caller unwinds) on failure.
  bool Unify(Word a, Word b);

  // Structural identity without binding (==/2).
  bool Identical(Word a, Word b) const;

  // Standard order of terms: Var < Int < Atom < Compound. Returns <0,0,>0.
  int Compare(Word a, Word b) const;

  // True if no unbound variable occurs in t.
  bool IsGround(Word t) const;

  // Copies t to fresh heap cells with fresh variables (copy_term/2).
  Word CopyTerm(Word t);

 private:
  SymbolTable* symbols_;
  RawBuf<Word> heap_;
  RawBuf<uint64_t> trail_;
  // Scratch for Unify; reused across calls to avoid per-call allocation.
  std::vector<std::pair<Word, Word>> unify_stack_;
};

}  // namespace xsb

#endif  // XSB_TERM_STORE_H_
