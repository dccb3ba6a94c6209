#include "term/store.h"

#include <unordered_map>
#include <utility>
#include <vector>

namespace xsb {

Word TermStore::MakeStruct(FunctorId f, const std::vector<Word>& args) {
  uint64_t i = heap_.size();
  heap_.push_back(FunctorCell(f));
  for (Word a : args) heap_.push_back(a);
  return StructCell(i);
}

Word TermStore::MakeStruct2(AtomId name, Word a, Word b) {
  FunctorId f = symbols_->InternFunctor(name, 2);
  uint64_t i = heap_.size();
  heap_.push_back(FunctorCell(f));
  heap_.push_back(a);
  heap_.push_back(b);
  return StructCell(i);
}

Word TermStore::MakeList(const std::vector<Word>& elements, Word tail) {
  Word list = tail;
  FunctorId cons = symbols_->cons();
  for (auto it = elements.rbegin(); it != elements.rend(); ++it) {
    uint64_t i = heap_.size();
    heap_.push_back(FunctorCell(cons));
    heap_.push_back(*it);
    heap_.push_back(list);
    list = StructCell(i);
  }
  return list;
}

bool TermStore::Unify(Word a, Word b) {
  // Explicit work stack; pairs still to unify. Reused member scratch: this
  // function is the hottest in the engine.
  std::vector<std::pair<Word, Word>>& work = unify_stack_;
  work.clear();
  work.emplace_back(a, b);
  while (!work.empty()) {
    auto [x, y] = work.back();
    work.pop_back();
    x = Deref(x);
    y = Deref(y);
    if (x == y) continue;
    if (IsRef(x)) {
      if (IsRef(y)) {
        // Bind the younger variable to the older to keep chains short and
        // keep bindings valid across heap truncation.
        if (PayloadOf(x) < PayloadOf(y)) {
          Bind(y, x);
        } else {
          Bind(x, y);
        }
      } else {
        Bind(x, y);
      }
      continue;
    }
    if (IsRef(y)) {
      Bind(y, x);
      continue;
    }
    if (IsAtomic(x) || IsAtomic(y)) {
      if (x != y) return false;
      continue;
    }
    // Both structs.
    FunctorId fx = StructFunctor(x);
    FunctorId fy = StructFunctor(y);
    if (fx != fy) return false;
    int arity = symbols_->FunctorArity(fx);
    for (int i = 0; i < arity; ++i) {
      work.emplace_back(Arg(x, i), Arg(y, i));
    }
  }
  return true;
}

bool TermStore::Identical(Word a, Word b) const {
  std::vector<std::pair<Word, Word>> work;
  work.emplace_back(a, b);
  while (!work.empty()) {
    auto [x, y] = work.back();
    work.pop_back();
    x = Deref(x);
    y = Deref(y);
    if (x == y) continue;
    if (!IsStruct(x) || !IsStruct(y)) return false;
    FunctorId fx = StructFunctor(x);
    if (fx != StructFunctor(y)) return false;
    int arity = symbols_->FunctorArity(fx);
    for (int i = 0; i < arity; ++i) {
      work.emplace_back(Arg(x, i), Arg(y, i));
    }
  }
  return true;
}

int TermStore::Compare(Word a, Word b) const {
  // Pairs still to compare, on an explicit per-thread stack: arguments are
  // pushed last first, so pairs are compared in standard (left-to-right,
  // depth-first) order and the first difference decides.
  static thread_local std::vector<std::pair<Word, Word>> work;
  auto rank = [](Word w) {
    switch (TagOf(w)) {
      case Tag::kRef:
        return 0;
      case Tag::kInt:
        return 1;
      case Tag::kAtom:
        return 2;
      default:
        return 3;
    }
  };
  work.clear();
  work.emplace_back(a, b);
  while (!work.empty()) {
    auto [x, y] = work.back();
    work.pop_back();
    x = Deref(x);
    y = Deref(y);
    if (x == y) continue;
    int rx = rank(x), ry = rank(y);
    if (rx != ry) return rx < ry ? -1 : 1;
    switch (TagOf(x)) {
      case Tag::kRef:
        return PayloadOf(x) < PayloadOf(y) ? -1 : 1;
      case Tag::kInt: {
        int64_t vx = IntValue(x), vy = IntValue(y);
        if (vx != vy) return vx < vy ? -1 : 1;
        continue;
      }
      case Tag::kAtom: {
        const std::string& nx = symbols_->AtomName(AtomOf(x));
        const std::string& ny = symbols_->AtomName(AtomOf(y));
        int c = nx.compare(ny);
        if (c != 0) return c < 0 ? -1 : 1;
        continue;
      }
      default: {
        int ax = StructArity(x), ay = StructArity(y);
        if (ax != ay) return ax < ay ? -1 : 1;
        const std::string& nx =
            symbols_->AtomName(symbols_->FunctorAtom(StructFunctor(x)));
        const std::string& ny =
            symbols_->AtomName(symbols_->FunctorAtom(StructFunctor(y)));
        int c = nx.compare(ny);
        if (c != 0) return c < 0 ? -1 : 1;
        for (int i = ax - 1; i >= 0; --i) {
          work.emplace_back(Arg(x, i), Arg(y, i));
        }
      }
    }
  }
  return 0;
}

bool TermStore::IsGround(Word t) const {
  // A warm per-thread stack: tnot/1 checks every goal it negates.
  static thread_local std::vector<Word> work;
  work.clear();
  work.push_back(t);
  while (!work.empty()) {
    Word x = Deref(work.back());
    work.pop_back();
    if (IsRef(x)) return false;
    if (IsStruct(x)) {
      int arity = StructArity(x);
      for (int i = 0; i < arity; ++i) work.push_back(Arg(x, i));
    }
  }
  return true;
}

Word TermStore::CopyTerm(Word t) {
  std::unordered_map<uint64_t, Word> var_map;
  // Argument slots of the copy still to fill, each with the source term it
  // copies: an explicit stack, so a deep term costs heap, not C++ stack.
  std::vector<std::pair<uint64_t, Word>> work;
  // The copy of `x` as one cell. A compound's block is allocated here and
  // its arguments queued last first, so they are copied left to right and
  // fresh variables are made in the order they occur.
  auto copy_cell = [&](Word x) -> Word {
    x = Deref(x);
    if (IsRef(x)) {
      auto it = var_map.find(PayloadOf(x));
      if (it != var_map.end()) return it->second;
      Word v = MakeVar();
      var_map.emplace(PayloadOf(x), v);
      return v;
    }
    if (!IsStruct(x)) return x;
    Word copy = MakeStructUninit(StructFunctor(x));
    for (int i = StructArity(x) - 1; i >= 0; --i) {
      work.emplace_back(PayloadOf(copy) + 1 + i, Arg(x, i));
    }
    return copy;
  };
  Word root = copy_cell(t);
  while (!work.empty()) {
    auto [slot, x] = work.back();
    work.pop_back();
    Word cell = copy_cell(x);
    heap_[slot] = cell;
  }
  return root;
}

}  // namespace xsb
