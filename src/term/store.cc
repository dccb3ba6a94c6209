#include "term/store.h"

#include <unordered_map>

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
  FunctorId cons = symbols_->InternFunctor(symbols_->dot(), 2);
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
  a = Deref(a);
  b = Deref(b);
  if (a == b) return 0;
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
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (TagOf(a)) {
    case Tag::kRef:
      return PayloadOf(a) < PayloadOf(b) ? -1 : 1;
    case Tag::kInt: {
      int64_t va = IntValue(a), vb = IntValue(b);
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    case Tag::kAtom: {
      const std::string& na = symbols_->AtomName(AtomOf(a));
      const std::string& nb = symbols_->AtomName(AtomOf(b));
      return na.compare(nb) < 0 ? -1 : (na == nb ? 0 : 1);
    }
    default: {
      int aa = StructArity(a), ab = StructArity(b);
      if (aa != ab) return aa < ab ? -1 : 1;
      const std::string& na =
          symbols_->AtomName(symbols_->FunctorAtom(StructFunctor(a)));
      const std::string& nb =
          symbols_->AtomName(symbols_->FunctorAtom(StructFunctor(b)));
      int c = na.compare(nb);
      if (c != 0) return c < 0 ? -1 : 1;
      for (int i = 0; i < aa; ++i) {
        c = Compare(Arg(a, i), Arg(b, i));
        if (c != 0) return c;
      }
      return 0;
    }
  }
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
  // Recursive copy via explicit stack: first pass computes nothing; we copy
  // structurally. Use recursion through a lambda with depth bounded by term
  // depth (fine for our workloads) to keep the code simple.
  auto copy = [&](auto&& self, Word x) -> Word {
    x = Deref(x);
    if (IsRef(x)) {
      auto it = var_map.find(PayloadOf(x));
      if (it != var_map.end()) return it->second;
      Word v = MakeVar();
      var_map.emplace(PayloadOf(x), v);
      return v;
    }
    if (!IsStruct(x)) return x;
    FunctorId f = StructFunctor(x);
    int arity = symbols_->FunctorArity(f);
    std::vector<Word> args(arity);
    for (int i = 0; i < arity; ++i) args[i] = self(self, Arg(x, i));
    return MakeStruct(f, args);
  };
  return copy(copy, t);
}

}  // namespace xsb
