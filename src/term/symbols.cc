#include "term/symbols.h"

namespace xsb {

SymbolTable::SymbolTable() {
  nil_ = InternAtom("[]");
  comma_ = InternAtom(",");
  dot_ = InternAtom(".");
  neck_ = InternAtom(":-");
  apply_ = InternAtom("apply");
  true_ = InternAtom("true");
  curly_ = InternAtom("{}");
  cons_ = InternFunctor(dot_, 2);
}

AtomId SymbolTable::InternAtom(std::string_view name) {
  std::lock_guard<std::mutex> lock(intern_mutex_);
  auto it = atom_ids_.find(std::string(name));
  if (it != atom_ids_.end()) return it->second;
  AtomId id = static_cast<AtomId>(atom_names_.EmplaceBack(name));
  atom_ids_.emplace(atom_names_[id], id);
  return id;
}

FunctorId SymbolTable::InternFunctor(AtomId name, int arity) {
  FunctorId found = FindFunctor(name, arity);
  if (found != kNoFunctor) return found;
  std::lock_guard<std::mutex> lock(intern_mutex_);
  // A miss outside the lock is advisory: another thread may have interned
  // the functor meanwhile.
  uint64_t key = FunctorKey(name, arity);
  found = functor_ids_.Find(key);
  if (found != kNoFunctor) return found;
  FunctorId id =
      static_cast<FunctorId>(functors_.EmplaceBack(Functor{name, arity}));
  functor_ids_.Insert(key, id);
  return id;
}

}  // namespace xsb
