#ifndef XSB_TERM_SYMBOLS_H_
#define XSB_TERM_SYMBOLS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/concurrent.h"

namespace xsb {

// Interned atom name. Atom ids are dense and stable for the lifetime of the
// SymbolTable that produced them.
using AtomId = uint32_t;

// Interned (atom, arity) pair. Functor ids name compound-term shapes; an
// atom used as a functor of arity 0 is just the atom itself, so functors
// always have arity >= 1.
using FunctorId = uint32_t;

// Global intern tables for atoms and functors.
//
// Every term-producing component (parser, stores, loaders) shares one
// SymbolTable so that atom identity is pointer-free equality on ids.
//
// Concurrency: id -> name/arity reads (AtomName, FunctorAtom, FunctorArity)
// are lock-free — they index append-only arenas whose entries are immutable
// once published, which is what keeps the tabling and serving hot paths free
// of symbol locks. So are FindFunctor and InternFunctor of a functor already
// interned (a lock-free AtomicKeyMap probe). Interning a new atom or functor,
// and InternAtom always (parsing and consulting), takes a mutex; the query
// path keeps to the pre-interned ids below and FindFunctor.
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id for `name`, interning it on first use. Thread-safe.
  AtomId InternAtom(std::string_view name);
  // Returns the id for name/arity, interning it on first use. Thread-safe;
  // lock-free when the functor already exists.
  FunctorId InternFunctor(AtomId name, int arity);

  // The id of name/arity if it was ever interned, else kNoFunctor; takes no
  // lock. Nothing can be defined on a functor that was never interned.
  static constexpr FunctorId kNoFunctor = AtomicKeyMap::kNotFound;
  FunctorId FindFunctor(AtomId name, int arity) const {
    return functor_ids_.Find(FunctorKey(name, arity));
  }

  const std::string& AtomName(AtomId id) const { return atom_names_[id]; }
  AtomId FunctorAtom(FunctorId id) const { return functors_[id].name; }
  int FunctorArity(FunctorId id) const { return functors_[id].arity; }

  size_t num_atoms() const { return atom_names_.size(); }
  size_t num_functors() const { return functors_.size(); }

  // Pre-interned atoms used pervasively by the engine.
  AtomId nil() const { return nil_; }          // []
  AtomId comma() const { return comma_; }      // ','
  AtomId dot() const { return dot_; }          // '.' (list cons)
  AtomId neck() const { return neck_; }        // ':-'
  AtomId apply() const { return apply_; }      // HiLog encoding symbol
  AtomId truth() const { return true_; }       // true
  AtomId curly() const { return curly_; }      // {}
  FunctorId cons() const { return cons_; }     // '.'/2

 private:
  struct Functor {
    AtomId name;
    int arity;
  };

  static uint64_t FunctorKey(AtomId name, int arity) {
    return (static_cast<uint64_t>(name) << 16) |
           static_cast<uint64_t>(arity & 0xffff);
  }

  std::mutex intern_mutex_;  // guards atom_ids_ and every insert or append
  ConcurrentArena<std::string> atom_names_;
  std::unordered_map<std::string, AtomId> atom_ids_;
  ConcurrentArena<Functor> functors_;
  // Lock-free reads, inserts under intern_mutex_.
  AtomicKeyMap functor_ids_;

  AtomId nil_, comma_, dot_, neck_, apply_, true_, curly_;
  FunctorId cons_;
};

}  // namespace xsb

#endif  // XSB_TERM_SYMBOLS_H_
