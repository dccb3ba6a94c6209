#ifndef XSB_ENGINE_BUILTINS_H_
#define XSB_ENGINE_BUILTINS_H_

#include <vector>

#include "engine/machine.h"

namespace xsb {

// Outcome of a builtin predicate call.
enum class BuiltinResult {
  kTrue,   // deterministic success; continue with the next goal
  kFail,   // failure, or a choice point was pushed that the backtracker
           // should now enter
  kError,  // machine->SetError was called
};

// `node` is the resolvent node of the call (its ->next is the
// continuation; its cut_depth the enclosing clause's cut barrier).
using BuiltinFn = BuiltinResult (*)(Machine& machine, Word goal,
                                    const GoalNode* node);

// The table of builtin predicates: a dense vector indexed by functor id, so
// dispatch is one bounds check and one load. One per Machine, since functor
// ids are SymbolTable-relative; it spans up to the largest builtin functor.
class BuiltinRegistry {
 public:
  explicit BuiltinRegistry(SymbolTable* symbols);

  BuiltinFn Find(FunctorId functor) const {
    return functor < table_.size() ? table_[functor] : nullptr;
  }

 private:
  void Register(SymbolTable* symbols, const char* name, int arity,
                BuiltinFn fn);
  std::vector<BuiltinFn> table_;
};

}  // namespace xsb

#endif  // XSB_ENGINE_BUILTINS_H_
