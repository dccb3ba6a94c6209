#ifndef XSB_TERM_FLAT_H_
#define XSB_TERM_FLAT_H_

#include <cstddef>
#include <vector>

#include "term/cell.h"
#include "term/store.h"

namespace xsb {

// A relocatable, heap-independent term image: the preorder stream of the
// term's cells, with variables renamed to kLocal(0), kLocal(1), ... in order
// of first occurrence. Struct cells are replaced by their functor cell
// followed by the flattened arguments, so the stream is self-describing.
//
// FlatTerms serve three roles, exactly as table space does in the SLG-WAM:
//   * clause templates in the clause database,
//   * canonical forms for tabled-subgoal variant checking,
//   * stored answers in answer tables.
//
// Two terms are variants iff their FlatTerms are element-wise equal.
struct FlatTerm {
  std::vector<Word> cells;
  uint32_t num_vars = 0;

  bool operator==(const FlatTerm& other) const {
    return cells == other.cells;
  }

  bool ground() const { return num_vars == 0; }
  size_t size() const { return cells.size(); }
};

// FNV-style hash over the cell stream.
struct FlatTermHash {
  size_t operator()(const FlatTerm& t) const {
    uint64_t h = 1469598103934665603ULL;
    for (Word w : t.cells) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Flattens the (possibly partially bound) heap term `t`.
FlatTerm Flatten(const TermStore& store, Word t);

// Flattens `t` into *out, reusing out's cell capacity (findall's per-instance
// scratch). Returns true when the existing capacity sufficed — i.e. the call
// performed no cell-vector allocation.
bool FlattenInto(const TermStore& store, Word t, FlatTerm* out);

// Appends the flattened form of `t` to *out, numbering variables by first
// occurrence across the whole stream being built: `var_cells` carries the
// heap addresses already assigned ordinals 0..var_cells->size()-1 and grows
// as new variables appear. Answer subsumption builds its aggregate keys as a
// sequence of such appends sharing one numbering.
void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells);

// --- Token streams -----------------------------------------------------------
//
// A token stream is a FlatTerm cell stream in which any ground compound
// subterm may also appear as one kInterned token, expanded through an
// InternTable (term/intern.h). FlatTerm streams are token streams without
// kInterned cells, so the two walks below serve clause heads and bodies,
// stored answers, and Unflatten alike. Both keep their work on explicit
// stacks, so term depth is bounded by memory, not by the C++ stack.

class InternTable;

// Marks a variable ordinal that has no heap term yet. Never a valid cell
// (the tag bits are all ones), unlike 0, which is the variable at heap
// address 0.
inline constexpr Word kNoVar = ~Word{0};

// Builds the term whose tokens start at tokens[*pos] on the heap and advances
// *pos past it. (*vars)[k] is the heap term of kLocal ordinal k; kNoVar
// entries receive fresh variables. `interns` may be null when the stream
// holds no kInterned token.
Word BuildTokens(TermStore* store, const InternTable* interns,
                 const Word* tokens, size_t* pos, std::vector<Word>* vars);

// Unifies the term whose tokens start at tokens[*pos] with the heap term `t`,
// advancing *pos past it on success. Structure is built only where `t` has
// an unbound variable; a kLocal ordinal's first occurrence takes the heap
// subterm it meets (no binding, no heap cell), and later occurrences unify
// with it. Bindings are trailed; on failure the caller undoes them and *pos
// is unspecified.
bool UnifyTokens(TermStore* store, const InternTable* interns,
                 const Word* tokens, size_t* pos, Word t,
                 std::vector<Word>* vars);

// Rebuilds `flat` on the heap with fresh variables. If `vars` is non-null it
// receives the heap term chosen for each local variable ordinal (grown to
// cover them, new entries kNoVar); passing the same vars vector to several
// Unflatten calls shares variables across them.
Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars = nullptr);

// Reads the top functor of a flattened term without rebuilding it.
// Returns true and sets *functor if the term is a struct.
bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor);

}  // namespace xsb

#endif  // XSB_TERM_FLAT_H_
