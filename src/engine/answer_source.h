#ifndef XSB_ENGINE_ANSWER_SOURCE_H_
#define XSB_ENGINE_ANSWER_SOURCE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "term/flat.h"
#include "term/store.h"

namespace xsb {

// A stably-indexed collection of stored answers that the machine's answer
// choice points (and the SLG evaluator's consumers) enumerate. Index order
// is insertion order and indices stay valid while the collection grows, so
// a cursor is just a size_t — this is what lets consumers pick up answers
// that arrive after they suspended.
//
// Implemented by the answer tables of table space (which read answers
// straight out of the answer trie) and by the materialized instance lists
// of clause/2.
class AnswerSource {
 public:
  virtual ~AnswerSource() = default;

  virtual size_t size() const = 0;

  // Writes answer `i` into *out, reusing out's buffers (hot path: callers
  // keep one scratch FlatTerm alive across a whole enumeration).
  virtual void ReadAnswer(size_t i, FlatTerm* out) const = 0;

  // Answer subsumption: false when answer `i` has been retired by a better
  // (lattice-subsuming) answer. The index remains readable — a cursor parked
  // on it stays sound — but enumerators must skip it. Plain sources are
  // always fully live.
  virtual bool live(size_t /*i*/) const { return true; }

  // --- Substitution-factored enumeration ------------------------------------
  // A factored source stores answers as bindings of one shared call
  // template's variables. When answer_template() is non-null, a consumer
  // unifies the template against its goal once, keeping the heap term each
  // template variable met in consecutive heap cells, and then per answer
  // calls UnifyBindings instead of reading the full instance: template
  // variable k's binding is unified with heap cell template_vars + k, in
  // ordinal order, failing at the first clash (bindings stay trailed for the
  // caller to undo). Default: not factored.
  virtual const FlatTerm* answer_template() const { return nullptr; }
  virtual bool UnifyBindings(size_t /*i*/, TermStore* /*store*/,
                             uint64_t /*template_vars*/) const {
    return false;
  }
};

// Adapter over a materialized vector of flat terms.
class VectorAnswerSource : public AnswerSource {
 public:
  explicit VectorAnswerSource(std::vector<FlatTerm> items)
      : items_(std::move(items)) {}

  size_t size() const override { return items_.size(); }
  void ReadAnswer(size_t i, FlatTerm* out) const override {
    out->cells = items_[i].cells;
    out->num_vars = items_[i].num_vars;
  }

 private:
  std::vector<FlatTerm> items_;
};

}  // namespace xsb

#endif  // XSB_ENGINE_ANSWER_SOURCE_H_
