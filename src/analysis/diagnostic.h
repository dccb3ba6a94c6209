#ifndef XSB_ANALYSIS_DIAGNOSTIC_H_
#define XSB_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "term/symbols.h"

namespace xsb {

// A source location carried from the lexer through the reader into stored
// clauses and analysis diagnostics. `file` is an interned atom naming the
// consult unit ("path.P" or "<consult-N>" for string consults); 0 together
// with line 0 means unknown (e.g. clauses asserted at runtime).
struct SourceSpan {
  AtomId file = 0;
  int line = 0;  // 1-based; 0 = unknown
  int column = 0;

  bool known() const { return line > 0; }
};

namespace analysis {

enum class Severity { kError, kWarning, kInfo };

// Stable diagnostic codes; the full table lives in DESIGN.md.
enum class DiagCode {
  // Stratification / safety (S...)
  kNonStratified,    // S001: negation or aggregation inside a call-graph SCC
  kUnsafeNegation,   // S002: variable under \+/tnot not bound by the body
  kUnsafeHead,       // S003: head variable not range-restricted by the body
  kUnsafeArith,      // S004: unbound variable in an arithmetic expression
  kCutOverTable,     // S005: a cut after a tabled call could close over a
                     // partially computed table (section 4.4)
  // Advisors (A...)
  kAutoTable,        // A001: predicate in a recursive SCC should be tabled
  kIndexAdvice,      // A002: call sites suggest a different index directive
  kChainDispatch,    // A003: a variable-keyed clause defeats the first-arg
                     // constant/structure switch for the whole predicate
  // Style lints (L...)
  kSingletonVar,     // L001: named variable occurs once in its clause
  kDiscontiguous,    // L002: clauses of a predicate are not contiguous
  kUnknownPredicate, // L003: call to a predicate with no clauses
  // Mode analysis (M...)
  kInferredModes,    // M001: inferred call/success modes of a predicate
  kNeverBound,       // M002: an argument no call site ever binds
  kModeViolation,    // M003: a free variable fed into a demanded-ground arg
  // Answer subsumption (T...)
  kSubsumptionNegation, // T001: lattice-tabled predicate in an SCC crossed
                        // by negation — the aggregate is not stratified
  kSubsumptionOrdered,  // T002: first(N) inside a recursive SCC is
                        // evaluation-order dependent (downgraded, not
                        // rejected)
};

// "S001", "A002", ...
const char* DiagCodeName(DiagCode code);
const char* SeverityName(Severity severity);

// Marks a diagnostic that concerns the whole program, not one predicate.
inline constexpr FunctorId kNoFunctor = 0xffffffffu;

// One structured finding of the consult-time analyzer.
struct Diagnostic {
  DiagCode code;
  Severity severity;
  FunctorId functor = kNoFunctor;  // the predicate concerned
  std::string message;
  SourceSpan span;
};

// "FILE:LINE:COL: warning S002 [p/2]: message" (omitting unknown parts).
std::string FormatDiagnostic(const SymbolTable& symbols,
                             const Diagnostic& diagnostic);

}  // namespace analysis
}  // namespace xsb

#endif  // XSB_ANALYSIS_DIAGNOSTIC_H_
