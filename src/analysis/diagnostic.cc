#include "analysis/diagnostic.h"

namespace xsb::analysis {

const char* DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kNonStratified:
      return "S001";
    case DiagCode::kUnsafeNegation:
      return "S002";
    case DiagCode::kUnsafeHead:
      return "S003";
    case DiagCode::kUnsafeArith:
      return "S004";
    case DiagCode::kCutOverTable:
      return "S005";
    case DiagCode::kAutoTable:
      return "A001";
    case DiagCode::kIndexAdvice:
      return "A002";
    case DiagCode::kChainDispatch:
      return "A003";
    case DiagCode::kSingletonVar:
      return "L001";
    case DiagCode::kDiscontiguous:
      return "L002";
    case DiagCode::kUnknownPredicate:
      return "L003";
    case DiagCode::kInferredModes:
      return "M001";
    case DiagCode::kNeverBound:
      return "M002";
    case DiagCode::kModeViolation:
      return "M003";
    case DiagCode::kSubsumptionNegation:
      return "T001";
    case DiagCode::kSubsumptionOrdered:
      return "T002";
  }
  return "?";
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kInfo:
      return "info";
  }
  return "?";
}

std::string FormatDiagnostic(const SymbolTable& symbols,
                             const Diagnostic& diagnostic) {
  std::string out;
  if (diagnostic.span.known()) {
    if (diagnostic.span.file != 0) {
      out += symbols.AtomName(diagnostic.span.file);
      out += ':';
    }
    out += std::to_string(diagnostic.span.line);
    out += ':';
    out += std::to_string(diagnostic.span.column);
    out += ": ";
  }
  out += SeverityName(diagnostic.severity);
  out += ' ';
  out += DiagCodeName(diagnostic.code);
  if (diagnostic.functor != kNoFunctor) {
    out += " [";
    out += symbols.AtomName(symbols.FunctorAtom(diagnostic.functor));
    out += '/';
    out += std::to_string(symbols.FunctorArity(diagnostic.functor));
    out += ']';
  }
  out += ": ";
  out += diagnostic.message;
  return out;
}

}  // namespace xsb::analysis
