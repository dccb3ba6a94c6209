#include "base/status.h"

namespace xsb {
namespace {

const char* CodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kParse:
      return "PARSE";
    case ErrorCode::kType:
      return "TYPE";
    case ErrorCode::kInstantiation:
      return "INSTANTIATION";
    case ErrorCode::kExistence:
      return "EXISTENCE";
    case ErrorCode::kPermission:
      return "PERMISSION";
    case ErrorCode::kStratification:
      return "STRATIFICATION";
    case ErrorCode::kResource:
      return "RESOURCE";
    case ErrorCode::kInvalid:
      return "INVALID";
    case ErrorCode::kIo:
      return "IO";
    case ErrorCode::kRetryEvaluation:
      return "RETRY_EVALUATION";
    case ErrorCode::kDeferred:
      return "DEFERRED";
  }
  return "UNKNOWN";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = CodeName(code_);
  s += ": ";
  s += message_;
  return s;
}

Status ParseError(std::string message) {
  return Status(ErrorCode::kParse, std::move(message));
}
Status TypeError(std::string message) {
  return Status(ErrorCode::kType, std::move(message));
}
Status InstantiationError(std::string message) {
  return Status(ErrorCode::kInstantiation, std::move(message));
}
Status ExistenceError(std::string message) {
  return Status(ErrorCode::kExistence, std::move(message));
}
Status PermissionError(std::string message) {
  return Status(ErrorCode::kPermission, std::move(message));
}
Status StratificationError(std::string message) {
  return Status(ErrorCode::kStratification, std::move(message));
}
Status InvalidError(std::string message) {
  return Status(ErrorCode::kInvalid, std::move(message));
}
Status IoError(std::string message) {
  return Status(ErrorCode::kIo, std::move(message));
}

}  // namespace xsb
