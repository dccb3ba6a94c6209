#ifndef XSB_BASE_STATUS_H_
#define XSB_BASE_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace xsb {

// Error categories used across the engine. The public API reports failures
// through Status / Result<T> rather than C++ exceptions.
enum class ErrorCode {
  kOk = 0,
  kParse,            // syntax error in source text
  kType,             // wrong argument type to a builtin
  kInstantiation,    // argument insufficiently instantiated (e.g. X is Y)
  kExistence,        // unknown predicate called
  kPermission,       // e.g. asserting into a static predicate
  kStratification,   // program not modularly stratified under tnot
  kResource,         // limits exceeded
  kInvalid,          // malformed request to an API
  kIo,               // file errors
  kRetryEvaluation,  // internal: a tabled batch must restart under wider
                     // shard ownership (never surfaces through the API)
  kDeferred,         // internal: a query's first goal found its shards or
                     // its variant busy; the service requeues the query
                     // (never surfaces through the API)
};

// A success-or-error value; cheap to copy on the success path.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable "CATEGORY: message" form.
  std::string ToString() const;

 private:
  ErrorCode code_;
  std::string message_;
};

Status ParseError(std::string message);
Status TypeError(std::string message);
Status InstantiationError(std::string message);
Status ExistenceError(std::string message);
Status PermissionError(std::string message);
Status StratificationError(std::string message);
Status InvalidError(std::string message);
Status IoError(std::string message);

// A value of type T or a Status describing why it is absent.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}                 // NOLINT
  Result(Status status) : v_(std::move(status)) {}          // NOLINT

  bool ok() const { return std::holds_alternative<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T& value() { return std::get<T>(v_); }
  const Status& status() const { return std::get<Status>(v_); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace xsb

#endif  // XSB_BASE_STATUS_H_
