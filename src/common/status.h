// Status / Result error-handling primitives for the mdos framework.
//
// The framework does not throw across module boundaries: fallible
// operations return `Status` (or `Result<T>` when they also produce a
// value). This mirrors the error model of Apache Arrow, whose Plasma store
// this project reimplements, and keeps failure paths explicit in the
// distributed code (RPC timeouts, socket errors, allocator exhaustion).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace mdos {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalid,          // invalid argument / malformed input
  kOutOfMemory,      // allocator or slab exhausted
  kKeyError,         // object id not found
  kAlreadyExists,    // object id already present (uniqueness violation)
  kIoError,          // socket / fd / syscall failure
  kTimeout,          // deadline exceeded (RPC or client wait)
  kNotConnected,     // endpoint is not connected / already closed
  kProtocolError,    // framing or message decode failure
  kCapacityError,    // object larger than store capacity
  kSealed,           // operation invalid on a sealed object
  kNotSealed,        // operation requires a sealed object
  kUnavailable,      // remote store unreachable
  kCancelled,        // operation aborted by shutdown
  kUnknown,
  // Appended after kUnknown so existing wire values stay stable: the RPC
  // response code is the raw enum value and older decoders bound-check
  // against the last enumerator.
  kDeadlineExceeded,  // end-to-end deadline budget exhausted
};

// Largest code a decoder accepts off the wire (wire::Get bounds every
// one-byte enum by its WireMax).
constexpr StatusCode WireMax(StatusCode) {
  return StatusCode::kDeadlineExceeded;
}

// Human-readable name of a status code ("OK", "KeyError", ...).
std::string_view StatusCodeName(StatusCode code);

// A cheap, value-semantic status. Ok status carries no allocation.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg);
  static Status OutOfMemory(std::string msg);
  static Status KeyError(std::string msg);
  static Status AlreadyExists(std::string msg);
  static Status IoError(std::string msg);
  static Status Timeout(std::string msg);
  static Status NotConnected(std::string msg);
  static Status ProtocolError(std::string msg);
  static Status CapacityError(std::string msg);
  static Status Sealed(std::string msg);
  static Status NotSealed(std::string msg);
  static Status Unavailable(std::string msg);
  static Status Cancelled(std::string msg);
  static Status Unknown(std::string msg);
  static Status DeadlineExceeded(std::string msg);

  // Builds an IoError from the current `errno`, prefixed with `context`.
  static Status FromErrno(std::string_view context);

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  [[nodiscard]] bool Is(StatusCode code) const { return code_ == code; }

  // "<CodeName>: <message>" or "OK".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// Result<T>: either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT implicit
  Result(Status status) : value_(std::move(status)) {
    // A Result constructed from a status must carry an error; an OK status
    // with no value is a programming bug.
    if (std::get<Status>(value_).ok()) {
      value_ = Status::Unknown("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(value_);
  }

  // Precondition: ok().
  const T& value() const& { return std::get<T>(value_); }
  T& value() & { return std::get<T>(value_); }
  T&& value() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T ValueOr(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> value_;
};

namespace internal {

// Uniform access to the Status of either a Status or a Result<T>, so
// MDOS_WARN_IF_ERROR accepts both.
inline const Status& GenericStatus(const Status& s) { return s; }
template <typename T>
inline Status GenericStatus(const Result<T>& r) { return r.status(); }

}  // namespace internal
}  // namespace mdos

// Propagate a non-OK Status from an expression.
#define MDOS_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::mdos::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                      \
  } while (0)

// Evaluate a Result expression; on error return its status, otherwise bind
// the value to `lhs`. `lhs` may declare a new variable.
#define MDOS_ASSIGN_OR_RETURN(lhs, expr)            \
  MDOS_ASSIGN_OR_RETURN_IMPL_(                      \
      MDOS_CONCAT_(_mdos_result_, __LINE__), lhs, expr)

#define MDOS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#define MDOS_CONCAT_(a, b) MDOS_CONCAT_IMPL_(a, b)
#define MDOS_CONCAT_IMPL_(a, b) a##b

// Best-effort call whose failure must not abort the surrounding path
// (teardown, eviction, cleanup) but must not vanish either: logs a
// warning with `context` on a non-OK Status/Result. Prefer this over a
// bare `(void)` cast — the tools/mdos_check status-discipline checker
// flags the latter. Requires common/log.h at the point of use.
#define MDOS_WARN_IF_ERROR(expr, context)                                \
  do {                                                                   \
    auto&& _mdos_wie = (expr);                                           \
    if (!_mdos_wie.ok()) {                                               \
      MDOS_LOG_WARN << (context) << ": "                                 \
                    << ::mdos::internal::GenericStatus(_mdos_wie);       \
    }                                                                    \
  } while (0)
