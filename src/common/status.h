#ifndef DAGPERF_COMMON_STATUS_H_
#define DAGPERF_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

// The ErrorCode enum plus ErrorCodeName/IsRetryable live in the public
// facade header so the wire protocol and C++ API share one declaration.
#include "dagperf/error_codes.h"

namespace dagperf {

/// A success-or-error value carrying a human-readable message on failure.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(ErrorCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(ErrorCode::kNotFound, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(ErrorCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(ErrorCode::kInternal, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(ErrorCode::kDeadlineExceeded, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(ErrorCode::kCancelled, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(ErrorCode::kResourceExhausted, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(ErrorCode::kUnavailable, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Server-suggested earliest retry time for retryable failures, in
  /// milliseconds; 0 means "no hint" (clients fall back to their own
  /// backoff). The estimation service attaches this to every shed response,
  /// scaled by queue fullness, so a full admission queue spreads the retry
  /// wave; the wire protocol carries it as error.retry_after_ms.
  double retry_after_ms() const { return retry_after_ms_; }
  void set_retry_after_ms(double ms) { retry_after_ms_ = ms < 0 ? 0.0 : ms; }

  /// Chainable form for the construction helpers above:
  ///   return Status::ResourceExhausted("...").WithRetryAfterMs(40);
  Status&& WithRetryAfterMs(double ms) && {
    set_retry_after_ms(ms);
    return std::move(*this);
  }

  std::string ToString() const;

 private:
  ErrorCode code_;
  std::string message_;
  double retry_after_ms_ = 0.0;
};

/// Either a value of type T or an error Status. Accessing value() when
/// !ok() aborts the process (see DAGPERF_CHECK in check.h for rationale).
template <typename T>
class Result {
 public:
  Result(T value) : storage_(std::move(value)) {}         // NOLINT(runtime/explicit)
  Result(Status status) : storage_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(storage_); }

  const Status& status() const {
    static const Status kOk = Status::Ok();
    if (ok()) return kOk;
    return std::get<Status>(storage_);
  }

  const T& value() const& {
    AbortIfError();
    return std::get<T>(storage_);
  }
  T& value() & {
    AbortIfError();
    return std::get<T>(storage_);
  }
  T&& value() && {
    AbortIfError();
    return std::get<T>(std::move(storage_));
  }

  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  void AbortIfError() const;

  std::variant<T, Status> storage_;
};

namespace internal_status {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal_status

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal_status::DieOnBadResultAccess(std::get<Status>(storage_));
}

}  // namespace dagperf

#endif  // DAGPERF_COMMON_STATUS_H_
