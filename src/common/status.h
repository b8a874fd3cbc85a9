#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace turbdb {

/// Error categories used throughout the library.
///
/// The codes mirror the failure modes of the production JHTDB service:
/// `kThresholdTooLow` corresponds to the service refusing a threshold query
/// whose result would exceed the per-time-step point cap, and `kAborted`
/// is returned when a snapshot-isolation transaction loses a write-write
/// conflict on the cache tables.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kThresholdTooLow = 5,
  kResultTooLarge = 6,
  kIOError = 7,
  kCorruption = 8,
  kAborted = 9,
  kUnavailable = 10,
  kNotSupported = 11,
  kInternal = 12,
  kUnreachable = 13,
  kVersionMismatch = 14,
  kDeadlineExceeded = 15,
  kCancelled = 16,
  kResourceExhausted = 17,
  /// v6-v8 nodes answered a sub-query routed with a stale membership
  /// view with this code. Nothing produces it since v9 (a sub-query
  /// carries its routed view); it stays the highest code an error frame
  /// may carry.
  kWrongOwner = 18,
};

/// Returns a stable human-readable name for a status code ("IOError" etc.).
std::string_view StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value, modeled on the Status idiom used
/// by LevelDB/RocksDB/Arrow. Functions that can fail return `Status` (or
/// `Result<T>`); exceptions are not used on query paths.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ThresholdTooLow(std::string msg) {
    return Status(StatusCode::kThresholdTooLow, std::move(msg));
  }
  static Status ResultTooLarge(std::string msg) {
    return Status(StatusCode::kResultTooLarge, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unreachable(std::string msg) {
    return Status(StatusCode::kUnreachable, std::move(msg));
  }
  static Status VersionMismatch(std::string msg) {
    return Status(StatusCode::kVersionMismatch, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsThresholdTooLow() const {
    return code_ == StatusCode::kThresholdTooLow;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsUnreachable() const { return code_ == StatusCode::kUnreachable; }
  bool IsVersionMismatch() const {
    return code_ == StatusCode::kVersionMismatch;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK Status to the caller.
#define TURBDB_RETURN_NOT_OK(expr)                   \
  do {                                               \
    ::turbdb::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                       \
  } while (0)

}  // namespace turbdb
