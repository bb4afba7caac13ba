// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Status / Result<T>: exception-free error handling in the style of
// Arrow/RocksDB. Functions that can fail on bad input or I/O return Status
// (or Result<T> when they also produce a value).

#ifndef SAE_UTIL_STATUS_H_
#define SAE_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/macros.h"

namespace sae {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kIoError,
  kCorruption,
  kOutOfRange,
  kVerificationFailure,
  kStaleEpoch,
  kShardEpochSkew,
  kUnimplemented,
};

/// Outcome of a fallible operation. Cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

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
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status VerificationFailure(std::string msg) {
    return Status(StatusCode::kVerificationFailure, std::move(msg));
  }
  /// Freshness violation: the proof is cryptographically sound but speaks
  /// for an epoch older than the latest one the DO published.
  static Status StaleEpoch(std::string msg) {
    return Status(StatusCode::kStaleEpoch, std::move(msg));
  }
  /// Cross-shard freshness violation: the per-shard proofs of one stitched
  /// answer speak for epochs that cannot have coexisted — some shards are
  /// fresh while others lag their published epoch, so the composite was
  /// assembled from different points in time (a torn snapshot). A uniformly
  /// lagging answer is kStaleEpoch instead.
  static Status ShardEpochSkew(std::string msg) {
    return Status(StatusCode::kShardEpochSkew, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string for logs and test output.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// The OK status every successful Result reports.
const Status& OkStatus();

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a programming error (SAE_CHECK).
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}        // NOLINT: implicit
  Result(Status status) : var_(std::move(status)) {  // NOLINT: implicit
    SAE_CHECK(!std::get<Status>(var_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  const Status& status() const {
    return ok() ? OkStatus() : std::get<Status>(var_);
  }

  T& value() {
    SAE_CHECK(ok());
    return std::get<T>(var_);
  }
  const T& value() const {
    SAE_CHECK(ok());
    return std::get<T>(var_);
  }

  T ValueOrDie() && {
    SAE_CHECK(ok());
    return std::move(std::get<T>(var_));
  }

 private:
  std::variant<T, Status> var_;
};

/// Folds the per-shard verification verdicts of one stitched multi-shard
/// answer into a composite verdict (shard id, per-shard status):
///   - any non-freshness failure  -> kVerificationFailure naming the shard
///     (the per-shard statuses keep the finer-grained code);
///   - every queried shard stale  -> kStaleEpoch (a uniform replay);
///   - fresh and stale shards mix -> kShardEpochSkew naming the laggards
///     (the answer was stitched from different points in time);
///   - all OK                     -> OK.
/// Freshness classification runs after the failure scan so a shard that is
/// both corrupt and stale is reported as corruption, mirroring the
/// single-shard client's gate ordering in reverse: corruption is the
/// stronger, shard-attributable verdict here.
Status CombineShardStatuses(
    const std::vector<std::pair<size_t, Status>>& per_shard);

}  // namespace sae

#define SAE_INTERNAL_CONCAT_IMPL(a, b) a##b
#define SAE_INTERNAL_CONCAT(a, b) SAE_INTERNAL_CONCAT_IMPL(a, b)

#define SAE_INTERNAL_ASSIGN_OR_RETURN(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                  \
  if (!tmp.ok()) {                                     \
    return tmp.status();                               \
  }                                                    \
  lhs = std::move(tmp.value())

// Assigns the value of a Result expression to `lhs`, propagating errors.
#define SAE_ASSIGN_OR_RETURN(lhs, rexpr) \
  SAE_INTERNAL_ASSIGN_OR_RETURN(SAE_INTERNAL_CONCAT(_res_, __LINE__), lhs, \
                                rexpr)

#endif  // SAE_UTIL_STATUS_H_
