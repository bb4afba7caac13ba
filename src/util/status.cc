// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements Status/Result (util/status.h): status-code names and the
// human-readable ToString used by SAE_CHECK_OK failure messages.

#include "util/status.h"

namespace sae {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kVerificationFailure:
      return "VerificationFailure";
    case StatusCode::kStaleEpoch:
      return "StaleEpoch";
    case StatusCode::kShardEpochSkew:
      return "ShardEpochSkew";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

}  // namespace

Status CombineShardStatuses(
    const std::vector<std::pair<size_t, Status>>& per_shard) {
  std::vector<size_t> stale;
  for (const auto& [shard, status] : per_shard) {
    if (status.ok()) continue;
    if (status.code() == StatusCode::kStaleEpoch) {
      stale.push_back(shard);
      continue;
    }
    return Status::VerificationFailure("shard " + std::to_string(shard) +
                                       ": " + status.ToString());
  }
  if (stale.empty()) return Status::OK();
  if (stale.size() == per_shard.size()) {
    return Status::StaleEpoch(
        "every queried shard answered from a stale epoch");
  }
  std::string laggards;
  for (size_t shard : stale) {
    if (!laggards.empty()) laggards += ", ";
    laggards += std::to_string(shard);
  }
  return Status::ShardEpochSkew("shard(s) " + laggards +
                                " lag their published epoch while other "
                                "shards in the same answer are fresh");
}

const Status& OkStatus() {
  static const Status ok;
  return ok;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace sae
