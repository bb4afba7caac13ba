// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the sharded execution tier (core/sharded_system.h): dataset
// partitioning, inline multi-shard query fan-out with the composite
// verdict fold, and shard-routed updates that bump only the owning
// shard's epoch. Explicitly instantiated for SaeSystem and TomSystem.

#include "core/sharded_system.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/macros.h"

namespace sae::core {

namespace {

/// Per-shard durability directory: one WAL + snapshot lineage per shard.
std::string ShardDurabilityDir(const std::string& dir, size_t shard) {
  return dir + "/shard-" + std::to_string(shard);
}

/// `options` with the durability directory rebased for shard `s` (a
/// no-op when durability is off).
template <typename Options>
Options ShardOptions(Options options, size_t s) {
  if (options.durability.enabled) {
    options.durability.dir = ShardDurabilityDir(options.durability.dir, s);
  }
  return options;
}

}  // namespace

template <typename Base>
ShardedSystem<Base>::ShardedSystem(ShardRouter router, const Options& options)
    : router_(std::move(router)) {
  shards_.reserve(router_.num_shards());
  for (size_t s = 0; s < router_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<Base>(ShardOptions(options, s)));
  }
}

template <typename Base>
Result<std::unique_ptr<ShardedSystem<Base>>> ShardedSystem<Base>::Recover(
    ShardRouter router, const Options& options) {
  if (!options.durability.enabled) {
    return Status::InvalidArgument("recovery needs durability enabled");
  }
  auto system =
      std::make_unique<ShardedSystem<Base>>(std::move(router), options);
  std::lock_guard<std::mutex> lock(system->directory_mu_);
  for (size_t s = 0; s < system->shards_.size(); ++s) {
    SAE_ASSIGN_OR_RETURN(system->shards_[s],
                         Base::Recover(ShardOptions(options, s)));
    // The recovered dataset rebuilds the id -> key routing directory.
    SAE_ASSIGN_OR_RETURN(SnapshotState state,
                         system->shards_[s]->CaptureState());
    for (const Record& record : state.records) {
      if (!system->directory_.emplace(record.id, record.key).second) {
        return Status::Corruption(
            "record id recovered on more than one shard");
      }
      if (system->router_.ShardOf(record.key) != s) {
        return Status::Corruption("recovered record violates the fences");
      }
    }
  }
  return system;
}

template <typename Base>
Status ShardedSystem<Base>::Load(const std::vector<Record>& records) {
  // Refused before any shard loads: no shard is left half outsourced.
  SAE_RETURN_NOT_OK(shards_[0]->CheckLoad(records));
  std::vector<std::vector<Record>> partitions(shards_.size());
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    directory_.clear();
    for (const Record& record : records) {
      if (!directory_.emplace(record.id, record.key).second) {
        directory_.clear();  // no id of a refused load stays routable
        return Status::InvalidArgument("duplicate record id");
      }
      partitions[router_.ShardOf(record.key)].push_back(record);
    }
  }
  // Every shard loads — an empty partition still publishes epoch 1, so a
  // shard whose key range holds no data is queryable and fresh from the
  // start (the empty-shard edge case in tests/sharding_test.cc).
  for (size_t s = 0; s < shards_.size(); ++s) {
    SAE_RETURN_NOT_OK(shards_[s]->Load(partitions[s]));
  }
  return Status::OK();
}

template <typename Base>
Result<typename ShardedSystem<Base>::QueryOutcome>
ShardedSystem<Base>::ExecuteQuery(const dbms::QueryRequest& request,
                                  QueryTap* tap) {
  if (request.lo > request.hi) return Status::InvalidArgument("lo > hi");
  std::vector<ShardRouter::Slice> plan =
      router_.Partition(request.lo, request.hi);

  // Run the per-shard sub-queries inline — the same operator, range-clipped
  // to each shard's slice — and stitch their witnesses and partial answers.
  // Each shard's ExecuteQuery takes that shard's own reader lock and
  // verifies its slice (witness proof + partial-answer recomputation)
  // against that shard's published epoch; a compromised shard corrupts
  // only its own slice. An execution error (as opposed to a verification
  // verdict) on any shard fails the whole query, mirroring the unsharded
  // systems.
  QueryOutcome outcome;
  outcome.request = request;
  outcome.slices.reserve(plan.size());
  std::vector<std::pair<size_t, Status>> verdicts;
  verdicts.reserve(plan.size());
  std::vector<dbms::QueryAnswer> parts;
  parts.reserve(plan.size());
  for (const ShardRouter::Slice& part : plan) {
    dbms::QueryRequest sub = request;
    sub.lo = part.lo;
    sub.hi = part.hi;
    Result<typename Base::QueryOutcome> result =
        shards_[part.shard]->ExecuteQuery(sub, tap);
    if (!result.ok()) return result.status();
    Slice slice;
    slice.shard = part.shard;
    slice.lo = part.lo;
    slice.hi = part.hi;
    slice.outcome = std::move(result.value());
    outcome.results.insert(outcome.results.end(),
                           slice.outcome.results.begin(),
                           slice.outcome.results.end());
    outcome.costs += slice.outcome.costs;
    verdicts.emplace_back(slice.shard, slice.outcome.verification);
    parts.push_back(slice.outcome.answer);
    outcome.slices.push_back(std::move(slice));
  }
  outcome.answer = dbms::MergeAnswers(request, parts);

  // The composite verdict: the slices tile [lo, hi] by construction (the
  // router clipped the range along the trusted fences), so it is the
  // cross-shard epoch fold over the per-slice verdicts. Each of those
  // already covers its witness AND its partial answer, so one
  // aggregate-lying shard surfaces here with attribution.
  outcome.verification = CombineShardStatuses(verdicts);
  return outcome;
}

template <typename Base>
Result<ShardUpdate> ShardedSystem<Base>::InsertVersioned(
    const Record& record) {
  {
    // The directory is the cross-shard id-uniqueness authority; the
    // critical section is one map op so writers to different shards stay
    // parallel.
    std::lock_guard<std::mutex> lock(directory_mu_);
    if (!directory_.emplace(record.id, record.key).second) {
      return Status::AlreadyExists("record id already present");
    }
  }
  size_t shard = router_.ShardOf(record.key);
  Result<uint64_t> epoch = shards_[shard]->InsertVersioned(record);
  if (!epoch.ok()) {
    std::lock_guard<std::mutex> lock(directory_mu_);
    directory_.erase(record.id);
    return epoch.status();
  }
  return ShardUpdate{shard, epoch.value()};
}

template <typename Base>
Result<ShardUpdate> ShardedSystem<Base>::DeleteVersioned(RecordId id) {
  Key key;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    auto it = directory_.find(id);
    if (it == directory_.end()) {
      return Status::NotFound("no record with this id");
    }
    key = it->second;
    directory_.erase(it);
  }
  size_t shard = router_.ShardOf(key);
  Result<uint64_t> epoch = shards_[shard]->DeleteVersioned(id);
  if (!epoch.ok()) {
    std::lock_guard<std::mutex> lock(directory_mu_);
    directory_.emplace(id, key);
    return epoch.status();
  }
  return ShardUpdate{shard, epoch.value()};
}

template <typename Base>
std::vector<uint64_t> ShardedSystem<Base>::ShardEpochs() const {
  std::vector<uint64_t> epochs;
  epochs.reserve(shards_.size());
  for (const auto& shard : shards_) epochs.push_back(shard->epoch());
  return epochs;
}

template <typename Base>
UpdateStats ShardedSystem<Base>::update_stats() const {
  UpdateStats total;
  for (const auto& shard : shards_) {
    UpdateStats stats = shard->update_stats();
    total.inserts += stats.inserts;
    total.deletes += stats.deletes;
    total.failed += stats.failed;
    total.shipment_bytes += stats.shipment_bytes;
    total.auth_bytes += stats.auth_bytes;
    total.latency_ms += stats.latency_ms;
  }
  return total;
}

template <typename Base>
DurabilityStats ShardedSystem<Base>::durability_stats() const {
  DurabilityStats total;
  for (const auto& shard : shards_) {
    DurabilityStats s = shard->durability_stats();
    total.wal_bytes += s.wal_bytes;
    total.wal_records += s.wal_records;
    total.wal_syncs += s.wal_syncs;
    total.checkpoints_full += s.checkpoints_full;
    total.checkpoints_delta += s.checkpoints_delta;
    total.checkpoints_skipped += s.checkpoints_skipped;
    total.delta_chain_length =
        std::max(total.delta_chain_length, s.delta_chain_length);
    total.updates_since_checkpoint += s.updates_since_checkpoint;
    total.pending_checkpoints += s.pending_checkpoints;
    total.checkpoint_bytes_total += s.checkpoint_bytes_total;
    total.last_checkpoint_bytes =
        std::max(total.last_checkpoint_bytes, s.last_checkpoint_bytes);
    total.last_checkpoint_ms =
        std::max(total.last_checkpoint_ms, s.last_checkpoint_ms);
    total.checkpoint_ms_total += s.checkpoint_ms_total;
  }
  total.avg_group_records =
      total.wal_syncs > 0
          ? double(total.wal_records) / double(total.wal_syncs)
          : 0.0;
  return total;
}

template <typename Base>
Status ShardedSystem<Base>::WaitForCheckpoints() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status st = shard->WaitForCheckpoints();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

template class ShardedSystem<SaeSystem>;
template class ShardedSystem<TomSystem>;

}  // namespace sae::core
