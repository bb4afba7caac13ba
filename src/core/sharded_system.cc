// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the sharded execution tier (core/sharded_system.h): dataset
// partitioning, parallel multi-shard query fan-out with composite
// verification, and shard-routed updates that bump only the owning
// shard's epoch. Explicitly instantiated for SaeSystem and TomSystem.

#include "core/sharded_system.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "util/macros.h"

namespace sae::core {

namespace {

/// Per-shard durability directory: one WAL + snapshot lineage per shard.
std::string ShardDurabilityDir(const std::string& dir, size_t shard) {
  return dir + "/shard-" + std::to_string(shard);
}

/// `options.base` with the durability directory rebased for shard `s` (a
/// no-op when durability is off).
template <typename Base>
typename Base::Options ShardOptions(
    const typename ShardedSystem<Base>::Options& options, size_t s) {
  typename Base::Options base = options.base;
  if (base.durability.enabled) {
    base.durability.dir = ShardDurabilityDir(base.durability.dir, s);
  }
  return base;
}

}  // namespace

template <typename Base>
ShardedSystem<Base>::ShardedSystem(ShardRouter router, const Options& options)
    : router_(std::move(router)),
      options_(options),
      fanout_(QueryEngineOptions{options.fanout_workers}) {
  shards_.reserve(router_.num_shards());
  for (size_t s = 0; s < router_.num_shards(); ++s) {
    shards_.push_back(
        std::make_unique<Base>(ShardOptions<Base>(options_, s)));
  }
}

template <typename Base>
Result<std::unique_ptr<ShardedSystem<Base>>> ShardedSystem<Base>::Recover(
    ShardRouter router, const Options& options) {
  if (!options.base.durability.enabled) {
    return Status::InvalidArgument("recovery needs durability enabled");
  }
  auto system =
      std::make_unique<ShardedSystem<Base>>(std::move(router), options);
  std::lock_guard<std::mutex> lock(system->directory_mu_);
  for (size_t s = 0; s < system->shards_.size(); ++s) {
    SAE_ASSIGN_OR_RETURN(system->shards_[s],
                         Base::Recover(ShardOptions<Base>(options, s)));
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
  std::vector<std::vector<Record>> partitions(shards_.size());
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    directory_.clear();
    for (const Record& record : records) {
      if (!directory_.emplace(record.id, record.key).second) {
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
                                  ShardAttack attack) {
  if (request.lo > request.hi) return Status::InvalidArgument("lo > hi");
  std::vector<ShardRouter::Slice> plan =
      router_.Partition(request.lo, request.hi);

  // Fan the per-shard sub-queries out — the same operator, range-clipped
  // to each shard's slice. Each shard's ExecuteQuery takes that shard's
  // own reader lock and verifies its slice (witness proof + partial-answer
  // recomputation) against that shard's published epoch on the thread that
  // ran it; a compromised shard corrupts only its own slice.
  using BaseOutcome = typename Base::QueryOutcome;
  std::vector<std::optional<Result<BaseOutcome>>> slots(plan.size());
  std::function<void(size_t)> sub_query = [&](size_t i) {
    AttackMode mode = attack.AppliesTo(plan[i].shard) ? attack.mode
                                                      : AttackMode::kNone;
    dbms::QueryRequest sub = request;
    sub.lo = plan[i].lo;
    sub.hi = plan[i].hi;
    slots[i].emplace(shards_[plan[i].shard]->ExecuteQuery(sub, mode));
  };
  // The worker pool runs one job at a time (QueryEngine::Dispatch is
  // single-caller), so the first concurrent query in takes it via the
  // try-lock and the rest fan out inline on their own threads — never
  // blocking on, or racing over, the shared job state.
  std::unique_lock<std::mutex> fan_lock(fanout_mu_, std::try_to_lock);
  if (fan_lock.owns_lock() && fanout_.worker_threads() > 0) {
    fanout_.RunTasks(plan.size(), sub_query);
  } else {
    for (size_t i = 0; i < plan.size(); ++i) sub_query(i);
  }

  // Stitch witness slices and fold the partial answers. An execution error
  // (as opposed to a verification verdict) on any shard fails the whole
  // query, mirroring the unsharded systems.
  QueryOutcome outcome;
  outcome.request = request;
  outcome.slices.reserve(plan.size());
  std::vector<std::pair<size_t, Status>> verdicts;
  verdicts.reserve(plan.size());
  std::vector<dbms::QueryAnswer> parts;
  parts.reserve(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    Result<BaseOutcome>& slot = *slots[i];
    if (!slot.ok()) return slot.status();
    Slice slice;
    slice.shard = plan[i].shard;
    slice.lo = plan[i].lo;
    slice.hi = plan[i].hi;
    slice.outcome = std::move(slot.value());
    outcome.results.insert(outcome.results.end(),
                           slice.outcome.results.begin(),
                           slice.outcome.results.end());
    outcome.costs += slice.outcome.costs;
    verdicts.emplace_back(slice.shard, slice.outcome.verification);
    parts.push_back(slice.outcome.answer);
    outcome.slices.push_back(std::move(slice));
  }
  outcome.answer = dbms::MergeAnswers(request, parts);

  // Composite verification: fence-key tiling first (defense in depth — the
  // slices come from our own router here, but a deserialized answer goes
  // through the same check), then the cross-shard epoch fold over the
  // per-slice verdicts (each already covers its witness AND its partial
  // answer, so one aggregate-lying shard surfaces here with attribution).
  Status cover = router_.VerifyCover(request.lo, request.hi, plan);
  outcome.verification =
      cover.ok() ? CombineShardStatuses(verdicts) : std::move(cover);
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

mbtree::CompositeVo BuildCompositeVo(
    const ShardedTomSystem::QueryOutcome& outcome) {
  mbtree::CompositeVo cvo;
  cvo.parts.reserve(outcome.slices.size());
  for (const ShardedTomSystem::Slice& slice : outcome.slices) {
    mbtree::CompositeVoPart part;
    part.shard = uint32_t(slice.shard);
    part.lo = slice.lo;
    part.hi = slice.hi;
    part.vo = slice.outcome.vo;
    cvo.parts.push_back(std::move(part));
  }
  return cvo;
}

}  // namespace sae::core
