// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the shared durable update pipeline (core/update_pipeline.h).

#include "core/update_pipeline.h"

#include <algorithm>

#include "sim/cost_model.h"
#include "util/macros.h"

namespace sae::core {

Result<SnapshotState> UpdatePipeline::CaptureState(uint64_t* epoch) {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  SnapshotState state = header_;
  SAE_RETURN_NOT_OK(Capture(/*with_records=*/true, &state));
  if (epoch != nullptr) *epoch = OwnerEpoch();
  return state;
}

Status UpdatePipeline::CheckLoad(const std::vector<Record>& records) const {
  for (const Record& record : records) {
    if (!Fits(record)) {
      return Status::InvalidArgument("record payload exceeds the record size");
    }
  }
  return Status::OK();
}

Status UpdatePipeline::FinishLoad(const std::vector<Record>& sorted) {
  Publish();
  if (!durability_options_.enabled) return Status::OK();
  SAE_ASSIGN_OR_RETURN(durability_,
                       DurabilityManager::Open(durability_options_));
  return Checkpoint(&sorted);
}

Status UpdatePipeline::RecoverLocked() {
  SAE_ASSIGN_OR_RETURN(std::unique_ptr<DurabilityManager> mgr,
                       DurabilityManager::Open(durability_options_));
  const DurabilityManager::Recovered& rec = mgr->recovered();
  if (!rec.has_snapshot) {
    return Status::NotFound("no durable snapshot to recover from");
  }
  if (rec.snapshot.model != header_.model) {
    return Status::Corruption("snapshot belongs to a different model");
  }
  if (rec.snapshot.record_size != header_.record_size ||
      rec.snapshot.scheme != header_.scheme) {
    return Status::Corruption("snapshot configuration does not match options");
  }
  if (!CheckLoad(rec.snapshot.records).ok()) {
    return Status::Corruption("snapshot record exceeds the record size");
  }
  SAE_RETURN_NOT_OK(Restore(rec.snapshot, rec.snapshot_epoch));
  // Replay the WAL tail through the live apply path. Records at or below
  // the snapshot epoch are already inside it (a crash can land between the
  // checkpoint rename and the segment drop); later records must chain
  // epoch-contiguously out of the snapshot.
  for (const WalUpdate& update : rec.wal_tail) {
    if (update.epoch <= rec.snapshot_epoch) continue;
    if (update.epoch != OwnerEpoch() + 1) {
      return Status::Corruption("wal epoch does not follow recovered state");
    }
    if (update.op == WalUpdate::kInsert && !Fits(update.record)) {
      return Status::Corruption("wal record exceeds the record size");
    }
    Status applied = Apply(update);
    if (!applied.ok()) {
      return Status::Corruption("wal replay failed: " + applied.message());
    }
  }
  Publish();
  durability_ = std::move(mgr);
  return Status::OK();
}

bool UpdatePipeline::EffectiveHasRecord(RecordId id) const {
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end()) return it->second.first;
  return OwnerHasRecord(id);
}

void UpdatePipeline::ClearStagedPresence(RecordId id, uint64_t epoch) {
  auto it = staged_presence_.find(id);
  if (it != staged_presence_.end() && it->second.second == epoch) {
    staged_presence_.erase(it);
  }
}

void UpdatePipeline::RetractSuffix(uint64_t first_epoch) {
  if (!wal_dead_ && durability_->RetractStagedFrom(first_epoch).ok()) {
    staged_epoch_ = first_epoch - 1;
    staged_presence_.clear();
    ++wal_generation_;
  } else {
    wal_dead_ = true;
  }
  apply_cv_.notify_all();
}

Status UpdatePipeline::Checkpoint(const std::vector<Record>* baseline) {
  // Only the Load baseline copies the dataset, the one Load shipped: it
  // seeds the manager's checkpoint image, and every later checkpoint is
  // built from that image and the pending log (O(changes) here; TOM's
  // capture adds the root signature and tree shape AT this epoch, so the
  // written chain stays byte-provable at recovery).
  SnapshotState state = header_;
  SAE_RETURN_NOT_OK(Capture(/*with_records=*/false, &state));
  const uint64_t epoch = OwnerEpoch();
  if (baseline != nullptr) {
    state.records = *baseline;
    return durability_->CheckpointBaseline(epoch, std::move(state));
  }
  return durability_->Checkpoint(epoch, std::move(state));
}

Result<uint64_t> UpdatePipeline::Run(WalUpdate update) {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  sim::Stopwatch watch;
  auto fail = [&](Status st) -> Result<uint64_t> {
    ++stats_.failed;
    stats_.latency_ms += watch.ElapsedMs();
    return st;
  };
  const bool insert = update.op == WalUpdate::kInsert;
  const RecordId id = insert ? update.record.id : update.id;
  if (insert && !Fits(update.record)) {
    return fail(
        Status::InvalidArgument("record payload exceeds the record size"));
  }
  // Write-ahead ordering: validate first — against the owner state PLUS
  // everything staged ahead of us, so the WAL never records an update its
  // apply would reject — then make the record durable, and only then
  // mutate memory.
  if (EffectiveHasRecord(id) == insert) {
    return fail(insert ? Status::AlreadyExists("record id already present")
                       : Status::NotFound("no record with this id"));
  }
  uint64_t my_epoch = 0;
  if (durability_ != nullptr) {
    if (wal_dead_) {
      return fail(Status::IoError("durable write pipeline failed"));
    }
    my_epoch = std::max(staged_epoch_, OwnerEpoch()) + 1;
    update.epoch = my_epoch;
    auto staged = durability_->StageUpdate(update);
    if (!staged.ok()) return fail(staged.status());
    staged_epoch_ = my_epoch;
    staged_presence_[id] = {insert, my_epoch};
    const uint64_t my_gen = wal_generation_;
    // Commit OUTSIDE the lock so concurrent committers share one fsync,
    // then re-enter and wait for our turn: applies happen in staged epoch
    // order, exactly as if the pipeline were sequential.
    lock.unlock();
    Status synced = durability_->CommitStaged(staged.value());
    lock.lock();
    if (synced.ok() && !wal_dead_ && wal_generation_ == my_gen) {
      apply_cv_.wait(lock, [&] {
        return wal_dead_ || wal_generation_ != my_gen ||
               OwnerEpoch() + 1 == my_epoch;
      });
    }
    if (wal_generation_ != my_gen && !wal_dead_) {
      // A failure below us in the pipeline durably retracted the whole
      // staged suffix — this record included — and re-armed. Our update
      // simply failed; recovery will never replay it.
      return fail(
          Status::IoError("update retracted: a group-commit neighbor failed"));
    }
    if (!synced.ok() || wal_dead_) {
      // A failed group fsync (or a failure upstream in the pipeline) means
      // epochs staged after the failure can never publish. Retract the
      // whole unapplied suffix durably — a neighboring leader's retried
      // fsync may have synced our record even though our own commit
      // failed, so a volatile-looking record can still resurrect.
      RetractSuffix(OwnerEpoch() + 1);
      return fail(synced.ok() ? Status::IoError("durable write pipeline failed")
                              : synced);
    }
  }
  Status st = Apply(update);
  stats_.latency_ms += watch.ElapsedMs();
  if (!st.ok()) {
    // Our record is durable, or may be (group fsync), and so may be the
    // records staged after it, which can never publish now: retract the
    // suffix from ours on with an abort marker, so neither the log nor the
    // next checkpoint claims an update that did not happen.
    if (durability_ != nullptr) RetractSuffix(my_epoch);
    ++stats_.failed;
    return st;
  }
  ++(insert ? stats_.inserts : stats_.deletes);
  Publish();
  if (durability_ != nullptr) {
    ClearStagedPresence(id, my_epoch);
    apply_cv_.notify_all();
    if (durability_->ShouldSnapshot() && staged_epoch_ == OwnerEpoch()) {
      // Checkpoint only at a quiescent point (nothing staged-but-unapplied):
      // the WAL rotation inside the capture is then barrier-free and the
      // pending log holds exactly the applied changes. The cadence counter stays
      // due until the last committer of a burst lands here. The update
      // itself is already durable; a failing checkpoint still surfaces.
      SAE_RETURN_NOT_OK(Checkpoint(/*baseline=*/nullptr));
    }
  }
  return OwnerEpoch();
}

}  // namespace sae::core
