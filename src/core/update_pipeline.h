// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The durable update pipeline SaeSystem and TomSystem are built on
// (core/system.h). The two models differ only in who authenticates — SAE
// keeps the TE's XB-tree and hands out XOR tokens, TOM keeps the SP's
// MB-tree under the DO's root signature — so the DO -> SP/TE write path,
// its public update/durability surface and the crash-recovery scaffold
// live here once. Each system implements the pipeline's model hook for
// its authentication structure: apply one update, capture checkpoint
// state, restore and prove a recovered snapshot.
//
// Write-ahead ordering (durability on): an update validates against the
// owner state PLUS every staged-but-unapplied change, stages its WAL
// record at epoch staged_epoch_+1 under the writer lock, commits it
// durable OUTSIDE the lock through the WAL group sequencer (one fsync per
// concurrent group; a lone writer is per-record sync), then re-enters and
// waits on apply_cv_ for its turn to apply in staged-epoch order. A synced
// record therefore precedes every in-memory apply it covers. When a group
// fsync or an apply fails, the unpublishable staged suffix is durably
// RETRACTED (a WAL kAbort marker) and wal_generation_ bumps: waiters from
// the old generation fail without applying, and the pipeline re-arms.
// Only if the retraction itself cannot be made durable does wal_dead_ set —
// the suffix's post-crash outcome is then unknown, so the pipeline fails
// stop (every later update is refused until restart).

#ifndef SAE_CORE_UPDATE_PIPELINE_H_
#define SAE_CORE_UPDATE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/durability.h"
#include "util/macros.h"
#include "util/status.h"

namespace sae::core {

/// Aggregate cost of the update pipeline (DO -> parties), accumulated per
/// system across all Insert/Delete calls. `shipment_bytes` is the record /
/// deletion-notice traffic; `auth_bytes` is the epoch-notice (SAE) or
/// root-signature (TOM) traffic riding along with it.
struct UpdateStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t failed = 0;          ///< rejected updates (duplicate id, ...)
  size_t shipment_bytes = 0;
  size_t auth_bytes = 0;
  double latency_ms = 0.0;      ///< summed wall time in the writer section
};

/// The update half of a system: the reader-writer lock, the staged-epoch
/// sequencing and retraction state, the update counters and the
/// DurabilityManager, behind the public update and durability calls.
class UpdatePipeline {
 public:
  /// DO-side updates, propagated to the parties under the writer (unique)
  /// lock with a fresh epoch. Safe to call concurrently with queries and
  /// other updates. The Versioned variants return the epoch the update
  /// published — the serialization point of the update, which the
  /// interleaved stress suite replays against a serial oracle.
  Result<uint64_t> InsertVersioned(const Record& record) {
    return Run(WalUpdate::Insert(record));
  }
  Result<uint64_t> DeleteVersioned(RecordId id) {
    return Run(WalUpdate::Delete(id));
  }
  Status Insert(const Record& record) {
    return InsertVersioned(record).status();
  }
  Status Delete(RecordId id) { return DeleteVersioned(id).status(); }

  /// Load's head: InvalidArgument when a payload exceeds the record size,
  /// which the parties' record codec could not serialize.
  Status CheckLoad(const std::vector<Record>& records) const;

  /// Latest published epoch (the client's freshness reference), readable
  /// without any lock.
  uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Accumulated update-pipeline costs (snapshot by value).
  UpdateStats update_stats() const {
    std::shared_lock<std::shared_mutex> lock(rw_mu_);
    return stats_;
  }

  /// The full checkpoint payload of the current epoch (dataset in index
  /// order, plus TOM's root signature and tree shape), under the reader
  /// lock — what a full snapshot written at this epoch holds. `epoch`, when
  /// given, receives the epoch the payload belongs to, read under the same
  /// lock.
  Result<SnapshotState> CaptureState(uint64_t* epoch = nullptr);

  /// Attached durability manager; nullptr when durability is off.
  DurabilityManager* durability() { return durability_.get(); }

  /// Durability counters (zeroed struct when durability is off).
  DurabilityStats durability_stats() const {
    return durability_ != nullptr ? durability_->stats() : DurabilityStats{};
  }

  /// Blocks until every captured checkpoint is durable; returns the first
  /// checkpoint failure since the last wait. Call without holding a query
  /// open on this thread.
  Status WaitForCheckpoints() {
    return durability_ != nullptr ? durability_->WaitForCheckpoints()
                                  : Status::OK();
  }

 protected:
  /// `header` carries the model tag, record size and hash scheme every
  /// checkpoint is stamped with and every recovered snapshot must match.
  UpdatePipeline(const SnapshotState& header, const DurabilityOptions& options)
      : header_(header), durability_options_(options) {}

  /// Load's tail (writer lock held, parties loaded at epoch 1 from
  /// `sorted`, the dataset in index order): publishes the epoch and, with
  /// durability on, opens the WAL and writes `sorted` as the epoch-1
  /// baseline synchronously — until it is durable, a crash means
  /// re-outsourcing from the DO's master copy.
  Status FinishLoad(const std::vector<Record>& sorted);

  /// Rebuilds a `System` from its durability directory after a crash:
  /// opens it, checks the snapshot's model and configuration, restores it
  /// through the model, replays the WAL records that chain
  /// epoch-contiguously out of it, and publishes the recovered epoch.
  /// kNotFound when no durable snapshot exists (the crash predates the
  /// first durable checkpoint); kCorruption when the snapshot or WAL
  /// contradicts the options or each other.
  template <typename System>
  static Result<std::unique_ptr<System>> RecoverSystem(
      const typename System::Options& options) {
    auto system = std::make_unique<System>(options);
    UpdatePipeline& pipeline = *system;
    std::unique_lock<std::shared_mutex> lock(pipeline.rw_mu_);
    SAE_RETURN_NOT_OK(pipeline.RecoverLocked());
    return system;
  }

  // The model hook: the parts of the write path that touch a system's
  // authentication structure. Calls run under the writer lock (Capture
  // for CaptureState under the reader lock).

  /// DO -> parties traffic of one apply, split as UpdateStats reports it.
  struct Traffic {
    size_t shipment_bytes = 0;
    size_t auth_bytes = 0;
  };

  /// The owner's master copy: current epoch and record presence.
  virtual uint64_t OwnerEpoch() const = 0;
  virtual bool OwnerHasRecord(RecordId id) const = 0;
  /// Applies one kInsert/kDelete to the owner and every party, bumping the
  /// epoch. Live updates and WAL replay both come through here.
  virtual Status Apply(const WalUpdate& update, Traffic* traffic) = 0;
  /// Fills the checkpoint payload of the current epoch into `state` (whose
  /// header the pipeline set): the root signature and tree shape always
  /// (TOM; SAE has none), the whole dataset in index order only
  /// `with_records` — in CaptureState, never for a checkpoint (the Load
  /// baseline takes the dataset Load shipped).
  virtual Status Capture(bool with_records, SnapshotState* state) = 0;
  /// Rebuilds every party from a recovered snapshot at `epoch` and proves
  /// the rebuilt authentication state is the checkpointed one.
  virtual Status Restore(const SnapshotState& state, uint64_t epoch) = 0;

  // Reader-writer coordination: queries shared, updates unique.
  mutable std::shared_mutex rw_mu_;

 private:
  /// validate -> stage -> commit -> apply -> checkpoint for one update.
  Result<uint64_t> Run(WalUpdate update);
  Status RecoverLocked();
  /// Record presence as the update being validated will observe it.
  bool EffectiveHasRecord(RecordId id) const;
  /// Drops `id`'s staged-presence entry if it is still the one `epoch`
  /// staged (a later stage of the same id supersedes it).
  void ClearStagedPresence(RecordId id, uint64_t epoch);
  /// Durably retracts every staged record from `first_epoch` on and
  /// re-arms a new generation; poisons the pipeline if that fails.
  void RetractSuffix(uint64_t first_epoch);
  /// Captures a full (or, per the compaction schedule, delta) checkpoint
  /// of the current epoch; a `baseline` dataset instead seeds the
  /// manager's image and is written synchronously.
  Status Checkpoint(const std::vector<Record>* baseline);
  /// Whether `record`'s payload fits the configured record size.
  bool Fits(const Record& record) const {
    return record.payload.size() + storage::kRecordHeaderSize <=
           header_.record_size;
  }
  void Publish() {
    published_epoch_.store(OwnerEpoch(), std::memory_order_release);
  }

  const SnapshotState header_;
  const DurabilityOptions durability_options_;
  std::atomic<uint64_t> published_epoch_{0};

  // Written under the writer lock.
  UpdateStats stats_;
  uint64_t staged_epoch_ = 0;
  uint64_t wal_generation_ = 0;
  std::unordered_map<RecordId, std::pair<bool, uint64_t>> staged_presence_;
  std::condition_variable_any apply_cv_;
  bool wal_dead_ = false;
  std::unique_ptr<DurabilityManager> durability_;
};

}  // namespace sae::core

#endif  // SAE_CORE_UPDATE_PIPELINE_H_
