// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The SAE data owner (paper §II): keeps the master dataset, ships it (and
// incremental updates) to the SP and the TE, and performs *no* other task —
// the model's headline property.

#ifndef SAE_CORE_DATA_OWNER_H_
#define SAE_CORE_DATA_OWNER_H_

#include <unordered_map>
#include <vector>

#include "core/service_provider.h"
#include "core/trusted_entity.h"
#include "sim/channel.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::core {

/// SAE's data owner.
class DataOwner {
 public:
  explicit DataOwner(size_t record_size = storage::kDefaultRecordSize);

  /// Installs `records` as the master copy and ships them to both parties
  /// over the metered channels (paper Fig. 2 "Initial dataset" arrows),
  /// which build their structures from them; publishes epoch 1. Record ids
  /// must be unique: a duplicate is rejected before anything changes. The
  /// parties receive `records` itself when it is in (key, id) order, else a
  /// sorted copy.
  Status Outsource(const std::vector<Record>& records, ServiceProvider* sp,
                   TrustedEntity* te, sim::Channel* to_sp,
                   sim::Channel* to_te);

  /// Update paths: apply to the master copy, bump the epoch, and propagate
  /// record + epoch notice to both parties.
  Status InsertRecord(const Record& record, ServiceProvider* sp,
                      TrustedEntity* te, sim::Channel* to_sp,
                      sim::Channel* to_te);
  Status DeleteRecord(RecordId id, ServiceProvider* sp, TrustedEntity* te,
                      sim::Channel* to_sp, sim::Channel* to_te);

  /// The latest published epoch: 0 before outsourcing, 1 at the initial
  /// shipment, +1 per update. Clients use it as the freshness reference.
  /// Guarded by the owning system's reader-writer lock under concurrency.
  uint64_t epoch() const { return epoch_; }

  /// Whether `id` is in the master copy — the write-ahead path pre-validates
  /// updates with this before logging them, so the WAL never records an
  /// update the apply would reject.
  bool HasRecord(RecordId id) const { return master_.count(id) > 0; }

  /// Recovery: rewinds the epoch to `epoch` (the snapshot's) after a
  /// fresh re-outsourcing of the snapshot dataset, re-announcing it to
  /// both parties. No data moves; WAL replay advances from here.
  void RestoreEpoch(uint64_t epoch, ServiceProvider* sp, TrustedEntity* te) {
    epoch_ = epoch;
    sp->SetEpoch(epoch);
    te->SetEpoch(epoch);
  }

  const RecordCodec& codec() const { return codec_; }

  /// The master copy in shipping order, (key, id): what a checkpoint of
  /// the current epoch holds.
  std::vector<Record> SortedDataset() const;

 private:
  /// Bumps the epoch and announces it to both parties (wire notice + state).
  void PublishEpoch(ServiceProvider* sp, TrustedEntity* te,
                    sim::Channel* to_sp, sim::Channel* to_te);

  RecordCodec codec_;
  std::unordered_map<RecordId, Record> master_;
  uint64_t epoch_ = 0;
};

}  // namespace sae::core

#endif  // SAE_CORE_DATA_OWNER_H_
