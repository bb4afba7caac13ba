// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the data owner (core/data_owner.h): initial shipping and
// incremental updates to SP and TE (and ADS maintenance under TOM).

#include "core/data_owner.h"

#include <algorithm>

#include "util/macros.h"

namespace sae::core {

DataOwner::DataOwner(size_t record_size) : codec_(record_size) {}

std::vector<Record> DataOwner::SortedDataset() const {
  std::vector<Record> out;
  out.reserve(master_.size());
  for (const auto& [id, record] : master_) out.push_back(record);
  std::sort(out.begin(), out.end(), storage::ByKeyId);
  return out;
}

void DataOwner::PublishEpoch(ServiceProvider* sp, TrustedEntity* te) {
  ++epoch_;
  sp->SetEpoch(epoch_);
  te->SetEpoch(epoch_);
}

Status DataOwner::Outsource(const std::vector<Record>& records,
                            ServiceProvider* sp, TrustedEntity* te) {
  std::unordered_map<RecordId, Record> master;
  master.reserve(records.size());
  for (const Record& record : records) {
    if (!master.emplace(record.id, record).second) {
      return Status::InvalidArgument("duplicate record id");
    }
  }
  master_ = std::move(master);
  epoch_ = 0;  // nothing outsourced yet; the shipment publishes epoch 1

  // Generated datasets and recovered snapshots arrive sorted and ship as
  // they are.
  std::vector<Record> copy;
  const std::vector<Record>& shipped = storage::SortedByKeyId(records, &copy);
  SAE_RETURN_NOT_OK(sp->LoadDataset(shipped));
  SAE_RETURN_NOT_OK(te->LoadDataset(shipped));
  PublishEpoch(sp, te);  // the initial shipment is epoch 1
  return Status::OK();
}

Status DataOwner::InsertRecord(const Record& record, ServiceProvider* sp,
                               TrustedEntity* te) {
  if (!master_.emplace(record.id, record).second) {
    return Status::AlreadyExists("record id already present");
  }
  SAE_RETURN_NOT_OK(sp->InsertRecord(record));
  SAE_RETURN_NOT_OK(te->InsertRecord(record));
  PublishEpoch(sp, te);
  return Status::OK();
}

Status DataOwner::DeleteRecord(RecordId id, ServiceProvider* sp,
                               TrustedEntity* te) {
  auto it = master_.find(id);
  if (it == master_.end()) return Status::NotFound("no record with this id");
  Key key = it->second.key;
  master_.erase(it);
  SAE_RETURN_NOT_OK(sp->DeleteRecord(id));
  SAE_RETURN_NOT_OK(te->DeleteRecord(key, id));
  PublishEpoch(sp, te);
  return Status::OK();
}

}  // namespace sae::core
