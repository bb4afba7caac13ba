// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the data owner (core/data_owner.h): initial shipping and
// incremental updates to SP and TE (and ADS maintenance under TOM).

#include "core/data_owner.h"

#include <algorithm>

#include "core/messages.h"
#include "util/macros.h"

namespace sae::core {

DataOwner::DataOwner(size_t record_size) : codec_(record_size) {}

Status DataOwner::SetDataset(const std::vector<Record>& records) {
  master_.clear();
  epoch_ = 0;  // nothing outsourced yet; Outsource publishes epoch 1
  for (const Record& record : records) {
    if (!master_.emplace(record.id, record).second) {
      return Status::InvalidArgument("duplicate record id");
    }
  }
  return Status::OK();
}

std::vector<Record> DataOwner::SortedDataset() const {
  std::vector<Record> out;
  out.reserve(master_.size());
  for (const auto& [id, record] : master_) out.push_back(record);
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
  return out;
}

Result<Record> DataOwner::Get(RecordId id) const {
  auto it = master_.find(id);
  if (it == master_.end()) return Status::NotFound("no record with this id");
  return it->second;
}

void DataOwner::PublishEpoch(ServiceProvider* sp, TrustedEntity* te,
                             sim::Channel* to_sp, sim::Channel* to_te) {
  ++epoch_;
  std::vector<uint8_t> notice = SerializeEpochNotice(epoch_);
  to_sp->Send(notice);
  to_te->Send(notice);
  sp->SetEpoch(epoch_);
  te->SetEpoch(epoch_);
}

Status DataOwner::Outsource(ServiceProvider* sp, TrustedEntity* te,
                            sim::Channel* to_sp, sim::Channel* to_te) {
  std::vector<Record> sorted = SortedDataset();
  // The parties load `sorted` itself; the channels count what it weighs as
  // a records message.
  size_t shipment = RecordsMessageSize(sorted.size(), codec_);
  to_sp->SendBytes(shipment);
  to_te->SendBytes(shipment);
  SAE_RETURN_NOT_OK(sp->LoadDataset(sorted));
  SAE_RETURN_NOT_OK(te->LoadDataset(sorted));
  PublishEpoch(sp, te, to_sp, to_te);  // the initial shipment is epoch 1
  return Status::OK();
}

Status DataOwner::InsertRecord(const Record& record, ServiceProvider* sp,
                               TrustedEntity* te, sim::Channel* to_sp,
                               sim::Channel* to_te) {
  if (!master_.emplace(record.id, record).second) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> shipment = SerializeRecords({record}, codec_);
  to_sp->Send(shipment);
  to_te->Send(shipment);
  SAE_RETURN_NOT_OK(sp->InsertRecord(record));
  SAE_RETURN_NOT_OK(te->InsertRecord(record));
  PublishEpoch(sp, te, to_sp, to_te);
  return Status::OK();
}

Status DataOwner::DeleteRecord(RecordId id, ServiceProvider* sp,
                               TrustedEntity* te, sim::Channel* to_sp,
                               sim::Channel* to_te) {
  auto it = master_.find(id);
  if (it == master_.end()) return Status::NotFound("no record with this id");
  Key key = it->second.key;
  master_.erase(it);
  std::vector<uint8_t> note = SerializeDelete(id, key);
  to_sp->Send(note);
  to_te->Send(note);
  SAE_RETURN_NOT_OK(sp->DeleteRecord(id));
  SAE_RETURN_NOT_OK(te->DeleteRecord(key, id));
  PublishEpoch(sp, te, to_sp, to_te);
  return Status::OK();
}

}  // namespace sae::core
