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

std::vector<Record> DataOwner::SortedDataset() const {
  std::vector<Record> out;
  out.reserve(master_.size());
  for (const auto& [id, record] : master_) out.push_back(record);
  std::sort(out.begin(), out.end(), storage::ByKeyId);
  return out;
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

Status DataOwner::Outsource(const std::vector<Record>& records,
                            ServiceProvider* sp, TrustedEntity* te,
                            sim::Channel* to_sp, sim::Channel* to_te) {
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
  // The parties load `shipped` itself; the channels count what it weighs
  // as a records message.
  size_t shipment = RecordsMessageSize(shipped.size(), codec_);
  to_sp->SendBytes(shipment);
  to_te->SendBytes(shipment);
  SAE_RETURN_NOT_OK(sp->LoadDataset(shipped));
  SAE_RETURN_NOT_OK(te->LoadDataset(shipped));
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
