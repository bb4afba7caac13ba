// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements Table (dbms/table.h): heap-file storage plus a B+-tree index
// in either mode, with separate buffer pools, range queries, inserts and
// deletes, bulk load and the shape-preserving dump/reload.

#include "dbms/table.h"

#include <algorithm>

#include "crypto/digest.h"
#include "util/macros.h"

namespace sae::dbms {

std::unique_ptr<Table> Table::Create(std::unique_ptr<btree::BPlusTree> index,
                                     BufferPool* heap_pool,
                                     size_t record_size) {
  SAE_CHECK(index != nullptr && index->size() == 0);
  return std::unique_ptr<Table>(
      new Table(std::move(index), heap_pool, record_size));
}

Status Table::Insert(const Record& record) {
  if (rid_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  SAE_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(bytes.data()));
  // Digest mode posts H(record bytes); plain mode hashes nothing.
  btree::DigestEntry posting{record.key, rid, crypto::Digest{}};
  if (index_->with_digests()) {
    posting.digest = crypto::ComputeDigest(bytes.data(), bytes.size(),
                                           index_->scheme());
  }
  Status st = index_->Insert(posting);
  if (!st.ok()) {
    SAE_CHECK_OK(heap_.Delete(rid));
    return st;
  }
  rid_of_id_[record.id] = rid;
  return Status::OK();
}

Status Table::Delete(RecordId id) {
  auto it = rid_of_id_.find(id);
  if (it == rid_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  Rid rid = it->second;
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(heap_.Get(rid, bytes.data()));
  Record record = codec_.Deserialize(bytes.data());
  SAE_RETURN_NOT_OK(index_->Delete(record.key, rid));
  SAE_RETURN_NOT_OK(heap_.Delete(rid));
  rid_of_id_.erase(it);
  return Status::OK();
}

Status Table::RangeRids(Key lo, Key hi, std::vector<Rid>* rids) const {
  std::vector<btree::BTreeEntry> postings;
  SAE_RETURN_NOT_OK(index_->RangeSearch(lo, hi, &postings));
  rids->reserve(rids->size() + postings.size());
  for (const auto& posting : postings) rids->push_back(posting.rid);
  return Status::OK();
}

Status Table::RangeQuery(Key lo, Key hi, std::vector<Record>* out) const {
  std::vector<Rid> rids;
  SAE_RETURN_NOT_OK(RangeRids(lo, hi, &rids));
  out->reserve(out->size() + rids.size());
  return heap_.GetMany(rids, [&](size_t, const uint8_t* data) {
    out->push_back(codec_.Deserialize(data));
  });
}

Status Table::BulkLoad(const std::vector<Record>& sorted_by_key) {
  return BulkLoad(sorted_by_key, index_->PlanShape(sorted_by_key.size()));
}

Status Table::BulkLoad(const std::vector<Record>& records,
                       const btree::TreeShape& shape) {
  if (size() != 0) {
    return Status::InvalidArgument("bulk load requires an empty table");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key > records[i].key) {
      return Status::InvalidArgument("records not sorted by key");
    }
  }
  // Every id is checked before the heap sees a record, so a rejected load
  // leaves the table empty. The catalog entries' addresses survive
  // rehashing; the heap fills them in as it places each record.
  std::vector<Rid*> rid_slots;
  rid_slots.reserve(records.size());
  rid_of_id_.reserve(records.size());
  for (const Record& record : records) {
    auto [it, fresh] = rid_of_id_.emplace(record.id, storage::kInvalidRid);
    if (!fresh) {
      rid_of_id_.clear();
      return Status::InvalidArgument("duplicate record id in dataset");
    }
    rid_slots.push_back(&it->second);
  }
  std::vector<btree::BTreeEntry> postings(records.size());
  SAE_RETURN_NOT_OK(heap_.InsertMany(
      records.size(), [&](size_t i, Rid rid, uint8_t* slot) {
        codec_.Serialize(records[i], slot);
        *rid_slots[i] = rid;
        postings[i] = btree::BTreeEntry{records[i].key, rid};
      }));
  // Digest mode hashes the whole dataset in one multi-buffer batch.
  std::vector<crypto::Digest> digests;
  if (index_->with_digests()) {
    digests = storage::DigestRecords(records, codec_, index_->scheme());
  }
  return index_->BulkLoad(postings, digests, shape);
}

Status Table::Dump(std::vector<Record>* records,
                   btree::TreeShape* shape) const {
  std::vector<Rid> rids;
  SAE_RETURN_NOT_OK(
      index_->Walk(shape, records != nullptr ? &rids : nullptr));
  if (records == nullptr) return Status::OK();
  records->clear();
  records->reserve(rids.size());
  return heap_.GetMany(rids, [&](size_t, const uint8_t* data) {
    records->push_back(codec_.Deserialize(data));
  });
}

}  // namespace sae::dbms
