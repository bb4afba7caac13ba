// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements Table (dbms/table.h): heap-file storage plus B+-tree index
// with separate buffer pools, range queries, updates and bulk load.

#include "dbms/table.h"

#include <algorithm>

#include "util/macros.h"

namespace sae::dbms {

Result<std::unique_ptr<Table>> Table::Create(BufferPool* index_pool,
                                             BufferPool* heap_pool,
                                             size_t record_size) {
  auto table = std::unique_ptr<Table>(new Table(heap_pool, record_size));
  SAE_ASSIGN_OR_RETURN(table->index_, btree::BPlusTree::Create(index_pool));
  return table;
}

Status Table::Insert(const Record& record) {
  if (rid_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  SAE_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(bytes.data()));
  Status st = index_->Insert(record.key, rid);
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

Status Table::Update(const Record& record) {
  SAE_RETURN_NOT_OK(Delete(record.id));
  return Insert(record);
}

Result<Record> Table::Get(RecordId id) const {
  auto it = rid_of_id_.find(id);
  if (it == rid_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(heap_.Get(it->second, bytes.data()));
  return codec_.Deserialize(bytes.data());
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
  if (size() != 0) {
    return Status::InvalidArgument("bulk load requires an empty table");
  }
  for (size_t i = 1; i < sorted_by_key.size(); ++i) {
    if (sorted_by_key[i - 1].key > sorted_by_key[i].key) {
      return Status::InvalidArgument("records not sorted by key");
    }
  }
  std::vector<btree::BTreeEntry> postings;
  postings.reserve(sorted_by_key.size());
  std::vector<uint8_t> bytes(codec_.record_size());
  for (const Record& record : sorted_by_key) {
    if (!rid_of_id_.emplace(record.id, 0).second) {
      return Status::InvalidArgument("duplicate record id in dataset");
    }
    codec_.Serialize(record, bytes.data());
    SAE_ASSIGN_OR_RETURN(Rid rid, heap_.Insert(bytes.data()));
    rid_of_id_[record.id] = rid;
    postings.push_back(btree::BTreeEntry{record.key, rid});
  }
  return index_->BulkLoad(postings);
}

}  // namespace sae::dbms
