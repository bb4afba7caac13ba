// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the service provider (core/service_provider.h): a plain
// dbms::Table answering range queries with no authentication machinery.

#include "core/service_provider.h"

#include <cstring>

#include "core/messages.h"
#include "util/macros.h"

namespace sae::core {

ServiceProvider::ServiceProvider(const Options& options)
    : index_pool_(&index_store_, options.index_pool_pages),
      heap_pool_(&heap_store_, options.heap_pool_pages),
      answer_cache_(options.answer_cache) {
  auto table =
      dbms::Table::Create(&index_pool_, &heap_pool_, options.record_size);
  SAE_CHECK(table.ok());
  table_ = std::move(table).ValueOrDie();
}

Status ServiceProvider::LoadDataset(const std::vector<Record>& sorted) {
  answer_cache_.InvalidateAll();
  return table_->BulkLoad(sorted);
}

Status ServiceProvider::InsertRecord(const Record& record) {
  answer_cache_.InvalidateAll();
  return table_->Insert(record);
}

Status ServiceProvider::DeleteRecord(RecordId id) {
  answer_cache_.InvalidateAll();
  return table_->Delete(id);
}

Result<std::vector<Record>> ServiceProvider::ExecuteRange(Key lo,
                                                          Key hi) const {
  std::vector<Record> out;
  SAE_RETURN_NOT_OK(table_->RangeQuery(lo, hi, &out));
  return out;
}

Result<std::shared_ptr<const CachedAnswer>> ServiceProvider::ServeQuery(
    const dbms::QueryRequest& request) const {
  AnswerCache::Key key = AnswerCache::Key::For(request, epoch());
  if (auto hit = answer_cache_.Lookup(key)) return hit;
  // A miss builds the shipment straight from the heap. The slots already
  // hold canonical record bytes (RecordCodec::Serialize), so each one is
  // copied into its witness slot as it is, and the answer is folded from
  // the key and id read in place: no Record is decoded or re-encoded.
  std::vector<storage::Rid> rids;
  SAE_RETURN_NOT_OK(table_->RangeRids(request.lo, request.hi, &rids));
  const size_t rs = table_->codec().record_size();
  const QueryAnswerLayout layout(
      rs, dbms::AnswerRowCount(request, rids.size()), rids.size());
  std::vector<uint8_t> bytes(layout.size());
  uint8_t* witness = bytes.data() + layout.witness_at();
  dbms::AnswerAccumulator acc(request);
  SAE_RETURN_NOT_OK(
      table_->heap().GetMany(rids, [&](size_t i, const uint8_t* slot) {
        std::memcpy(witness + i * rs, slot, rs);
        acc.Add(RecordCodec::KeyOf(slot), RecordCodec::IdOf(slot));
      }));
  uint8_t* row = bytes.data() + layout.answer_rows_at();
  for (size_t pos : acc.RankedRows()) {
    std::memcpy(row, witness + pos * rs, rs);
    row += rs;
  }
  layout.WriteHeader(acc.summary(), key.epoch, bytes.data());
  auto served =
      std::make_shared<const CachedAnswer>(CachedAnswer{std::move(bytes), {}});
  answer_cache_.Insert(key, served);
  return served;
}

Result<ServiceProvider::PlanResult> ServiceProvider::ExecutePlan(
    const dbms::QueryRequest& request) const {
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       ServeQuery(request));
  SAE_ASSIGN_OR_RETURN(
      QueryAnswerMessage msg,
      DeserializeQueryAnswer(served->answer_msg, table_->codec()));
  return PlanResult{std::move(msg.answer), std::move(msg.witness)};
}

}  // namespace sae::core
