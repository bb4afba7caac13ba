// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the service provider (core/service_provider.h): a dbms::Table
// answering range queries; the proof hook is empty for SAE.

#include "core/service_provider.h"

#include "core/messages.h"
#include "util/macros.h"

namespace sae::core {

ServiceProvider::ServiceProvider(const Options& options)
    : ServiceProvider(options, [](storage::BufferPool* pool) {
        return btree::BPlusTree::Create(pool);
      }) {}

ServiceProvider::ServiceProvider(const Options& options,
                                 const IndexFactory& make_index)
    : index_pool_(&index_store_, options.index_pool_pages),
      heap_pool_(&heap_store_, options.heap_pool_pages),
      answer_cache_(options.answer_cache) {
  auto index = make_index(&index_pool_);
  SAE_CHECK(index.ok());
  table_ = dbms::Table::Create(std::move(index).ValueOrDie(), &heap_pool_,
                               options.record_size);
}

Status ServiceProvider::LoadDataset(const std::vector<Record>& sorted) {
  answer_cache_.InvalidateAll();
  return table_->BulkLoad(sorted);
}

Status ServiceProvider::LoadDataset(const std::vector<Record>& records,
                                    const btree::TreeShape& shape) {
  answer_cache_.InvalidateAll();
  return table_->BulkLoad(records, shape);
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
  bool admit = false;
  if (auto hit = answer_cache_.Lookup(key, &admit)) return hit;
  std::vector<storage::Rid> rids;
  SAE_RETURN_NOT_OK(table_->RangeRids(request.lo, request.hi, &rids));
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       BuildQueryAnswer(request, rids, table_->heap(),
                                        key.epoch));
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> proof, Prove(request, key.epoch));
  auto served = std::make_shared<const CachedAnswer>(
      CachedAnswer{std::move(bytes), std::move(proof)});
  // A first miss is not kept: cold traffic would fill the cache with
  // answers that never hit, and `served` is freed once the caller drops it.
  if (admit) answer_cache_.Insert(key, served);
  return served;
}

Result<ServiceProvider::PlanResult> ServiceProvider::ExecutePlan(
    const dbms::QueryRequest& request) const {
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       ServeQuery(request));
  SAE_ASSIGN_OR_RETURN(
      QueryAnswerMessage msg,
      DeserializeQueryAnswer(AnswerBytesOf(served), table_->codec()));
  return PlanResult{std::move(msg.answer), std::move(msg.witness)};
}

}  // namespace sae::core
