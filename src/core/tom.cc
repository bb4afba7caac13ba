// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the traditional outsourcing model baseline (core/tom.h):
// MB-tree ADS at the SP, root signatures from the DO, VO-based queries.

#include "core/tom.h"

#include "core/messages.h"
#include "util/macros.h"
#include "util/random.h"

namespace sae::core {

// --- TomDataOwner -------------------------------------------------------------

TomDataOwner::TomDataOwner(const Options& options)
    : options_(options),
      codec_(options.record_size),
      pool_(&store_, options.pool_pages) {
  Rng rng(options_.rsa_seed);
  key_ = crypto::RsaGenerateKey(&rng, options_.rsa_modulus_bits);
  mbtree::MbTreeOptions mb = options_.mb_options;
  mb.scheme = options_.scheme;
  auto tree = mbtree::MbTree::Create(&pool_, mb);
  SAE_CHECK(tree.ok());
  mb_ = std::move(tree).ValueOrDie();
}

Status TomDataOwner::Resign() {
  // Epoch-stamped root signature: binds the signature to the update epoch
  // so replayed pre-update roots are detectable (freshness).
  signature_ = crypto::RsaSignDigest(
      key_,
      crypto::EpochStampedDigest(mb_->root_digest(), epoch_,
                                 options_.scheme));
  return Status::OK();
}

Status TomDataOwner::RestoreEpoch(uint64_t epoch) {
  epoch_ = epoch;
  return Resign();
}

Status TomDataOwner::LoadDataset(const std::vector<Record>& sorted) {
  std::vector<crypto::Digest> digests =
      storage::DigestRecords(sorted, codec_, options_.scheme);
  std::vector<mbtree::MbEntry> entries;
  entries.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    entries.push_back(mbtree::MbEntry{sorted[i].key,
                                      storage::Rid(sorted[i].id),
                                      digests[i]});
    key_of_id_[sorted[i].id] = sorted[i].key;
  }
  SAE_RETURN_NOT_OK(mb_->BulkLoad(entries));
  epoch_ = 1;  // the initial outsourcing is epoch 1
  return Resign();
}

Status TomDataOwner::InsertRecord(const Record& record) {
  if (key_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  mbtree::MbEntry entry{
      record.key, storage::Rid(record.id),
      crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme)};
  SAE_RETURN_NOT_OK(mb_->Insert(entry));
  key_of_id_[record.id] = record.key;
  ++epoch_;
  return Resign();
}

Status TomDataOwner::DeleteRecord(RecordId id) {
  auto it = key_of_id_.find(id);
  if (it == key_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  SAE_RETURN_NOT_OK(mb_->Delete(it->second, storage::Rid(id)));
  key_of_id_.erase(it);
  ++epoch_;
  return Resign();
}

// --- TomServiceProvider ---------------------------------------------------------

TomServiceProvider::TomServiceProvider(const Options& options)
    : options_(options),
      codec_(options.record_size),
      index_pool_(&index_store_, options.index_pool_pages),
      heap_pool_(&heap_store_, options.heap_pool_pages),
      heap_(&heap_pool_, options.record_size),
      answer_cache_(options.answer_cache) {
  mbtree::MbTreeOptions mb = options_.mb_options;
  mb.scheme = options_.scheme;
  auto tree = mbtree::MbTree::Create(&index_pool_, mb);
  SAE_CHECK(tree.ok());
  mb_ = std::move(tree).ValueOrDie();
}

Status TomServiceProvider::LoadDataset(const std::vector<Record>& sorted,
                                       crypto::RsaSignature signature,
                                       uint64_t epoch) {
  std::vector<crypto::Digest> digests =
      storage::DigestRecords(sorted, codec_, options_.scheme);
  std::vector<mbtree::MbEntry> entries;
  entries.reserve(sorted.size());
  std::vector<uint8_t> scratch(codec_.record_size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Record& record = sorted[i];
    if (rid_of_id_.count(record.id) > 0) {
      return Status::InvalidArgument("duplicate record id in dataset");
    }
    codec_.Serialize(record, scratch.data());
    SAE_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Insert(scratch.data()));
    rid_of_id_[record.id] = rid;
    entries.push_back(mbtree::MbEntry{record.key, rid, digests[i]});
  }
  SAE_RETURN_NOT_OK(mb_->BulkLoad(entries));
  signature_ = std::move(signature);
  epoch_ = epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Status TomServiceProvider::ApplyInsert(const Record& record,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  if (rid_of_id_.count(record.id) > 0) {
    return Status::AlreadyExists("record id already present");
  }
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  SAE_ASSIGN_OR_RETURN(storage::Rid rid, heap_.Insert(bytes.data()));
  mbtree::MbEntry entry{
      record.key, rid,
      crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme)};
  Status st = mb_->Insert(entry);
  if (!st.ok()) {
    SAE_CHECK_OK(heap_.Delete(rid));
    return st;
  }
  rid_of_id_[record.id] = rid;
  signature_ = std::move(new_sig);
  epoch_ = new_epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Status TomServiceProvider::ApplyDelete(RecordId id,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  auto it = rid_of_id_.find(id);
  if (it == rid_of_id_.end()) {
    return Status::NotFound("no record with this id");
  }
  storage::Rid rid = it->second;
  std::vector<uint8_t> bytes(codec_.record_size());
  SAE_RETURN_NOT_OK(heap_.Get(rid, bytes.data()));
  Record record = codec_.Deserialize(bytes.data());
  SAE_RETURN_NOT_OK(mb_->Delete(record.key, rid));
  SAE_RETURN_NOT_OK(heap_.Delete(rid));
  rid_of_id_.erase(it);
  signature_ = std::move(new_sig);
  epoch_ = new_epoch;
  answer_cache_.InvalidateAll();
  return Status::OK();
}

Result<std::vector<storage::Rid>> TomServiceProvider::RangeRids(
    Key lo, Key hi) const {
  std::vector<mbtree::MbEntry> postings;
  SAE_RETURN_NOT_OK(mb_->RangeSearch(lo, hi, &postings));
  std::vector<storage::Rid> rids;
  rids.reserve(postings.size());
  for (const auto& posting : postings) rids.push_back(posting.rid);
  return rids;
}

Result<mbtree::VerificationObject> TomServiceProvider::BuildVo(Key lo,
                                                               Key hi) const {
  auto fetch = [this](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    std::vector<uint8_t> bytes(codec_.record_size());
    SAE_RETURN_NOT_OK(heap_.Get(rid, bytes.data()));
    return bytes;
  };
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       mb_->BuildVo(lo, hi, fetch));
  vo.epoch = epoch_;
  vo.signature = signature_;
  return vo;
}

Result<TomServiceProvider::QueryResponse> TomServiceProvider::ExecuteRange(
    Key lo, Key hi) const {
  // Traversal 1: locate and fetch the result records (each dataset page
  // fetched once per contiguous run). Traversal 2: build the VO.
  QueryResponse response;
  SAE_ASSIGN_OR_RETURN(response.results, RangeRecords(lo, hi));
  SAE_ASSIGN_OR_RETURN(response.vo, BuildVo(lo, hi));
  return response;
}

Result<std::vector<Record>> TomServiceProvider::RangeRecords(Key lo,
                                                             Key hi) const {
  SAE_ASSIGN_OR_RETURN(std::vector<storage::Rid> rids, RangeRids(lo, hi));
  std::vector<Record> records;
  records.reserve(rids.size());
  SAE_RETURN_NOT_OK(heap_.GetMany(rids, [&](size_t, const uint8_t* data) {
    records.push_back(codec_.Deserialize(data));
  }));
  return records;
}

Result<std::shared_ptr<const CachedAnswer>> TomServiceProvider::ServeQuery(
    const dbms::QueryRequest& request) const {
  AnswerCache::Key key = AnswerCache::Key::For(request, epoch_);
  if (auto hit = answer_cache_.Lookup(key)) return hit;
  SAE_ASSIGN_OR_RETURN(std::vector<storage::Rid> rids,
                       RangeRids(request.lo, request.hi));
  SAE_ASSIGN_OR_RETURN(std::vector<uint8_t> answer,
                       BuildQueryAnswer(request, rids, heap_, key.epoch));
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       BuildVo(request.lo, request.hi));
  auto served = std::make_shared<const CachedAnswer>(
      CachedAnswer{std::move(answer), vo.Serialize()});
  answer_cache_.Insert(key, served);
  return served;
}

Result<TomServiceProvider::PlanResponse> TomServiceProvider::ExecutePlan(
    const dbms::QueryRequest& request) const {
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       ServeQuery(request));
  SAE_ASSIGN_OR_RETURN(QueryAnswerMessage msg,
                       DeserializeQueryAnswer(served->answer_msg, codec_));
  PlanResponse plan;
  plan.answer = std::move(msg.answer);
  plan.witness = std::move(msg.witness);
  SAE_ASSIGN_OR_RETURN(
      plan.vo, mbtree::VerificationObject::Deserialize(served->proof_msg));
  return plan;
}

// --- TomClient ----------------------------------------------------------------

Status TomClient::Verify(Key lo, Key hi, const std::vector<Record>& results,
                         const mbtree::VerificationObject& vo,
                         const crypto::RsaPublicKey& owner_key,
                         const RecordCodec& codec,
                         crypto::HashScheme scheme, uint64_t current_epoch) {
  return mbtree::VerifyVO(vo, lo, hi, results, owner_key, codec, scheme,
                          current_epoch);
}

Status TomClient::VerifyAnswer(const dbms::QueryRequest& request,
                               const dbms::QueryAnswer& claimed,
                               const std::vector<Record>& witness,
                               const mbtree::VerificationObject& vo,
                               const crypto::RsaPublicKey& owner_key,
                               const RecordCodec& codec,
                               crypto::HashScheme scheme,
                               uint64_t current_epoch) {
  SAE_RETURN_NOT_OK(Verify(request.lo, request.hi, witness, vo, owner_key,
                           codec, scheme, current_epoch));
  return dbms::CheckAnswer(request, witness, claimed);
}

}  // namespace sae::core
