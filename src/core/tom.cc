// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the traditional outsourcing model baseline (core/tom.h):
// the DO's local MB-tree and root signatures, the SP's VO proof hook over
// its digest-mode table, and the VO-verifying client.

#include "core/tom.h"

#include "core/messages.h"
#include "util/macros.h"
#include "util/random.h"

namespace sae::core {

// --- TomDataOwner -------------------------------------------------------------

namespace {

// Every TOM data owner derives its signing key from this one seed, so the
// shards of a ShardedSystem share one DO key and signatures reproduce.
constexpr uint64_t kOwnerKeySeed = 0x5AE2009;

}  // namespace

TomDataOwner::TomDataOwner(const Options& options)
    : options_(options),
      codec_(options.record_size),
      pool_(&store_, options.pool_pages) {
  Rng rng(kOwnerKeySeed);
  key_ = crypto::RsaGenerateKey(&rng, options_.rsa_modulus_bits);
  auto tree = mbtree::MbTree::Create(&pool_, options_.mb_options,
                                     options_.scheme);
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

Status TomDataOwner::Build(const std::vector<Record>& records,
                           const btree::TreeShape& shape) {
  // The id map is built beside the postings and installed only once the
  // tree is loaded: a refused dataset leaves the owner as it was.
  std::vector<btree::BTreeEntry> postings;
  postings.reserve(records.size());
  std::map<RecordId, Key> key_of_id;
  for (const Record& record : records) {
    if (!key_of_id.emplace(record.id, record.key).second) {
      return Status::InvalidArgument("duplicate record id");
    }
    postings.push_back(btree::BTreeEntry{record.key, storage::Rid(record.id)});
  }
  SAE_RETURN_NOT_OK(mb_->BulkLoad(
      postings, storage::DigestRecords(records, codec_, options_.scheme),
      shape));
  key_of_id_ = std::move(key_of_id);
  return Status::OK();
}

Status TomDataOwner::LoadDataset(const std::vector<Record>& sorted) {
  SAE_RETURN_NOT_OK(Build(sorted, mb_->PlanShape(sorted.size())));
  epoch_ = 1;  // the initial outsourcing is epoch 1
  return Resign();
}

Status TomDataOwner::Restore(const std::vector<Record>& records,
                             const btree::TreeShape& shape, uint64_t epoch) {
  SAE_RETURN_NOT_OK(Build(records, shape));
  return RestoreEpoch(epoch);
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
    : ServiceProvider(
          options,
          [&options](storage::BufferPool* pool)
              -> Result<std::unique_ptr<btree::BPlusTree>> {
            SAE_ASSIGN_OR_RETURN(
                std::unique_ptr<mbtree::MbTree> tree,
                mbtree::MbTree::Create(pool, options.mb_options,
                                       options.scheme));
            return std::unique_ptr<btree::BPlusTree>(std::move(tree));
          }) {}

Status TomServiceProvider::LoadDataset(const std::vector<Record>& sorted,
                                       crypto::RsaSignature signature,
                                       uint64_t epoch) {
  SAE_RETURN_NOT_OK(LoadDataset(sorted));
  SetSignature(std::move(signature), epoch);
  return Status::OK();
}

Status TomServiceProvider::ApplyInsert(const Record& record,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  SAE_RETURN_NOT_OK(InsertRecord(record));
  SetSignature(std::move(new_sig), new_epoch);
  return Status::OK();
}

Status TomServiceProvider::ApplyDelete(RecordId id,
                                       crypto::RsaSignature new_sig,
                                       uint64_t new_epoch) {
  SAE_RETURN_NOT_OK(DeleteRecord(id));
  SetSignature(std::move(new_sig), new_epoch);
  return Status::OK();
}

Result<mbtree::VerificationObject> TomServiceProvider::BuildVo(
    Key lo, Key hi, uint64_t epoch) const {
  const storage::HeapFile& heap = table().heap();
  auto fetch = [&heap](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    std::vector<uint8_t> bytes(heap.record_size());
    SAE_RETURN_NOT_OK(heap.Get(rid, bytes.data()));
    return bytes;
  };
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       ads().BuildVo(lo, hi, fetch));
  vo.epoch = epoch;
  vo.signature = signature_;
  return vo;
}

Result<std::vector<uint8_t>> TomServiceProvider::Prove(
    const dbms::QueryRequest& request, uint64_t epoch) const {
  SAE_ASSIGN_OR_RETURN(mbtree::VerificationObject vo,
                       BuildVo(request.lo, request.hi, epoch));
  return vo.Serialize();
}

Result<TomServiceProvider::QueryResponse> TomServiceProvider::ExecuteRange(
    Key lo, Key hi) const {
  // Traversal 1: locate and fetch the result records (each dataset page
  // fetched once per contiguous run). Traversal 2: build the VO.
  QueryResponse response;
  SAE_ASSIGN_OR_RETURN(response.results,
                       ServiceProvider::ExecuteRange(lo, hi));
  SAE_ASSIGN_OR_RETURN(response.vo, BuildVo(lo, hi, epoch()));
  return response;
}

Result<TomServiceProvider::PlanResponse> TomServiceProvider::ExecutePlan(
    const dbms::QueryRequest& request) const {
  SAE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnswer> served,
                       ServeQuery(request));
  SAE_ASSIGN_OR_RETURN(
      QueryAnswerMessage msg,
      DeserializeQueryAnswer(AnswerBytesOf(served), table().codec()));
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
