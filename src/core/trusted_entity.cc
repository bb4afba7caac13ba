// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the trusted entity (core/trusted_entity.h): XB-tree over
// <id, key, H(record)> tuples answering queries with the 20-byte VT.

#include "core/trusted_entity.h"

#include "util/macros.h"

namespace sae::core {

TrustedEntity::TrustedEntity(const Options& options)
    : options_(options),
      codec_(options.record_size),
      pool_(&store_, options.pool_pages),
      vt_cache_(options.vt_cache) {
  auto tree = xbtree::XbTree::Create(&pool_, options_.xb_options);
  SAE_CHECK(tree.ok());
  xb_ = std::move(tree).ValueOrDie();
}

Status TrustedEntity::LoadDataset(const std::vector<Record>& sorted) {
  vt_cache_.InvalidateAll();
  std::vector<crypto::Digest> digests =
      storage::DigestRecords(sorted, codec_, options_.scheme);
  std::vector<xbtree::XbTuple> tuples;
  tuples.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    tuples.push_back(
        xbtree::XbTuple{sorted[i].key, sorted[i].id, digests[i]});
  }
  return xb_->BulkLoad(tuples);
}

Status TrustedEntity::InsertRecord(const Record& record) {
  vt_cache_.InvalidateAll();
  std::vector<uint8_t> bytes = codec_.Serialize(record);
  crypto::Digest digest =
      crypto::ComputeDigest(bytes.data(), bytes.size(), options_.scheme);
  return xb_->Insert(record.key, record.id, digest);
}

Status TrustedEntity::DeleteRecord(Key key, RecordId id) {
  vt_cache_.InvalidateAll();
  return xb_->Delete(key, id);
}

Result<VerificationToken> TrustedEntity::GenerateVt(Key lo, Key hi) const {
  VerificationToken vt;
  vt.epoch = epoch();
  // The token depends on the range alone: every operator over [lo, hi]
  // shares one entry.
  AnswerKey key;
  key.lo = lo;
  key.hi = hi;
  key.epoch = vt.epoch;
  bool admit = false;
  if (std::optional<crypto::Digest> hit = vt_cache_.Lookup(key, &admit)) {
    vt.digest = *hit;
    return vt;
  }
  SAE_ASSIGN_OR_RETURN(vt.digest, xb_->GenerateVT(lo, hi));
  if (admit) vt_cache_.Insert(key, vt.digest);
  return vt;
}

}  // namespace sae::core
