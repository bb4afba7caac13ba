// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the TOM verification object (mbtree/vo.h): VO construction at
// the SP (boundary records + sibling digests) and the client-side replay
// that rebuilds the signed root digest.

#include "mbtree/vo.h"

#include <utility>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::mbtree {

namespace {

constexpr uint8_t kTokNodeBegin = 0xA0;
constexpr uint8_t kTokNodeEnd = 0xA1;
constexpr uint8_t kTokDigest = 0xA2;
constexpr uint8_t kTokBoundary = 0xA3;
constexpr uint8_t kTokResult = 0xA4;

void SerializeNode(const VoNode& node, ByteWriter* w) {
  w->PutU8(kTokNodeBegin);
  w->PutU8(node.is_leaf ? 1 : 0);
  w->PutU16(uint16_t(node.items.size()));
  for (const VoItem& item : node.items) {
    switch (item.type) {
      case VoItem::Type::kDigest:
        w->PutU8(kTokDigest);
        w->PutBytes(item.digest.bytes.data(), crypto::Digest::kSize);
        break;
      case VoItem::Type::kBoundaryRecord:
        w->PutU8(kTokBoundary);
        w->PutU32(uint32_t(item.record_bytes.size()));
        w->PutBytes(item.record_bytes.data(), item.record_bytes.size());
        break;
      case VoItem::Type::kResultEntry:
        w->PutU8(kTokResult);
        break;
      case VoItem::Type::kChild:
        SerializeNode(*item.child, w);
        break;
    }
  }
  w->PutU8(kTokNodeEnd);
}

// Parses a node whose NodeBegin token has already been consumed.
Status ParseNodeAfterBegin(ByteReader* r, VoNode* out) {
  out->is_leaf = r->GetU8() != 0;
  uint16_t count = r->GetU16();
  out->items.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    if (r->failed()) return Status::Corruption("VO: truncated");
    uint8_t tok = r->GetU8();
    VoItem item;
    switch (tok) {
      case kTokDigest:
        item.type = VoItem::Type::kDigest;
        if (!r->GetBytes(item.digest.bytes.data(), crypto::Digest::kSize)) {
          return Status::Corruption("VO: truncated digest");
        }
        break;
      case kTokBoundary: {
        item.type = VoItem::Type::kBoundaryRecord;
        uint32_t len = r->GetU32();
        if (len > (1u << 20) || r->remaining() < len) {
          return Status::Corruption("VO: bad boundary record length");
        }
        item.record_bytes.resize(len);
        if (!r->GetBytes(item.record_bytes.data(), len)) {
          return Status::Corruption("VO: truncated boundary record");
        }
        break;
      }
      case kTokResult:
        item.type = VoItem::Type::kResultEntry;
        break;
      case kTokNodeBegin: {
        item.type = VoItem::Type::kChild;
        item.child = std::make_unique<VoNode>();
        SAE_RETURN_NOT_OK(ParseNodeAfterBegin(r, item.child.get()));
        break;
      }
      default:
        return Status::Corruption("VO: unknown token");
    }
    out->items.push_back(std::move(item));
  }
  if (r->GetU8() != kTokNodeEnd) {
    return Status::Corruption("VO: expected node end");
  }
  return Status::OK();
}

Result<VoNode> DeserializeNode(ByteReader* r) {
  if (r->GetU8() != kTokNodeBegin) {
    return Status::Corruption("VO: expected node begin");
  }
  VoNode node;
  SAE_RETURN_NOT_OK(ParseNodeAfterBegin(r, &node));
  return node;
}

// --- verification -----------------------------------------------------------

// Flattened view used for the structural (completeness) checks.
enum class FlatKind { kDigest, kBoundary, kResult };

struct FlatToken {
  FlatKind kind;
  bool leaf_level;
  const VoItem* item;
};

void Flatten(const VoNode& node, std::vector<FlatToken>* out) {
  for (const VoItem& item : node.items) {
    switch (item.type) {
      case VoItem::Type::kDigest:
        out->push_back({FlatKind::kDigest, node.is_leaf, &item});
        break;
      case VoItem::Type::kBoundaryRecord:
        out->push_back({FlatKind::kBoundary, node.is_leaf, &item});
        break;
      case VoItem::Type::kResultEntry:
        out->push_back({FlatKind::kResult, node.is_leaf, &item});
        break;
      case VoItem::Type::kChild:
        Flatten(*item.child, out);
        break;
    }
  }
}

// Recomputes the node digest, consuming result-record digests in order.
Status ComputeNodeDigest(const VoNode& node,
                         const std::vector<crypto::Digest>& result_digests,
                         size_t* next_result, crypto::HashScheme scheme,
                         crypto::Digest* out) {
  std::vector<crypto::Digest> digests;
  digests.reserve(node.items.size());
  for (const VoItem& item : node.items) {
    switch (item.type) {
      case VoItem::Type::kDigest:
        digests.push_back(item.digest);
        break;
      case VoItem::Type::kBoundaryRecord:
        if (!node.is_leaf) {
          return Status::VerificationFailure(
              "VO: boundary record above leaf level");
        }
        digests.push_back(crypto::ComputeDigest(item.record_bytes.data(),
                                                item.record_bytes.size(),
                                                scheme));
        break;
      case VoItem::Type::kResultEntry: {
        if (!node.is_leaf) {
          return Status::VerificationFailure(
              "VO: result entry above leaf level");
        }
        if (*next_result >= result_digests.size()) {
          return Status::VerificationFailure(
              "VO: more result slots than records returned");
        }
        digests.push_back(result_digests[(*next_result)++]);
        break;
      }
      case VoItem::Type::kChild: {
        if (node.is_leaf) {
          return Status::VerificationFailure("VO: child under a leaf");
        }
        crypto::Digest child_digest;
        SAE_RETURN_NOT_OK(ComputeNodeDigest(*item.child, result_digests,
                                            next_result, scheme,
                                            &child_digest));
        digests.push_back(child_digest);
        break;
      }
    }
  }
  if (digests.empty()) {
    // Empty tree (e.g. an empty shard of a partitioned deployment): the
    // digest of zero digests, mirroring BPlusTree::NodeDigest, so the VO of
    // an honestly empty result reconstructs the signed empty-root digest.
    // Not a forgery vector: a non-empty signed tree has no node with this
    // digest, so a fabricated empty node still fails the signature check.
    *out = crypto::CombineDigests(nullptr, 0, scheme);
    return Status::OK();
  }
  *out = crypto::CombineDigests(digests.data(), digests.size(), scheme);
  return Status::OK();
}

}  // namespace

VoItem::VoItem(const VoItem& other)
    : type(other.type),
      digest(other.digest),
      record_bytes(other.record_bytes),
      child(other.child ? std::make_unique<VoNode>(*other.child) : nullptr) {}

VoItem& VoItem::operator=(const VoItem& other) {
  if (this != &other) {
    type = other.type;
    digest = other.digest;
    record_bytes = other.record_bytes;
    child = other.child ? std::make_unique<VoNode>(*other.child) : nullptr;
  }
  return *this;
}

std::vector<uint8_t> VerificationObject::Serialize() const {
  ByteWriter w;
  SerializeNode(root, &w);
  w.PutU64(epoch);
  w.PutU16(uint16_t(signature.size()));
  w.PutBytes(signature.data(), signature.size());
  return w.Release();
}

Result<VerificationObject> VerificationObject::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  VerificationObject vo;
  SAE_ASSIGN_OR_RETURN(vo.root, DeserializeNode(&r));
  vo.epoch = r.GetU64();
  uint16_t sig_len = r.GetU16();
  if (r.failed()) return Status::Corruption("VO: truncated epoch/signature");
  vo.signature.resize(sig_len);
  if (!r.GetBytes(vo.signature.data(), sig_len) || r.failed()) {
    return Status::Corruption("VO: truncated signature");
  }
  return vo;
}

Status VerifyVO(const VerificationObject& vo, storage::Key lo,
                storage::Key hi, const std::vector<storage::Record>& results,
                const crypto::RsaPublicKey& owner_key,
                const storage::RecordCodec& codec,
                crypto::HashScheme scheme, uint64_t current_epoch) {
  // 0. Freshness gate, before any cryptographic work: a replayed VO from a
  // pre-update snapshot is internally consistent and would pass every
  // check below against its own (old) signature — only the epoch exposes
  // it. Checked first so staleness is reported distinctly.
  SAE_RETURN_NOT_OK(CheckVoFreshness(vo, current_epoch));

  // 1. Results must be sorted by key and inside [lo, hi].
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].key < lo || results[i].key > hi) {
      return Status::VerificationFailure("result record outside query range");
    }
    if (i > 0 && results[i - 1].key > results[i].key) {
      return Status::VerificationFailure("result records out of key order");
    }
  }

  // 2. Structural completeness over the flattened stream.
  std::vector<FlatToken> flat;
  Flatten(vo.root, &flat);

  long left_boundary = -1, right_boundary = -1;
  long first_result = -1, last_result = -1;
  size_t result_slots = 0;
  size_t boundary_count = 0;
  for (size_t i = 0; i < flat.size(); ++i) {
    switch (flat[i].kind) {
      case FlatKind::kBoundary:
        ++boundary_count;
        if (boundary_count > 2) {
          return Status::VerificationFailure("VO: more than two boundaries");
        }
        if (left_boundary < 0 && first_result < 0) {
          left_boundary = long(i);
        } else {
          right_boundary = long(i);
        }
        break;
      case FlatKind::kResult:
        ++result_slots;
        if (first_result < 0) first_result = long(i);
        last_result = long(i);
        break;
      case FlatKind::kDigest:
        break;
    }
  }
  if (result_slots != results.size()) {
    return Status::VerificationFailure(
        "result cardinality disagrees with VO");
  }
  // A lone boundary with no results is the left one when the range lies
  // above every key and the right one when it lies below every key; only
  // its key tells which. A right boundary protects [start, boundary].
  if (boundary_count == 1 && first_result < 0) {
    const auto& bytes = flat[left_boundary].item->record_bytes;
    if (bytes.size() == codec.record_size() &&
        codec.Deserialize(bytes.data()).key > hi) {
      std::swap(left_boundary, right_boundary);
    }
  }

  // The protected span runs from the left boundary (or the very start when
  // the result begins at the first entry of the tree) to the right boundary
  // (or the very end). No digest token may hide inside it.
  long span_begin = left_boundary >= 0 ? left_boundary : 0;
  long span_end = right_boundary >= 0 ? right_boundary : long(flat.size()) - 1;
  if (right_boundary >= 0 && left_boundary >= 0 &&
      right_boundary < left_boundary) {
    return Status::VerificationFailure("VO: boundaries out of order");
  }
  for (long i = span_begin; i <= span_end && i >= 0; ++i) {
    if (flat[i].kind == FlatKind::kDigest) {
      return Status::VerificationFailure(
          "VO: digest hidden inside the result span");
    }
  }
  if (first_result >= 0 && left_boundary >= 0 && first_result < left_boundary) {
    return Status::VerificationFailure("VO: result before left boundary");
  }
  if (last_result >= 0 && right_boundary >= 0 && last_result > right_boundary) {
    return Status::VerificationFailure("VO: result after right boundary");
  }

  // 3. Boundary key checks (completeness at the range edges).
  if (left_boundary >= 0) {
    const auto& bytes = flat[left_boundary].item->record_bytes;
    if (bytes.size() != codec.record_size()) {
      return Status::VerificationFailure("VO: bad boundary record size");
    }
    storage::Record r = codec.Deserialize(bytes.data());
    if (r.key >= lo) {
      return Status::VerificationFailure(
          "VO: left boundary key not below query range");
    }
  }
  if (right_boundary >= 0) {
    const auto& bytes = flat[right_boundary].item->record_bytes;
    if (bytes.size() != codec.record_size()) {
      return Status::VerificationFailure("VO: bad boundary record size");
    }
    storage::Record r = codec.Deserialize(bytes.data());
    if (r.key <= hi) {
      return Status::VerificationFailure(
          "VO: right boundary key not above query range");
    }
  }

  // 4. Rebuild the root digest and check the owner's signature. The result
  // re-hash dominates large range verifications; batch it through the
  // multi-buffer hash kernels.
  std::vector<crypto::Digest> result_digests =
      storage::DigestRecords(results, codec, scheme);
  size_t next_result = 0;
  crypto::Digest root_digest;
  SAE_RETURN_NOT_OK(ComputeNodeDigest(vo.root, result_digests, &next_result,
                                      scheme, &root_digest));
  if (next_result != result_digests.size()) {
    return Status::VerificationFailure("VO: unconsumed result records");
  }
  // The DO signs the epoch-stamped commitment, never the bare root: the
  // signature authenticates the epoch field checked above.
  return crypto::RsaVerifyDigest(
      owner_key, crypto::EpochStampedDigest(root_digest, vo.epoch, scheme),
      vo.signature);
}

Status CheckVoFreshness(const VerificationObject& vo, uint64_t current_epoch) {
  if (vo.epoch < current_epoch) {
    return Status::StaleEpoch("VO epoch lags the published epoch");
  }
  if (vo.epoch > current_epoch) {
    return Status::VerificationFailure("VO claims a future epoch");
  }
  return Status::OK();
}

}  // namespace sae::mbtree
