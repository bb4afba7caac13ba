// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The TOM verification object (VO).
//
// Paper §I: for a range result {r_i..r_j} the VO contains (i) the boundary
// records r_{i-1}, r_{j+1}, (ii) digests of the left siblings on the path to
// r_{i-1}, (iii) digests of the right siblings on the path to r_{j+1}, and
// (iv) the DO's signature. We represent the VO as a depth-first encoding of
// the minimal subtree covering the result span: sibling entries appear as
// bare digests, covered leaf entries as result placeholders (the client
// hashes the records the SP returned), and boundary entries carry the full
// record bytes. The client replays the encoding to rebuild the root digest
// and checks it against the signature.

#ifndef SAE_MBTREE_VO_H_
#define SAE_MBTREE_VO_H_

#include <memory>
#include <vector>

#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::mbtree {

/// One entry of a VO node. Deep-copyable (the child subtree is cloned) so
/// VerificationObject behaves as a regular value type.
struct VoItem {
  enum class Type : uint8_t {
    kDigest = 0,          ///< sibling entry: pre-computed digest
    kBoundaryRecord = 1,  ///< boundary record: full record bytes
    kResultEntry = 2,     ///< covered entry: digest comes from SP's results
    kChild = 3,           ///< covered subtree: recursive node
  };

  VoItem() = default;
  VoItem(VoItem&&) = default;
  VoItem& operator=(VoItem&&) = default;
  VoItem(const VoItem& other);
  VoItem& operator=(const VoItem& other);

  Type type = Type::kDigest;
  crypto::Digest digest;              // kDigest
  std::vector<uint8_t> record_bytes;  // kBoundaryRecord
  std::unique_ptr<struct VoNode> child;  // kChild
};

/// A node of the VO's covering subtree.
struct VoNode {
  bool is_leaf = true;
  std::vector<VoItem> items;
};

/// Complete verification object as shipped SP -> client. The signature is
/// the DO's RSA signature over the *epoch-stamped* root commitment
/// crypto::EpochStampedDigest(root_digest, epoch), so the epoch field is
/// authenticated: forging a fresher epoch breaks the signature, and a
/// replayed old VO carries its old epoch.
struct VerificationObject {
  VoNode root;
  uint64_t epoch = 0;
  crypto::RsaSignature signature;

  /// Wire encoding; its size is the Fig. 5 "SP-Client (TOM)" series.
  std::vector<uint8_t> Serialize() const;

  static Result<VerificationObject> Deserialize(
      const std::vector<uint8_t>& bytes);
};

/// Client-side verification (paper §I): first the freshness gate — the
/// VO's epoch must equal `current_epoch`, the latest one the DO published
/// (a lagging epoch is a replayed pre-update snapshot -> kStaleEpoch; a
/// future one is a forgery -> kVerificationFailure) — then reconstructs the
/// MB-tree root digest from `results` + the VO, checks the signature over
/// the epoch-stamped root commitment, and enforces the soundness/
/// completeness structure (boundary keys enclose [lo, hi]; no hidden
/// digests inside the result span; results sorted and in range).
///
/// \param results records the SP returned, in key order
/// \param current_epoch the latest published epoch (0 for static set-ups
///        that never advance it)
/// \returns OK when the result is proven correct and fresh.
Status VerifyVO(const VerificationObject& vo, storage::Key lo,
                storage::Key hi, const std::vector<storage::Record>& results,
                const crypto::RsaPublicKey& owner_key,
                const storage::RecordCodec& codec,
                crypto::HashScheme scheme = crypto::HashScheme::kSha1,
                uint64_t current_epoch = 0);

/// VerifyVO's freshness gate on its own: the VO's epoch against the latest
/// published one. Everything else VerifyVO checks is a pure function of
/// (vo, lo, hi, results) — which is what lets core::TomClientMemo memoize
/// it — while this gate must run fresh on every query.
Status CheckVoFreshness(const VerificationObject& vo, uint64_t current_epoch);

}  // namespace sae::mbtree

#endif  // SAE_MBTREE_VO_H_
