// Copyright (c) saedb authors. Licensed under the MIT license.
//
// SAE client-side verification (paper §II): hash every record the SP
// returned, XOR the digests, and compare with the TE's token. A corrupt
// result (RS - DS) ∪ IS escapes the XOR only when DS⊕ = IS⊕. The XOR of
// unkeyed digests is linear, though: a pair of identical records cancels
// (CheckWitness rejects that), and an SP free to pick more than 160
// distinct records can solve for the token (XHASH, Bellare & Micciancio).

#ifndef SAE_CORE_CLIENT_H_
#define SAE_CORE_CLIENT_H_

#include <vector>

#include "core/epoch.h"
#include "crypto/digest.h"
#include "dbms/query.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::core {

using storage::Record;
using storage::RecordCodec;

/// Stateless verification helpers for SAE clients.
class Client {
 public:
  /// XOR of record digests — the client-side counterpart of the TE's VT.
  static crypto::Digest ResultXor(
      const std::vector<Record>& results, const RecordCodec& codec,
      crypto::HashScheme scheme = crypto::HashScheme::kSha1);

  /// The epoch gates of the full client check, in order:
  ///   1. the TE token must speak for the published epoch (a lagging token
  ///      is a replayed/stale VT -> kStaleEpoch);
  ///   2. the SP's claimed epoch must match the published one (a lagging
  ///      claim means the SP answered from a pre-update snapshot ->
  ///      kStaleEpoch).
  /// Freshness is checked before the XOR so a replay is reported as
  /// staleness, not as generic corruption. An SP that lies about its
  /// claimed epoch simply degrades to the XOR check and is caught by the
  /// fresh token. SaeClientMemo runs these fresh on every query.
  static Status CheckFreshness(const VerificationToken& vt,
                               uint64_t claimed_epoch,
                               uint64_t published_epoch);

  /// The XOR comparison on its own: `computed` (from ResultXor) against
  /// the token digest, with the canonical failure status.
  static Status CompareXor(const crypto::Digest& computed,
                           const crypto::Digest& token_digest);

  /// The witness shape an honest SP ships, checked after the XOR match:
  /// every key lies in [request.lo, request.hi], keys never decrease, and
  /// no id repeats. It rejects a witness padded with a pair of identical
  /// records, which the XOR cannot see. (key, id) need not ascend: the
  /// B+-tree places an inserted key after the equal ones already there.
  static Status CheckWitness(const dbms::QueryRequest& request,
                             const std::vector<Record>& witness);

  /// The operator-typed client check: the epoch gates (CheckFreshness),
  /// the XOR match and CheckWitness run over the *witness* (the range
  /// record set the TE's token speaks for), and once the witness is
  /// authenticated the derived answer is recomputed from it and compared
  /// field-for-field with the SP's claim (dbms::CheckAnswer). A tampered
  /// COUNT/SUM/MIN/MAX or truncated top-k is a kVerificationFailure even
  /// though the witness verifies.
  static Status VerifyAnswer(
      const dbms::QueryRequest& request, const dbms::QueryAnswer& claimed,
      const std::vector<Record>& witness, const VerificationToken& vt,
      uint64_t claimed_epoch, uint64_t published_epoch,
      const RecordCodec& codec,
      crypto::HashScheme scheme = crypto::HashScheme::kSha1);
};

}  // namespace sae::core

#endif  // SAE_CORE_CLIENT_H_
