// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Client-side verification memos: the client caches ITS OWN verification
// work, never the server's claims. Each memo keys an entry by the query
// request and holds the served buffer the client verified (which it
// co-owns) plus the verdict of its pure work. A repeat is recognised when
// the buffer now served is that same immutable object — one pointer
// comparison — or byte-equal to it, so a hit proves the inputs are
// identical to ones the client already processed, and replaying the
// memoized pure computation (the witness XOR under SAE, the VO
// reconstruction + RSA check under TOM) is sound by determinism, not by
// trust. The freshness gates (token/VO epoch vs the published epoch) are
// NOT memoized: they depend on the live published epoch and run on every
// query, so stale replays and epoch forgeries are caught exactly as on the
// uncached path.
//
// This is the client-side leg of the verified-path caching layer (see
// docs/ARCHITECTURE.md §"Caching without trusting the cache"): the SP-side
// answer cache hands out one immutable buffer per answer, and this memo
// turns a repeat of that buffer into a pointer comparison instead of a
// re-hash.
//
// The SAE memo survives epoch bumps: the memoized XOR is a pure function
// of the witness bytes, the byte comparison skips the answer's epoch stamp
// (which the freshness gate checks on every call), and a hit still
// compares the XOR against the LIVE token digest — if the range was
// touched the token digest moved and the comparison fails exactly as a
// fresh re-hash would. The TOM memo expires wholesale on epoch bumps
// (every VO re-signs the epoch-stamped root, so no stale entry can ever
// byte-match again) and drops them eagerly.

#ifndef SAE_CORE_CLIENT_MEMO_H_
#define SAE_CORE_CLIENT_MEMO_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/answer_cache.h"
#include "core/client.h"
#include "core/epoch.h"
#include "core/messages.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "mbtree/vo.h"
#include "storage/record.h"

namespace sae::core {

/// A served answer as the client decoded it, with the client's verdict.
struct VerifiedAnswer {
  QueryAnswerMessage received;
  mbtree::VerificationObject vo;  ///< TOM: decoded from the served VO bytes
  Status verification;
};

/// The table both memos share: request -> the served buffer the client
/// verified and the verdict of its pure work. A lookup hits only when the
/// buffer now served repeats the stored one: the same object, or equal VO
/// bytes and answer bytes equal outside the answer's epoch stamp.
/// Thread-safe; every call takes the lock once.
class ServedAnswerMemo {
 public:
  struct Verdict {
    crypto::Digest xor_digest;  ///< SAE: Client::ResultXor(witness)
    Status status;  ///< SAE: the answer check; TOM: the gate-free verdict
  };

  explicit ServedAnswerMemo(const AnswerCacheOptions& options);

  bool enabled() const { return options_.enabled && options_.max_entries > 0; }

  /// Counts a hit or a miss; on a hit fills `*verdict`. A byte-equal hit
  /// re-points the entry at `served`, so the memo keeps co-owning the
  /// buffer the SP now serves and the next repeat is a pointer comparison.
  bool Lookup(const dbms::QueryRequest& request,
              const std::shared_ptr<const CachedAnswer>& served,
              Verdict* verdict);

  /// Keeps `served` unless `published_epoch`, the epoch it was checked
  /// against, is older than one DropAllIfEpochMoved has already seen: such
  /// an entry could never hit, since its epoch gate now fails first.
  void Insert(const dbms::QueryRequest& request,
              std::shared_ptr<const CachedAnswer> served, Verdict verdict,
              uint64_t published_epoch);

  /// Drops every entry (counted as invalidations) the first time
  /// `published_epoch` exceeds every epoch seen before.
  void DropAllIfEpochMoved(uint64_t published_epoch);

  AnswerCacheStats stats() const;
  size_t size() const;

 private:
  struct RequestKeyHash {
    size_t operator()(const dbms::QueryRequest& r) const;
  };
  struct Slot {
    std::shared_ptr<const CachedAnswer> served;
    Verdict verdict;
    std::list<dbms::QueryRequest>::iterator lru_pos;
  };

  AnswerCacheOptions options_;
  mutable std::mutex mu_;
  std::list<dbms::QueryRequest> lru_;  // front = most recent
  std::unordered_map<dbms::QueryRequest, Slot, RequestKeyHash> map_;
  AnswerCacheStats stats_;
  uint64_t seen_epoch_ = 0;  ///< latest published epoch seen (TOM expiry)
};

/// Memoizes Client::VerifyAnswer's pure work (witness XOR + answer
/// recomputation). Verdicts are bit-identical to the unmemoized call.
class SaeClientMemo {
 public:
  explicit SaeClientMemo(const AnswerCacheOptions& options) : memo_(options) {}

  /// Drop-in replacement for decoding `served` and calling
  /// Client::VerifyAnswer: the freshness gate runs on every call; a repeat
  /// of a token-matched buffer replays the memoized XOR (compared against
  /// the live token digest) and the memoized answer check instead of
  /// re-hashing the witness. Fails only when `served` does not decode; the
  /// verdict is in the returned `verification`.
  Result<VerifiedAnswer> VerifyAnswer(
      const dbms::QueryRequest& request,
      const std::shared_ptr<const CachedAnswer>& served,
      const VerificationToken& vt, uint64_t published_epoch,
      const storage::RecordCodec& codec, crypto::HashScheme scheme);

  /// The Record-typed form (traced replays, tests): encodes (claimed,
  /// witness) once into a served buffer and checks it against the same
  /// entries.
  Status VerifyAnswer(const dbms::QueryRequest& request,
                      const dbms::QueryAnswer& claimed,
                      const std::vector<storage::Record>& witness,
                      const VerificationToken& vt, uint64_t claimed_epoch,
                      uint64_t published_epoch,
                      const storage::RecordCodec& codec,
                      crypto::HashScheme scheme);

  bool enabled() const { return memo_.enabled(); }
  AnswerCacheStats stats() const { return memo_.stats(); }
  size_t size() const { return memo_.size(); }

 private:
  // `served` is (claimed, witness) as encoded at `claimed_epoch`: both
  // public overloads build one from the other.
  Status Verify(const dbms::QueryRequest& request,
                std::shared_ptr<const CachedAnswer> served,
                const dbms::QueryAnswer& claimed,
                const std::vector<storage::Record>& witness,
                const VerificationToken& vt, uint64_t claimed_epoch,
                uint64_t published_epoch, const storage::RecordCodec& codec,
                crypto::HashScheme scheme);

  ServedAnswerMemo memo_;
};

/// Memoizes TomClient::VerifyAnswer's pure work (VO replay, RSA signature
/// check, answer recomputation). Verdicts are bit-identical.
class TomClientMemo {
 public:
  explicit TomClientMemo(const AnswerCacheOptions& options) : memo_(options) {}

  /// Drop-in replacement for decoding `served` (answer shipment and VO
  /// bytes) and calling TomClient::VerifyAnswer. The epoch gate
  /// (mbtree::CheckVoFreshness) runs on every call; only the
  /// epoch-independent remainder is replayed on a repeat. Fails only when
  /// `served` does not decode.
  Result<VerifiedAnswer> VerifyAnswer(
      const dbms::QueryRequest& request,
      const std::shared_ptr<const CachedAnswer>& served,
      const crypto::RsaPublicKey& owner_key, const storage::RecordCodec& codec,
      crypto::HashScheme scheme, uint64_t published_epoch);

  bool enabled() const { return memo_.enabled(); }
  AnswerCacheStats stats() const { return memo_.stats(); }
  size_t size() const { return memo_.size(); }

 private:
  ServedAnswerMemo memo_;
};

}  // namespace sae::core

#endif  // SAE_CORE_CLIENT_MEMO_H_
