// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Third authentication scheme, from the paper's related work ([8] Pang &
// Tan, ICDE'04 and the DSAC/Condensed-RSA line): *signature chaining*. The
// DO signs, per record, a chain hash binding the record to its key-order
// neighbors:
//
//   c_i = H( d_{i-1} || d_i || d_{i+1} ),   d_i = H(record_i),
//
// with fixed sentinel digests beyond the first/last record. A range result
// is proven by (i) the two boundary records, (ii) the digests of their
// outer neighbors, and (iii) ONE Condensed-RSA signature — the modular
// product of the per-record signatures of everything between the outer
// digests. Soundness comes from the signatures; completeness from the
// chaining (no record can be dropped without breaking a signed chain hash).
//
// Trade-off profile vs the paper's two models: tiny-ish VO like SAE, but
// the SP stores a 128-byte signature per record, every update re-signs
// three chain hashes at the DO, and client verification pays big-number
// arithmetic. bench_ablation_schemes quantifies all three side by side.

#ifndef SAE_SIGCHAIN_SIG_CHAIN_H_
#define SAE_SIGCHAIN_SIG_CHAIN_H_

#include <map>
#include <memory>
#include <vector>

#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "btree/bplus_tree.h"
#include "util/codec.h"
#include "util/status.h"

namespace sae::sigchain {

using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

/// Sentinel digests standing in for the neighbors of the first/last record.
crypto::Digest LowSentinel();
crypto::Digest HighSentinel();

/// The chain hash c = H(prev || cur || next) the DO signs per record.
crypto::Digest ChainDigest(const crypto::Digest& prev,
                           const crypto::Digest& cur,
                           const crypto::Digest& next,
                           crypto::HashScheme scheme = crypto::HashScheme::kSha1);

/// Every interior chain hash of a contiguous digest sequence at once:
/// returns out[k-1] = ChainDigest(ds[k-1], ds[k], ds[k+1]) for k in
/// [1, ds.size()-1). Each 60-byte preimage is a window into the sequence
/// itself (Digest is padding-free), so the whole chain is one batched
/// multi-buffer hash call with zero copies. Empty when ds.size() < 3.
std::vector<crypto::Digest> ChainDigests(
    const std::vector<crypto::Digest>& ds,
    crypto::HashScheme scheme = crypto::HashScheme::kSha1);

/// Condensed-RSA: multiplies signatures modulo n so a whole result costs
/// one signature transmission and one exponentiation to verify.
crypto::RsaSignature CondenseSignatures(
    const std::vector<crypto::RsaSignature>& sigs,
    const crypto::RsaPublicKey& key);

/// Verifies a condensed signature over the given chain digests.
Status VerifyCondensed(const crypto::RsaPublicKey& key,
                       const std::vector<crypto::Digest>& chain_digests,
                       const crypto::RsaSignature& condensed);

/// The commitment the DO signs to publish epoch e for the chained dataset:
/// EpochStampedDigest over a fixed domain-separation digest. Per-record
/// chain signatures never change on an epoch bump (re-signing the whole
/// chain per update would be absurd); instead ONE signed epoch token rides
/// in every VO.
///
/// KNOWN LIMITATION (inherent to the scheme, not this implementation):
/// the token authenticates the epoch *number*, not the dataset state —
/// sigchain has no root digest to stamp. It therefore defeats token
/// replay (an old epoch token is rejected as stale), but an SP that
/// attaches the CURRENT token to stale results with their still-valid old
/// chain signatures passes; full freshness would require revoking or
/// re-binding the per-record signatures (the DSAC line's known update
/// weakness, quantified in bench_ablation_schemes). TOM avoids this by
/// signing H(root || epoch); SAE by the trusted TE stamping live state.
crypto::Digest EpochTokenDigest(
    uint64_t epoch, crypto::HashScheme scheme = crypto::HashScheme::kSha1);

/// The verification object of the signature-chaining scheme.
struct SigChainVo {
  /// Boundary records enclosing the result (empty vector = result touches
  /// that end of the table).
  std::vector<uint8_t> left_boundary;
  std::vector<uint8_t> right_boundary;
  /// Digests of the records just *outside* the boundaries (sentinels at the
  /// table edges).
  crypto::Digest outer_left;
  crypto::Digest outer_right;
  /// Condensed signature over every chain hash from the left boundary to
  /// the right boundary inclusive.
  crypto::RsaSignature condensed;
  /// Freshness: the epoch this answer speaks for plus the DO's signature
  /// over EpochTokenDigest(epoch).
  uint64_t epoch = 0;
  crypto::RsaSignature epoch_sig;

  std::vector<uint8_t> Serialize() const;
  static Result<SigChainVo> Deserialize(const std::vector<uint8_t>& bytes);
};

/// DO side: signs the chained dataset and maintains it under updates.
class SigChainOwner {
 public:
  struct Options {
    size_t record_size = storage::kDefaultRecordSize;
    crypto::HashScheme scheme = crypto::HashScheme::kSha1;
    size_t rsa_modulus_bits = 1024;
    uint64_t rsa_seed = 0xD5AC;
  };

  explicit SigChainOwner(const Options& options);

  /// Signs the (key-sorted) dataset; returns per-record signatures in the
  /// same order. Publishes epoch 1 (see epoch()/epoch_signature()).
  Result<std::vector<crypto::RsaSignature>> SignDataset(
      const std::vector<Record>& sorted);

  crypto::RsaPublicKey public_key() const { return key_.PublicKey(); }

  /// Freshness publication: the current epoch and the DO's signature over
  /// its token. AdvanceEpoch models an update's re-publication (one extra
  /// RSA signature per update on top of the three chain re-signs).
  uint64_t epoch() const { return epoch_; }
  const crypto::RsaSignature& epoch_signature() const { return epoch_sig_; }
  uint64_t AdvanceEpoch();

  /// Per-update cost marker: chain re-signing touches the record and both
  /// neighbors, i.e. three signatures per insert/delete (plus the epoch
  /// token).
  static constexpr int kSignaturesPerUpdate = 3;

 private:
  Options options_;
  RecordCodec codec_;
  crypto::RsaPrivateKey key_;
  uint64_t epoch_ = 0;
  crypto::RsaSignature epoch_sig_;
};

/// SP side: conventional table plus a per-record signature store.
class SigChainSp {
 public:
  struct Options {
    size_t record_size = storage::kDefaultRecordSize;
    crypto::HashScheme scheme = crypto::HashScheme::kSha1;
    size_t signature_bytes = 128;  // RSA-1024
    size_t index_pool_pages = 1024;
    size_t heap_pool_pages = 1024;
  };

  explicit SigChainSp(const Options& options);

  /// Ingests the key-sorted dataset plus the DO's signatures (parallel
  /// arrays) and the DO's public key (needed to condense).
  Status LoadDataset(const std::vector<Record>& sorted,
                     const std::vector<crypto::RsaSignature>& signatures,
                     const crypto::RsaPublicKey& owner_key);

  struct QueryResponse {
    std::vector<Record> results;
    SigChainVo vo;
  };

  Result<QueryResponse> ExecuteRange(Key lo, Key hi);

  /// Installs the DO's published epoch + token signature; ExecuteRange
  /// stamps them into every VO. Static set-ups that never call this stay
  /// at epoch 0 with an empty token.
  void SetEpoch(uint64_t epoch, crypto::RsaSignature epoch_sig) {
    epoch_ = epoch;
    epoch_sig_ = std::move(epoch_sig);
  }
  uint64_t epoch() const { return epoch_; }

  size_t StorageBytes() const {
    return table_heap_.SizeBytes() + sig_heap_.SizeBytes() +
           index_->SizeBytes();
  }
  size_t SignatureStorageBytes() const { return sig_heap_.SizeBytes(); }

  storage::BufferPool::Stats index_pool_stats() const {
    return index_pool_.stats();
  }
  storage::BufferPool::Stats heap_pool_stats() const {
    return heap_pool_.stats();
  }
  void ResetStats() {
    index_pool_.ResetStats();
    heap_pool_.ResetStats();
  }

 private:
  // The i-th record of the sorted dataset, fetched by ordinal position.
  Result<Record> RecordAt(size_t ordinal) const;
  Result<crypto::RsaSignature> SignatureAt(size_t ordinal) const;
  Result<crypto::Digest> DigestAt(size_t ordinal) const;

  Options options_;
  RecordCodec codec_;
  storage::InMemoryPageStore index_store_;
  storage::InMemoryPageStore heap_store_;
  storage::BufferPool index_pool_;
  storage::BufferPool heap_pool_;
  storage::HeapFile table_heap_;
  storage::HeapFile sig_heap_;
  std::unique_ptr<btree::BPlusTree> index_;
  // Ordinal position (key order) -> physical locations. The static scheme
  // keeps the sorted order fixed; updates are the scheme's known weak spot.
  std::vector<storage::Rid> record_rids_;
  std::vector<storage::Rid> sig_rids_;
  std::vector<Key> keys_;  // sorted keys for ordinal binary search
  crypto::RsaPublicKey owner_key_;
  uint64_t epoch_ = 0;
  crypto::RsaSignature epoch_sig_;
};

/// Client side verification.
class SigChainClient {
 public:
  /// Verifies `results` for [lo, hi] against the VO and the DO's key.
  /// Freshness first: the VO's epoch must equal `current_epoch` (lagging ->
  /// kStaleEpoch) and its token signature must verify; then the chain and
  /// condensed-signature checks.
  static Status Verify(Key lo, Key hi, const std::vector<Record>& results,
                       const SigChainVo& vo,
                       const crypto::RsaPublicKey& owner_key,
                       const RecordCodec& codec,
                       crypto::HashScheme scheme = crypto::HashScheme::kSha1,
                       uint64_t current_epoch = 0);

  /// Operator-typed verification: the chain/condensed-signature check above
  /// authenticates the *witness* (the full range record set), then the
  /// derived answer is recomputed from it and compared with the SP's claim
  /// (dbms::CheckAnswer) — the same proof-carrying aggregate contract as
  /// SAE's Client::VerifyAnswer and TOM's TomClient::VerifyAnswer. The
  /// scheme's documented freshness limitation is unchanged.
  static Status VerifyAnswer(const dbms::QueryRequest& request,
                             const dbms::QueryAnswer& claimed,
                             const std::vector<Record>& witness,
                             const SigChainVo& vo,
                             const crypto::RsaPublicKey& owner_key,
                             const RecordCodec& codec,
                             crypto::HashScheme scheme = crypto::HashScheme::kSha1,
                             uint64_t current_epoch = 0);

  /// One query of a batch: the request, the SP's claimed answer, and the
  /// witness + VO backing it.
  struct BatchItem {
    dbms::QueryRequest request;
    dbms::QueryAnswer claimed;
    std::vector<Record> witness;
    SigChainVo vo;
  };

  /// Batch verification with amortized big-number work; per-item verdicts
  /// are IDENTICAL to calling VerifyAnswer on each item. Two modexp
  /// amortizations:
  ///
  ///  1. The epoch-token signature is verified once per distinct
  ///     (epoch, token signature) instead of once per item — in the common
  ///     case a whole batch shares one published token.
  ///  2. The condensed-signature checks of all structurally-sound items are
  ///     folded into ONE public-exponent modexp via a randomized linear
  ///     combination (small-exponent batch verification, Bellare-Garay-
  ///     Rabin): with fresh 16-bit exponents r_i drawn from `rng_seed`,
  ///     check (prod sigma_i^{r_i})^e == prod M_i^{r_i} (mod n). A passing
  ///     combined check accepts the whole batch (soundness error <= 2^-16
  ///     per batch, the standard small-exponent bound); a failing one falls
  ///     back to per-item VerifyCondensed so every verdict attributes the
  ///     exact offender — an adversary can therefore never *improve* its
  ///     odds beyond the 2^-16 combination slack, and honest batches cost
  ///     one public-exponent modexp instead of N.
  static std::vector<Status> VerifyBatch(
      const std::vector<BatchItem>& items,
      const crypto::RsaPublicKey& owner_key, const RecordCodec& codec,
      crypto::HashScheme scheme = crypto::HashScheme::kSha1,
      uint64_t current_epoch = 0, uint64_t rng_seed = 0xBA7C4);
};

}  // namespace sae::sigchain

#endif  // SAE_SIGCHAIN_SIG_CHAIN_H_
