// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The traditional outsourcing model (TOM, paper §I and Fig. 1), implemented
// as the experimental baseline: the DO builds and maintains an MB-Tree ADS
// locally and signs its root; the SP is SAE's conventional DBMS with its
// index in digest mode (the same MB-tree) and answers range queries with
// result + VO; the client reconstructs the root digest from the VO and
// checks the DO's signature.

#ifndef SAE_CORE_TOM_H_
#define SAE_CORE_TOM_H_

#include <map>
#include <memory>
#include <vector>

#include "core/service_provider.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "mbtree/mb_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

struct TomDataOwnerOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t rsa_modulus_bits = 1024;
  size_t pool_pages = 1024;
  mbtree::MbTreeOptions mb_options;
};

/// TOM's data owner: maintains a *local* copy of the ADS (the drawback SAE
/// removes) and, after every change, bumps its epoch and signs the
/// epoch-stamped root commitment EpochStampedDigest(root, epoch).
class TomDataOwner {
 public:
  using Options = TomDataOwnerOptions;

  explicit TomDataOwner(const Options& options = {});

  /// Builds the local ADS over the (key-sorted) dataset and signs its root
  /// at epoch 1. A repeated record id is refused (InvalidArgument) before
  /// anything changes.
  Status LoadDataset(const std::vector<Record>& sorted);

  /// Recovery: rebuilds the ADS from a checkpoint — `records` in index
  /// order, laid out as `shape` — and signs its root at the checkpoint's
  /// `epoch`. The caller cross-checks the new signature against the
  /// snapshot's persisted one: equality proves the recovered ADS is the one
  /// that was signed.
  Status Restore(const std::vector<Record>& records,
                 const btree::TreeShape& shape, uint64_t epoch);

  /// Moves the epoch to `epoch` and re-signs the current root under it
  /// (out-of-band re-signing; Restore's last step).
  Status RestoreEpoch(uint64_t epoch);

  Status InsertRecord(const Record& record);
  Status DeleteRecord(RecordId id);

  crypto::RsaPublicKey public_key() const { return key_.PublicKey(); }
  const crypto::RsaSignature& signature() const { return signature_; }

  /// The latest published epoch (1 at load, +1 per update) — the client's
  /// freshness reference. Guarded by the owning system's reader-writer
  /// lock under concurrency.
  uint64_t epoch() const { return epoch_; }

  /// Whether `id` is in the master-copy view — the write-ahead path
  /// pre-validates updates with this before logging them.
  bool HasRecord(RecordId id) const { return key_of_id_.count(id) > 0; }

  /// Local ADS footprint — the DO-side burden TOM imposes.
  size_t AdsStorageBytes() const { return mb_->SizeBytes(); }
  const mbtree::MbTree& ads() const { return *mb_; }

 private:
  /// Loads the ADS over `records` laid out as `shape`; refuses a repeated
  /// id without touching the owner.
  Status Build(const std::vector<Record>& records,
               const btree::TreeShape& shape);
  Status Resign();

  Options options_;
  RecordCodec codec_;
  crypto::RsaPrivateKey key_;
  storage::InMemoryPageStore store_;
  storage::BufferPool pool_;
  std::unique_ptr<mbtree::MbTree> mb_;
  std::map<RecordId, Key> key_of_id_;  // master-copy view for deletions
  crypto::RsaSignature signature_;
  uint64_t epoch_ = 0;
};

/// SAE's SP options plus the ADS: its hash scheme and MB-tree fanouts. The
/// answer cache holds serialized (answer, VO) responses.
struct TomServiceProviderOptions : ServiceProviderOptions {
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  mbtree::MbTreeOptions mb_options;
};

/// TOM's service provider: SAE's conventional SP whose table indexes with
/// the MB-tree, plus the DO's root signature and the VO its proof hook
/// ships beside every freshly built answer. Loads, updates, queries, the
/// answer cache and the pool and storage accounting are the base class's.
class TomServiceProvider : public ServiceProvider {
 public:
  using Options = TomServiceProviderOptions;

  explicit TomServiceProvider(const Options& options = {});

  /// The unsigned loads; a signature arrives with SetSignature.
  using ServiceProvider::LoadDataset;
  /// Ingests the dataset plus the DO's root signature and its epoch.
  Status LoadDataset(const std::vector<Record>& sorted,
                     crypto::RsaSignature signature, uint64_t epoch = 0);

  Status ApplyInsert(const Record& record, crypto::RsaSignature new_sig,
                     uint64_t new_epoch);
  Status ApplyDelete(RecordId id, crypto::RsaSignature new_sig,
                     uint64_t new_epoch);

  /// Installs a fresh root signature + epoch from the DO (e.g. after
  /// out-of-band re-signing); normally they arrive with ApplyInsert/
  /// ApplyDelete.
  void SetSignature(crypto::RsaSignature sig, uint64_t epoch) {
    signature_ = std::move(sig);
    SetEpoch(epoch);
  }

  struct QueryResponse {
    std::vector<Record> results;          // key order
    mbtree::VerificationObject vo;        // epoch-stamped, signed root
  };

  /// Executes the range query and constructs the VO (paper §I). Safe to
  /// call from many threads concurrently (no concurrent updates).
  Result<QueryResponse> ExecuteRange(Key lo, Key hi) const;

  /// An executed query plan: claimed answer, witness records (what the VO
  /// authenticates), and the VO over the underlying range.
  struct PlanResponse {
    dbms::QueryAnswer answer;
    std::vector<Record> witness;
    mbtree::VerificationObject vo;
  };

  /// Executes any verified-plan operator: the decoded form of ServeQuery,
  /// whose served buffer carries the VO bytes in proof_msg (witness and VO
  /// as in ExecuteRange, answer equal to the shared rule
  /// dbms::EvaluateAnswer over the witness). Thread-safety matches
  /// ExecuteRange.
  Result<PlanResponse> ExecutePlan(const dbms::QueryRequest& request) const;

  /// The table's index: the MB-tree mirroring the DO's ADS.
  const mbtree::MbTree& ads() const {
    return static_cast<const mbtree::MbTree&>(table().index());
  }

 private:
  /// The serialized VO for the request's range, stamped with `epoch`.
  Result<std::vector<uint8_t>> Prove(const dbms::QueryRequest& request,
                                     uint64_t epoch) const override;
  /// The epoch-stamped, signed VO for [lo, hi]; boundary records are
  /// fetched from the dataset file.
  Result<mbtree::VerificationObject> BuildVo(Key lo, Key hi,
                                             uint64_t epoch) const;

  crypto::RsaSignature signature_;
};

/// TOM's client-side verifier.
class TomClient {
 public:
  /// Verifies result+VO against the DO's public key (paper §I): freshness
  /// via the epoch gate (kStaleEpoch when the VO lags `current_epoch`),
  /// soundness via the signed epoch-stamped root digest, completeness via
  /// the boundary records.
  static Status Verify(Key lo, Key hi, const std::vector<Record>& results,
                       const mbtree::VerificationObject& vo,
                       const crypto::RsaPublicKey& owner_key,
                       const RecordCodec& codec,
                       crypto::HashScheme scheme = crypto::HashScheme::kSha1,
                       uint64_t current_epoch = 0);

  /// Operator-typed verification: first the full range check above over
  /// the *witness* (freshness, soundness, boundary completeness), then the
  /// derived answer is recomputed from the now-authenticated witness and
  /// compared with the SP's claim (dbms::CheckAnswer) — a wrong aggregate
  /// or truncated top-k fails even when every witness byte is genuine.
  static Status VerifyAnswer(const dbms::QueryRequest& request,
                             const dbms::QueryAnswer& claimed,
                             const std::vector<Record>& witness,
                             const mbtree::VerificationObject& vo,
                             const crypto::RsaPublicKey& owner_key,
                             const RecordCodec& codec,
                             crypto::HashScheme scheme = crypto::HashScheme::kSha1,
                             uint64_t current_epoch = 0);
};

}  // namespace sae::core

#endif  // SAE_CORE_TOM_H_
