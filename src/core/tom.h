// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The traditional outsourcing model (TOM, paper §I and Fig. 1), implemented
// as the experimental baseline: the DO builds and maintains an MB-Tree ADS
// locally and signs its root; the SP mirrors the ADS, answers range queries
// with result + VO; the client reconstructs the root digest from the VO and
// checks the DO's signature.

#ifndef SAE_CORE_TOM_H_
#define SAE_CORE_TOM_H_

#include <map>
#include <memory>
#include <vector>

#include "core/answer_cache.h"
#include "crypto/rsa.h"
#include "dbms/query.h"
#include "mbtree/mb_tree.h"
#include "sim/channel.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
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
  uint64_t rsa_seed = 0x5AE2009;
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
  /// at epoch 1.
  Status LoadDataset(const std::vector<Record>& sorted);

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

  /// Recovery: rewinds the epoch to `epoch` (the snapshot's) after a
  /// fresh LoadDataset of the snapshot records, and re-signs the root
  /// under it. The caller cross-checks the new signature against the
  /// snapshot's persisted one — equality proves the recovered ADS is
  /// byte-identical to the checkpointed state.
  Status RestoreEpoch(uint64_t epoch);

  /// Local ADS footprint — the DO-side burden TOM imposes.
  size_t AdsStorageBytes() const { return mb_->SizeBytes(); }
  const mbtree::MbTree& ads() const { return *mb_; }

 private:
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

struct TomServiceProviderOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t index_pool_pages = 1024;
  size_t heap_pool_pages = 1024;
  mbtree::MbTreeOptions mb_options;
  /// Epoch-keyed cache of serialized (answer, VO) responses; invalidated
  /// wholesale whenever a new signature/epoch is installed. Never trusted —
  /// clients verify hits like misses.
  AnswerCacheOptions answer_cache;
};

/// TOM's service provider: ADS-augmented DBMS answering queries with VOs.
class TomServiceProvider {
 public:
  using Options = TomServiceProviderOptions;

  explicit TomServiceProvider(const Options& options = {});

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
    epoch_ = epoch;
    answer_cache_.InvalidateAll();
  }

  /// The epoch the mirrored ADS reflects.
  uint64_t epoch() const { return epoch_; }

  const RecordCodec& codec() const { return codec_; }

  struct QueryResponse {
    std::vector<Record> results;          // key order
    mbtree::VerificationObject vo;        // epoch-stamped, signed root
  };

  /// Executes the range query and constructs the VO (paper §I). Safe to
  /// call from many threads concurrently (no concurrent updates).
  Result<QueryResponse> ExecuteRange(Key lo, Key hi) const;

  /// The records with lo <= key <= hi in key order, read from the dataset
  /// file without a VO (the checkpoint capture reads the whole table so).
  /// Thread-safety matches ExecuteRange.
  Result<std::vector<Record>> RangeRecords(Key lo, Key hi) const;

  /// An executed query plan: claimed answer, witness records (what the VO
  /// authenticates), and the VO over the underlying range.
  struct PlanResponse {
    dbms::QueryAnswer answer;
    std::vector<Record> witness;
    mbtree::VerificationObject vo;
  };

  /// The SP's unit of output: the serialized answer shipment and VO for
  /// `request`, encoded once. A repeat of (request, epoch) returns the very
  /// buffer the first call produced — no traversal, no codec work. A miss
  /// builds the answer from the heap slots with BuildQueryAnswer
  /// (core/messages.h), exactly as SAE's SP does, adds the serialized VO
  /// and shares that buffer with the answer cache. Callers ship the bytes
  /// as they are. Thread-safety matches ExecuteRange.
  Result<std::shared_ptr<const CachedAnswer>> ServeQuery(
      const dbms::QueryRequest& request) const;

  /// Executes any verified-plan operator: the decoded form of ServeQuery
  /// (witness and VO as in ExecuteRange, answer equal to the shared rule
  /// dbms::EvaluateAnswer over the witness). Thread-safety matches
  /// ExecuteRange.
  Result<PlanResponse> ExecutePlan(const dbms::QueryRequest& request) const;

  const mbtree::MbTree& ads() const { return *mb_; }

  AnswerCacheStats answer_cache_stats() const { return answer_cache_.stats(); }
  /// The answer cache itself (see ServiceProvider::answer_cache).
  AnswerCache& answer_cache() { return answer_cache_; }

  /// Snapshots of the pools' global counters; diff two snapshots to measure
  /// the work in between (replaces the racy reset-then-read pattern).
  storage::BufferPool::Stats index_pool_stats() const {
    return index_pool_.stats();
  }
  storage::BufferPool::Stats heap_pool_stats() const {
    return heap_pool_.stats();
  }

  /// Calling-thread-only counters for exact per-query attribution.
  storage::BufferPool::Stats index_pool_thread_stats() const {
    return index_pool_.ThreadStats();
  }
  storage::BufferPool::Stats heap_pool_thread_stats() const {
    return heap_pool_.ThreadStats();
  }

  size_t IndexStorageBytes() const { return mb_->SizeBytes(); }
  size_t HeapStorageBytes() const { return heap_.SizeBytes(); }
  size_t StorageBytes() const {
    return IndexStorageBytes() + HeapStorageBytes();
  }

 private:
  /// The heap locations of the records with lo <= key <= hi, in key order.
  Result<std::vector<storage::Rid>> RangeRids(Key lo, Key hi) const;
  /// The epoch-stamped, signed VO for [lo, hi]; boundary records are
  /// fetched from the dataset file.
  Result<mbtree::VerificationObject> BuildVo(Key lo, Key hi) const;

  Options options_;
  RecordCodec codec_;
  storage::InMemoryPageStore index_store_;
  storage::InMemoryPageStore heap_store_;
  // The pools lock internally; const reads fetch pages via stored pointers.
  storage::BufferPool index_pool_;
  storage::BufferPool heap_pool_;
  storage::HeapFile heap_;
  std::unique_ptr<mbtree::MbTree> mb_;
  std::map<RecordId, storage::Rid> rid_of_id_;
  crypto::RsaSignature signature_;
  uint64_t epoch_ = 0;
  // mutable: const queries fill the cache; AnswerCache locks internally.
  mutable AnswerCache answer_cache_;
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
