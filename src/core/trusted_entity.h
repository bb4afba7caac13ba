// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The trusted entity (TE) of SAE (paper §II-III). Holds, per outsourced
// record, the tuple t = <id, key, H(record)> organized in an XB-Tree, and
// answers verification requests with the 20-byte token
// VT = XOR of the digests of the true result.

#ifndef SAE_CORE_TRUSTED_ENTITY_H_
#define SAE_CORE_TRUSTED_ENTITY_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/answer_cache.h"
#include "core/epoch.h"
#include "crypto/digest.h"
#include "dbms/query.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "util/status.h"
#include "xbtree/xb_tree.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

struct TrustedEntityOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t pool_pages = 1024;
  xbtree::XbTreeOptions xb_options;
  /// Epoch-keyed memo of generated tokens: a repeat of (range, epoch) skips
  /// the two tree traversals. The TE is trusted, so this is purely a perf
  /// knob — but the parity harness still proves hits bit-identical.
  AnswerCacheOptions vt_cache;
};

/// SAE's trusted entity. Owns its (simulated-disk) storage.
class TrustedEntity {
 public:
  using Options = TrustedEntityOptions;

  explicit TrustedEntity(const Options& options = {});

  /// Ingests the initial dataset: computes each record's digest and bulk
  /// loads the XB-Tree. Records must be sorted by key.
  Status LoadDataset(const std::vector<Record>& sorted);

  /// Registers a newly inserted record (DO update path).
  Status InsertRecord(const Record& record);

  /// Unregisters a record. The DO supplies key and id; the digest is found
  /// in (and removed from) the XB-Tree's duplicate chain.
  Status DeleteRecord(Key key, RecordId id);

  /// Produces the verification token for [lo, hi] — two O(log n) tree
  /// traversals, independent of the result size, stamped with the TE's
  /// current epoch. Safe to call from many threads concurrently (writers
  /// are fenced out by the owning system's reader-writer lock).
  Result<VerificationToken> GenerateVt(Key lo, Key hi) const;

  /// Operator-typed convenience: every plan operator is authenticated by
  /// the token over its underlying range — the TE needs no knowledge of
  /// the operator (the client recomputes aggregates from the witness).
  Result<VerificationToken> GenerateVt(const dbms::QueryRequest& request) const {
    return GenerateVt(request.lo, request.hi);
  }

  /// Epoch bookkeeping: the DO publishes a new epoch with every update
  /// shipment (DataOwner bumps, the TE records). Standalone TEs built
  /// without a DataOwner stay at epoch 0 and their tokens carry that.
  void SetEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
    vt_cache_.InvalidateAll();
  }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  const xbtree::XbTree& xb_tree() const { return *xb_; }

  AnswerCacheStats vt_cache_stats() const { return vt_cache_.stats(); }

  /// Snapshot of the pool's global counters; diff two snapshots to measure
  /// the work in between (replaces the racy reset-then-read pattern).
  storage::BufferPool::Stats pool_stats() const { return pool_.stats(); }

  /// Counters for fetches made by the calling thread only — exact per-query
  /// attribution when each query runs on one worker thread.
  storage::BufferPool::Stats pool_thread_stats() const {
    return pool_.ThreadStats();
  }

  /// Total storage footprint (XB-Tree nodes + duplicate pages).
  size_t StorageBytes() const { return xb_->SizeBytes(); }

  const RecordCodec& codec() const { return codec_; }

 private:
  Options options_;
  RecordCodec codec_;
  storage::InMemoryPageStore store_;
  // mutable: const reads fetch pages; the pool locks internally.
  mutable storage::BufferPool pool_;
  std::unique_ptr<xbtree::XbTree> xb_;
  std::atomic<uint64_t> epoch_{0};
  // mutable: const token generation fills the memo; it locks internally.
  mutable EpochCache<std::optional<crypto::Digest>> vt_cache_;
};

}  // namespace sae::core

#endif  // SAE_CORE_TRUSTED_ENTITY_H_
