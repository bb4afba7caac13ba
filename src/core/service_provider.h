// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The service provider (SP) of SAE (paper §II): a *conventional* DBMS with
// no authentication machinery whatsoever — heap file + plain B+-tree. This
// is the point of the model: "query processing is as fast as in
// conventional database systems". TOM's SP (core/tom.h) is this same class
// with the table's index in digest mode, plus the DO's signature and the VO
// its proof hook ships beside every answer.

#ifndef SAE_CORE_SERVICE_PROVIDER_H_
#define SAE_CORE_SERVICE_PROVIDER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/answer_cache.h"
#include "dbms/query.h"
#include "dbms/table.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace sae::core {

using storage::Key;
using storage::Record;
using storage::RecordId;

struct ServiceProviderOptions {
  size_t record_size = storage::kDefaultRecordSize;
  size_t index_pool_pages = 1024;
  size_t heap_pool_pages = 1024;
  /// Epoch-keyed cache of serialized answers; invalidated wholesale on
  /// every epoch bump. Never trusted — clients verify hits like misses.
  AnswerCacheOptions answer_cache;
};

/// SAE's service provider. Owns its (simulated-disk) storage; index and
/// dataset pages are pooled separately for per-component access accounting.
class ServiceProvider {
 public:
  using Options = ServiceProviderOptions;

  explicit ServiceProvider(const Options& options = {});
  virtual ~ServiceProvider() = default;
  ServiceProvider(const ServiceProvider&) = delete;
  ServiceProvider& operator=(const ServiceProvider&) = delete;

  /// Ingests the initial dataset (sorted by key; stored clustered).
  Status LoadDataset(const std::vector<Record>& sorted);
  /// Ingests a checkpointed table: `records` in index order, the index laid
  /// out as `shape` (dbms::Table::Dump's output).
  Status LoadDataset(const std::vector<Record>& records,
                     const btree::TreeShape& shape);

  Status InsertRecord(const Record& record);
  Status DeleteRecord(RecordId id);

  /// Executes the range query and returns the result records in key order.
  /// Safe to call from many threads concurrently (no concurrent updates).
  Result<std::vector<Record>> ExecuteRange(Key lo, Key hi) const;

  /// An executed query plan: the derived answer plus the witness — the
  /// range record set the client's proof (VT) authenticates and from which
  /// it recomputes the answer.
  struct PlanResult {
    dbms::QueryAnswer answer;
    std::vector<Record> witness;
  };

  /// The SP's unit of output: the serialized answer shipment for
  /// `request` (SerializeQueryAnswer bytes stamped with the SP's epoch),
  /// encoded once. A repeat of (request, epoch) returns the very buffer the
  /// first call produced — no scan, no codec work. A miss looks up the
  /// index postings, builds the shipment from the heap slots with
  /// BuildQueryAnswer (core/messages.h) and shares that buffer with the
  /// answer cache. The bytes equal SerializeQueryAnswer(EvaluateAnswer(
  /// request, witness), witness, epoch) over ExecuteRange's witness.
  /// Callers ship them as they are. Thread-safety matches ExecuteRange.
  Result<std::shared_ptr<const CachedAnswer>> ServeQuery(
      const dbms::QueryRequest& request) const;

  /// Executes any verified-plan operator: the decoded form of ServeQuery
  /// (the underlying range scan, answer derived with the shared rule
  /// dbms::EvaluateAnswer), its records viewing the served buffer in place.
  /// Thread-safety matches ExecuteRange.
  Result<PlanResult> ExecutePlan(const dbms::QueryRequest& request) const;

  const dbms::Table& table() const { return *table_; }

  /// The epoch the SP's data reflects — the DO publishes it with every
  /// update shipment. A conventional SP has no authentication machinery,
  /// but it does stamp its answers with this claimed epoch so clients can
  /// tell "stale snapshot" apart from "corrupt result".
  void SetEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
    answer_cache_.InvalidateAll();
  }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  AnswerCacheStats answer_cache_stats() const { return answer_cache_.stats(); }
  /// The answer cache itself. Its entries are SP-side state the client never
  /// trusts; tests reach them here to stage a poisoned cache.
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

  size_t IndexStorageBytes() const { return table_->IndexSizeBytes(); }
  size_t HeapStorageBytes() const { return table_->HeapSizeBytes(); }
  size_t StorageBytes() const {
    return IndexStorageBytes() + HeapStorageBytes();
  }

 protected:
  /// Makes the table's empty index over the index pool.
  using IndexFactory =
      std::function<Result<std::unique_ptr<btree::BPlusTree>>(
          storage::BufferPool*)>;

  ServiceProvider(const Options& options, const IndexFactory& make_index);

  /// The proof hook: the bytes a cache miss ships beside the answer it
  /// builds (CachedAnswer::proof_msg) for `request` at `epoch`. SAE's
  /// conventional SP proves nothing.
  virtual Result<std::vector<uint8_t>> Prove(
      const dbms::QueryRequest& /*request*/, uint64_t /*epoch*/) const {
    return std::vector<uint8_t>{};
  }

 private:
  storage::InMemoryPageStore index_store_;
  storage::InMemoryPageStore heap_store_;
  // mutable: const reads fetch pages; the pools lock internally.
  mutable storage::BufferPool index_pool_;
  mutable storage::BufferPool heap_pool_;
  std::unique_ptr<dbms::Table> table_;
  std::atomic<uint64_t> epoch_{0};
  // mutable: const queries fill the cache; AnswerCache locks internally.
  mutable AnswerCache answer_cache_;
};

}  // namespace sae::core

#endif  // SAE_CORE_SERVICE_PROVIDER_H_
