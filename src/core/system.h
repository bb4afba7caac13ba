// Copyright (c) saedb authors. Licensed under the MIT license.
//
// End-to-end harnesses wiring the entities of each outsourcing model with
// byte-metered channels. These are the top-level public API used by the
// examples and the figure benches: load a dataset, run authenticated
// queries over the verified plan layer (range/point scans and
// COUNT/SUM/MIN/MAX/top-k aggregates, dbms::QueryRequest) AND
// epoch-versioned updates — concurrently, from any number of threads —
// and read back per-party costs.
//
// Both systems derive from one UpdatePipeline (core/update_pipeline.h),
// which runs updates, checkpoints and crash recovery and carries the
// public update/durability surface. A system adds only the pipeline's
// model hook — how an update reaches its authentication structure (SAE: the
// TE's XB-tree; TOM: the SP's MB-tree plus a fresh DO root signature),
// what a checkpoint captures, and how a recovered snapshot is proven.
//
// Concurrency discipline (reader-writer + epoch snapshot): each system's
// pipeline owns a std::shared_mutex. ExecuteQuery holds it shared while
// the parties answer (SP execution, TE token / VO, the published epoch), so
// a query observes one frozen epoch end to end, and releases it before the
// client decodes and verifies, which depends only on those values;
// Insert/Delete hold it unique
// (released only around the durable WAL commit), bump the DO's epoch, and
// re-publish the authentication state. Queries and updates may therefore
// interleave freely on the same system — no exclusive-access phase is
// required.

#ifndef SAE_CORE_SYSTEM_H_
#define SAE_CORE_SYSTEM_H_

#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/client.h"
#include "core/client_memo.h"
#include "core/data_owner.h"
#include "core/durability.h"
#include "core/epoch.h"
#include "core/service_provider.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "core/update_pipeline.h"
#include "sim/channel.h"
#include "util/status.h"

namespace sae::core {

/// Per-query measurements shared by both models.
struct QueryCosts {
  uint64_t sp_index_accesses = 0;  ///< index node accesses at the SP
  uint64_t sp_heap_accesses = 0;   ///< dataset-page accesses at the SP
  uint64_t te_accesses = 0;        ///< node accesses at the TE (SAE only)
  size_t auth_bytes = 0;     ///< authentication traffic (VT or VO message)
  size_t result_bytes = 0;   ///< result traffic (excluded from Fig. 5)
  double client_verify_ms = 0.0;  ///< wall-clock client decode + verification
};

/// Component-wise accumulation — per-query costs compose into batch totals.
inline QueryCosts& operator+=(QueryCosts& a, const QueryCosts& b) {
  a.sp_index_accesses += b.sp_index_accesses;
  a.sp_heap_accesses += b.sp_heap_accesses;
  a.te_accesses += b.te_accesses;
  a.auth_bytes += b.auth_bytes;
  a.result_bytes += b.result_bytes;
  a.client_verify_ms += b.client_verify_ms;
  return a;
}

/// An optional per-call seam on ExecuteQuery: it sees the request and the
/// published epoch and may replace the bytes the client receives before
/// they cross the metered channel. Production passes none; the test-side
/// adversaries (src/adversary) are built on it. It runs under the system's
/// reader lock, so it must not call back into the system.
class QueryTap {
 public:
  virtual ~QueryTap() = default;
  /// The SP's served answer (under TOM with its VO in proof_msg).
  virtual Result<std::shared_ptr<const CachedAnswer>> OnAnswer(
      const dbms::QueryRequest& /*request*/, uint64_t /*published*/,
      std::shared_ptr<const CachedAnswer> served) {
    return served;
  }
  /// SAE only: the TE's serialized token.
  virtual Result<std::vector<uint8_t>> OnToken(
      const dbms::QueryRequest& /*request*/, uint64_t /*published*/,
      std::vector<uint8_t> vt_msg) {
    return vt_msg;
  }
};

struct SaeSystemOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t sp_index_pool_pages = 1024;
  size_t sp_heap_pool_pages = 1024;
  size_t te_pool_pages = 1024;
  /// TE tree fanout + hot-level digest cache knobs.
  xbtree::XbTreeOptions xb_options;
  /// SP answer cache and TE token memo (both epoch-keyed, never trusted).
  AnswerCacheOptions sp_answer_cache;
  AnswerCacheOptions te_vt_cache;
  /// Client-side verification memo (the client's own pure work, replayed
  /// on byte-identical responses; freshness gates still run every query).
  AnswerCacheOptions client_memo;
  /// Crash safety: epoch snapshots + WAL (core/durability.h). Off by
  /// default — the simulation harness runs purely in memory.
  DurabilityOptions durability;

  /// The uncached control configuration the parity harness compares
  /// against: every verified-path cache off, everything else identical.
  SaeSystemOptions& DisableCaches() {
    xb_options.hot_cache_levels = 0;
    sp_answer_cache.enabled = false;
    te_vt_cache.enabled = false;
    client_memo.enabled = false;
    return *this;
  }
};

/// Cache counters of one SaeSystem; snapshot by value, diff components to
/// measure a span.
struct SaeCacheStats {
  AnswerCacheStats sp_answer;         ///< SP answer cache (hit = no scan)
  AnswerCacheStats te_vt;             ///< TE token memo (hit = no traversal)
  storage::NodeCacheStats te_digest;  ///< XB-tree hot-level node cache
  AnswerCacheStats client_memo;       ///< client verification memo
};

/// SAE: DO + conventional SP + TE + verifying client.
class SaeSystem : public UpdatePipeline {
 public:
  using Options = SaeSystemOptions;

  explicit SaeSystem(const Options& options = {});

  /// Installs and outsources the dataset (DO -> SP, DO -> TE), publishing
  /// epoch 1. With durability enabled, also opens the WAL and writes the
  /// epoch-1 baseline snapshot before returning.
  Status Load(const std::vector<Record>& records);

  /// Rebuilds a system from its durability directory after a crash (see
  /// UpdatePipeline::RecoverSystem).
  static Result<std::unique_ptr<SaeSystem>> Recover(const Options& options) {
    return RecoverSystem<SaeSystem>(options);
  }

  struct QueryOutcome {
    dbms::QueryRequest request;   ///< the executed plan
    dbms::QueryAnswer answer;     ///< the SP's claimed (possibly tampered)
                                  ///< derived answer, as received
    std::vector<Record> results;  ///< witness records the SP sent (for
                                  ///< scans these ARE the answer rows)
    uint64_t claimed_epoch = 0;   ///< the epoch the SP stamped its answer
    VerificationToken vt;         ///< the TE's epoch-stamped token
    Status verification;          ///< OK iff the client accepted the result
    QueryCosts costs;
  };

  /// Client issues the plan to SP and TE simultaneously and verifies
  /// (ExecuteQuery on the calling thread); for multi-query load build a
  /// core::QueryEngine with worker threads and pass it a batch.
  Result<QueryOutcome> Query(const dbms::QueryRequest& request) {
    return ExecuteQuery(request);
  }
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> Query(Key lo, Key hi) { return ExecuteQuery(lo, hi); }

  /// The thread-safe single-query operation QueryEngine workers invoke:
  /// runs SP execution and TE token generation under a shared (reader)
  /// lock, then client verification unlocked, all on the calling thread,
  /// attributing costs via per-thread pool counters and per-query channel
  /// sessions. Any number of threads may call this concurrently, and
  /// Insert/Delete may interleave with it — writers simply serialize
  /// against in-flight queries through the lock. `tap` (see QueryTap) is
  /// null in production.
  Result<QueryOutcome> ExecuteQuery(const dbms::QueryRequest& request,
                                    QueryTap* tap = nullptr);
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> ExecuteQuery(Key lo, Key hi, QueryTap* tap = nullptr) {
    return ExecuteQuery(dbms::QueryRequest::Scan(lo, hi), tap);
  }

  /// Cache counters across all three verified-path caches.
  SaeCacheStats cache_stats() const {
    return SaeCacheStats{sp_.answer_cache_stats(), te_.vt_cache_stats(),
                         te_.xb_tree().digest_cache_stats(),
                         client_memo_.stats()};
  }

  const Options& options() const { return options_; }
  DataOwner& owner() { return owner_; }
  ServiceProvider& sp() { return sp_; }
  TrustedEntity& te() { return te_; }
  sim::Channel& do_sp_channel() { return do_sp_; }
  sim::Channel& do_te_channel() { return do_te_; }
  sim::Channel& sp_client_channel() { return sp_client_; }
  sim::Channel& te_client_channel() { return te_client_; }
  const RecordCodec& codec() const { return owner_.codec(); }

 private:
  /// Load body shared with Restore (caller holds the unique lock).
  Status LoadLocked(const std::vector<Record>& records);

  // The pipeline's model hook: the DO -> SP/TE update path and the TE's
  // XB-tree.
  uint64_t OwnerEpoch() const override { return owner_.epoch(); }
  bool OwnerHasRecord(RecordId id) const override {
    return owner_.HasRecord(id);
  }
  Status Apply(const WalUpdate& update, Traffic* traffic) override;
  Status Capture(bool with_records, SnapshotState* state) override;
  Status Restore(const SnapshotState& state, uint64_t epoch) override;

  Options options_;
  DataOwner owner_;
  ServiceProvider sp_;
  TrustedEntity te_;
  // mutable: const-shaped query paths feed it; the memo locks internally.
  mutable SaeClientMemo client_memo_;
  sim::Channel do_sp_{"DO->SP"};
  sim::Channel do_te_{"DO->TE"};
  sim::Channel sp_client_{"SP->Client"};
  sim::Channel te_client_{"TE->Client"};
};

struct TomSystemOptions {
  size_t record_size = storage::kDefaultRecordSize;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  size_t rsa_modulus_bits = 1024;
  uint64_t rsa_seed = 0x5AE2009;
  size_t do_pool_pages = 1024;
  size_t sp_index_pool_pages = 1024;
  size_t sp_heap_pool_pages = 1024;
  /// ADS fanout + hot-level digest cache knobs (owner and SP mirrors).
  mbtree::MbTreeOptions mb_options;
  /// SP answer cache (epoch-keyed, never trusted).
  AnswerCacheOptions sp_answer_cache;
  /// Client-side verification memo (the client's own pure work, replayed
  /// on byte-identical responses; the VO epoch gate still runs every
  /// query).
  AnswerCacheOptions client_memo;
  /// Crash safety: epoch snapshots + WAL (core/durability.h). Off by
  /// default.
  DurabilityOptions durability;

  /// The uncached control configuration the parity harness compares
  /// against: every verified-path cache off, everything else identical.
  TomSystemOptions& DisableCaches() {
    mb_options.hot_cache_levels = 0;
    sp_answer_cache.enabled = false;
    client_memo.enabled = false;
    return *this;
  }
};

/// Cache counters of one TomSystem; snapshot by value, diff components to
/// measure a span.
struct TomCacheStats {
  AnswerCacheStats sp_answer;            ///< SP answer + VO cache
  storage::NodeCacheStats sp_digest;     ///< SP MB-tree hot-level cache
  storage::NodeCacheStats owner_digest;  ///< DO's local ADS hot-level cache
  AnswerCacheStats client_memo;          ///< client verification memo
};

/// TOM: ADS-building DO + ADS-mirroring SP + VO-verifying client.
class TomSystem : public UpdatePipeline {
 public:
  using Options = TomSystemOptions;

  explicit TomSystem(const Options& options = {});

  /// With durability enabled, also opens the WAL and writes the epoch-1
  /// baseline snapshot before returning.
  Status Load(const std::vector<Record>& records);

  /// Rebuilds a system from its durability directory after a crash (see
  /// SaeSystem::Recover). Additionally proves the recovered ADS equals the
  /// checkpointed one: the owner re-signs the recovered root at the
  /// snapshot epoch and the signature must byte-match the persisted one.
  static Result<std::unique_ptr<TomSystem>> Recover(const Options& options) {
    return RecoverSystem<TomSystem>(options);
  }

  struct QueryOutcome {
    dbms::QueryRequest request;     ///< the executed plan
    dbms::QueryAnswer answer;       ///< the SP's claimed derived answer
    std::vector<Record> results;    ///< witness records the SP sent
    mbtree::VerificationObject vo;  ///< epoch-stamped, root-signed
    Status verification;
    QueryCosts costs;
  };

  /// ExecuteQuery on the calling thread, like SaeSystem::Query.
  Result<QueryOutcome> Query(const dbms::QueryRequest& request) {
    return ExecuteQuery(request);
  }
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> Query(Key lo, Key hi) { return ExecuteQuery(lo, hi); }

  /// Thread-safe single-query operation (see SaeSystem::ExecuteQuery):
  /// shared lock while the SP answers; interleaves with updates.
  Result<QueryOutcome> ExecuteQuery(const dbms::QueryRequest& request,
                                    QueryTap* tap = nullptr);
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> ExecuteQuery(Key lo, Key hi, QueryTap* tap = nullptr) {
    return ExecuteQuery(dbms::QueryRequest::Scan(lo, hi), tap);
  }

  /// Cache counters across the SP answer cache and both ADS node caches.
  TomCacheStats cache_stats() const {
    return TomCacheStats{sp_.answer_cache_stats(),
                         sp_.ads().digest_cache_stats(),
                         owner_.ads().digest_cache_stats(),
                         client_memo_.stats()};
  }

  const Options& options() const { return options_; }
  TomDataOwner& owner() { return owner_; }
  TomServiceProvider& sp() { return sp_; }
  sim::Channel& do_sp_channel() { return do_sp_; }
  sim::Channel& sp_client_channel() { return sp_client_; }
  const RecordCodec& codec() const { return codec_; }

 private:
  /// Load body shared with Restore; `ship` meters the DO->SP channel
  /// (recovery reads local disk, nothing crosses the network).
  Status LoadLocked(const std::vector<Record>& records, bool ship);

  // The pipeline's model hook: the DO -> SP update path, the MB-tree and
  // its signature.
  uint64_t OwnerEpoch() const override { return owner_.epoch(); }
  bool OwnerHasRecord(RecordId id) const override {
    return owner_.HasRecord(id);
  }
  Status Apply(const WalUpdate& update, Traffic* traffic) override;
  Status Capture(bool with_records, SnapshotState* state) override;
  Status Restore(const SnapshotState& state, uint64_t epoch) override;

  Options options_;
  RecordCodec codec_;
  TomDataOwner owner_;
  TomServiceProvider sp_;
  // mutable: const-shaped query paths feed it; the memo locks internally.
  mutable TomClientMemo client_memo_;
  sim::Channel do_sp_{"DO->SP"};
  sim::Channel sp_client_{"SP->Client"};
};

}  // namespace sae::core

#endif  // SAE_CORE_SYSTEM_H_
