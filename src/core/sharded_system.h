// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The sharded execution tier: N independent SP shards behind one
// range-partitioning ShardRouter, each shard a complete single-shard
// system (its own auth state — XB-tree at the TE under SAE, MB-tree +
// epoch-stamped root signature under TOM — its own reader-writer lock,
// its own epoch counter). Point and range queries route to the owning
// shard(s); a range spanning several shards runs one clipped sub-query
// per shard inline on the calling thread (batch parallelism comes from an
// outer QueryEngine), and the per-shard answers are stitched into a
// composite result. The slices tile the query range by construction (the
// router clips it along the trusted fences), so the composite verdict is
// the fold of the per-shard verdicts:
//
//   1. per-shard cryptographic verification — each slice carries its
//      shard's own VT / VO, checked against that shard's published epoch;
//   2. cross-shard epoch agreement — fresh and stale shards mixed in one
//      answer is a torn snapshot (StatusCode::kShardEpochSkew); uniformly
//      stale is a replay (kStaleEpoch); any record-level corruption is a
//      kVerificationFailure naming the shard.
//
// Updates route to the single owning shard and bump only that shard's
// epoch, so writers on different shards never serialize against each
// other — the write path scales with the shard count
// (bench_ablation_updates' shard axis).

#ifndef SAE_CORE_SHARDED_SYSTEM_H_
#define SAE_CORE_SHARDED_SYSTEM_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/shard_router.h"
#include "core/system.h"

namespace sae::core {

/// Which shard an update landed on and the epoch it published there.
struct ShardUpdate {
  size_t shard = 0;
  uint64_t epoch = 0;
};

/// N-shard wrapper over any single-shard system (SaeSystem, TomSystem).
/// Each shard is a full Base instance; the wrapper owns the router and the
/// id -> key directory that routes deletes. Thread-safe to the same degree
/// as Base: queries and updates may run concurrently from any number of
/// threads, and updates to different shards proceed in parallel (no global
/// writer lock exists).
template <typename Base>
class ShardedSystem {
 public:
  /// Applied to every shard, with the durability directory rebased per
  /// shard (under TOM every shard's DO derives the same key from one fixed
  /// seed).
  using Options = typename Base::Options;

  explicit ShardedSystem(ShardRouter router, const Options& options = {});

  /// Partitions the dataset along the fences and loads every shard (empty
  /// shards load an empty dataset and still publish epoch 1). With
  /// durability enabled, each shard persists under its own subdirectory
  /// `<dir>/shard-<s>` — one WAL + snapshot lineage per shard, matching
  /// the per-shard epoch independence.
  Status Load(const std::vector<Record>& records);

  /// Rebuilds every shard from its `<dir>/shard-<s>` durability directory
  /// (Base::Recover per shard) and reconstructs the id -> key routing
  /// directory from the recovered datasets. Fails if ANY shard cannot
  /// recover — a partially recovered deployment would serve torn
  /// cross-shard answers, which is exactly what kShardEpochSkew exists to
  /// prevent.
  static Result<std::unique_ptr<ShardedSystem<Base>>> Recover(
      ShardRouter router, const Options& options);

  /// One shard's contribution to a composite answer.
  struct Slice {
    size_t shard = 0;
    Key lo = 0;  ///< clipped sub-range this shard answered
    Key hi = 0;
    typename Base::QueryOutcome outcome;  ///< per-shard records + VT/VO +
                                          ///< per-shard verification status
  };

  struct QueryOutcome {
    dbms::QueryRequest request;  ///< the executed plan
    /// Composite answer folded from the per-shard partial answers
    /// (dbms::MergeAnswers): counts/sums add, extrema fold, scan rows
    /// stitch, top-k winners re-rank across shards.
    dbms::QueryAnswer answer;
    /// Stitched witness, key-ascending across slices — byte-identical to
    /// what the unsharded system returns for the same query.
    std::vector<Record> results;
    std::vector<Slice> slices;  ///< ascending by shard; per-shard verdicts
    Status verification;        ///< composite verdict (see header comment)
    QueryCosts costs;           ///< summed across slices
  };

  /// Routes, runs the sub-queries, stitches, folds partial answers and
  /// verdicts. Each shard executes the plan clipped to its slice (same
  /// operator, clipped range) and verifies its own partial answer against
  /// its own proof; an execution error on any shard fails the whole query
  /// (errored Result); verification failures are reported per shard in
  /// `slices` and folded into `verification` with attribution. `tap` is
  /// forwarded to every shard the router picks, with that shard's
  /// sub-request.
  Result<QueryOutcome> ExecuteQuery(const dbms::QueryRequest& request,
                                    QueryTap* tap = nullptr);
  /// Range-scan compatibility wrapper.
  Result<QueryOutcome> ExecuteQuery(Key lo, Key hi, QueryTap* tap = nullptr) {
    return ExecuteQuery(dbms::QueryRequest::Scan(lo, hi), tap);
  }

  /// Aliases kept for symmetry with the unsharded systems' Query().
  Result<QueryOutcome> Query(const dbms::QueryRequest& request) {
    return ExecuteQuery(request);
  }
  Result<QueryOutcome> Query(Key lo, Key hi) { return ExecuteQuery(lo, hi); }

  /// Updates route to the owning shard and bump only its epoch; concurrent
  /// updates to different shards do not serialize against each other.
  Result<ShardUpdate> InsertVersioned(const Record& record);
  Result<ShardUpdate> DeleteVersioned(RecordId id);
  Status Insert(const Record& record) {
    return InsertVersioned(record).status();
  }
  Status Delete(RecordId id) { return DeleteVersioned(id).status(); }

  /// The published per-shard epoch vector — the sharded client's freshness
  /// reference (shipped DO -> client as a SerializeShardEpochs message).
  std::vector<uint64_t> ShardEpochs() const;

  /// Update-pipeline stats summed across shards.
  UpdateStats update_stats() const;

  /// Durability counters summed across shards (averages re-averaged,
  /// chain length maxed). Zeroed struct when durability is off.
  DurabilityStats durability_stats() const;

  /// Drains every shard's checkpoint queue; returns the first failure.
  Status WaitForCheckpoints();

  const ShardRouter& router() const { return router_; }
  size_t num_shards() const { return shards_.size(); }
  Base& shard(size_t s) { return *shards_[s]; }
  const Base& shard(size_t s) const { return *shards_[s]; }

 private:
  ShardRouter router_;
  std::vector<std::unique_ptr<Base>> shards_;

  // Routes deletes (and cross-shard duplicate-id checks) without asking
  // every shard. Guarded by its own mutex; the critical section is a map
  // op, so per-shard update parallelism is preserved.
  mutable std::mutex directory_mu_;
  std::unordered_map<RecordId, Key> directory_;
};

using ShardedSaeSystem = ShardedSystem<SaeSystem>;
using ShardedTomSystem = ShardedSystem<TomSystem>;

}  // namespace sae::core

#endif  // SAE_CORE_SHARDED_SYSTEM_H_
