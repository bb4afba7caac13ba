// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Multi-threaded batched query engine over the thread-safe read path. The
// paper argues SAE lets the SP run "as fast as in conventional database
// systems"; a conventional DBMS serves many clients at once, so this engine
// accepts a batch of [lo, hi] range queries, fans them out across a
// worker-thread pool against the shared SP + TE, verifies each result on
// the worker that produced it, and reports per-query outcomes plus
// aggregated costs and throughput.
//
// Per-query cost attribution under concurrency uses the buffer pools'
// per-thread counters (BufferPool::ThreadStats) and per-query channel
// sessions (sim::Channel::Session): each query runs entirely on one worker
// thread, so its deltas are exact and the aggregated batch costs equal the
// sum of the per-query costs.

#ifndef SAE_CORE_QUERY_ENGINE_H_
#define SAE_CORE_QUERY_ENGINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/system.h"
#include "sim/cost_model.h"

namespace sae::core {

/// One query of a batch — any verified-plan operator, optionally with a
/// QueryTap (null in production). The (lo, hi) constructor keeps the
/// historical range-scan call sites compiling unchanged.
struct BatchQuery {
  dbms::QueryRequest request;
  QueryTap* tap = nullptr;

  BatchQuery() = default;
  BatchQuery(Key lo, Key hi, QueryTap* tap = nullptr)
      : request(dbms::QueryRequest::Scan(lo, hi)), tap(tap) {}
  BatchQuery(const dbms::QueryRequest& request, QueryTap* tap = nullptr)
      : request(request), tap(tap) {}
};

/// One operation of a mixed read/write batch: a query or an insert.
/// Updates ride the systems' writer lock, so a mixed batch
/// exercises genuine reader/writer interleaving on the shared system.
struct BatchOp {
  enum class Kind { kQuery, kInsert };

  Kind kind = Kind::kQuery;
  BatchQuery query;     // kQuery
  Record record;        // kInsert

  static BatchOp MakeQuery(Key lo, Key hi, QueryTap* tap = nullptr) {
    BatchOp op;
    op.kind = Kind::kQuery;
    op.query = BatchQuery{lo, hi, tap};
    return op;
  }
  static BatchOp MakeQuery(const dbms::QueryRequest& request,
                           QueryTap* tap = nullptr) {
    BatchOp op;
    op.kind = Kind::kQuery;
    op.query = BatchQuery{request, tap};
    return op;
  }
  static BatchOp MakeInsert(Record record) {
    BatchOp op;
    op.kind = Kind::kInsert;
    op.record = std::move(record);
    return op;
  }
};

/// Aggregate measurements over one batch run.
struct BatchStats {
  size_t queries = 0;    ///< batch size
  size_t accepted = 0;   ///< outcomes the client verified successfully
  size_t rejected = 0;   ///< outcomes the client rejected
  size_t failed = 0;     ///< queries that errored before verification
  QueryCosts total;      ///< sum of the per-query costs
  double wall_ms = 0.0;  ///< wall-clock time for the whole batch

  double QueriesPerSecond() const {
    return wall_ms > 0.0 ? double(queries) * 1000.0 / wall_ms : 0.0;
  }
};

/// Aggregate measurements over one mixed read/write batch run.
struct MixedStats {
  size_t queries = 0;
  size_t updates = 0;
  size_t accepted = 0;        ///< queries the client verified successfully
  size_t rejected = 0;        ///< queries the client rejected
  size_t failed = 0;          ///< queries that errored before verification
  size_t update_failures = 0; ///< updates rejected (duplicate id, ...)
  QueryCosts query_total;     ///< summed costs of the query ops
  double update_latency_ms = 0.0;      ///< summed per-update wall time
  double max_update_latency_ms = 0.0;  ///< worst single update
  double wall_ms = 0.0;

  double QueriesPerSecond() const {
    return wall_ms > 0.0 ? double(queries) * 1000.0 / wall_ms : 0.0;
  }
  double MeanUpdateLatencyMs() const {
    return updates > 0 ? update_latency_ms / double(updates) : 0.0;
  }
};

struct QueryEngineOptions {
  /// Worker threads owned by the engine. 0 = run batches inline on the
  /// calling thread (no threads are spawned).
  size_t worker_threads = 0;
};

/// Fans batches of range queries out across a worker pool. The engine is
/// reusable across batches and systems, but Run() itself is not re-entrant:
/// issue one batch at a time per engine. The systems' shared-mutex
/// discipline makes queries and updates safely interleavable, so a batch
/// may run while other threads mutate the system — and RunMixed schedules
/// queries and updates through the same worker pool deliberately.
class QueryEngine {
 public:
  using Options = QueryEngineOptions;

  explicit QueryEngine(const Options& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Batch result over any system type exposing
  /// ExecuteQuery(request, tap) -> Result<QueryOutcome> with the
  /// QueryOutcome carrying `verification` and `costs` members — the
  /// unsharded SaeSystem/TomSystem and their sharded counterparts alike.
  template <typename System>
  struct Batch {
    /// One outcome per input query, in input order.
    std::vector<Result<typename System::QueryOutcome>> outcomes;
    BatchStats stats;
  };
  using SaeBatch = Batch<SaeSystem>;
  using TomBatch = Batch<TomSystem>;

  /// Runs the batch to completion against the shared system (unsharded or
  /// sharded alike).
  template <typename System>
  Batch<System> Run(System* system, const std::vector<BatchQuery>& queries);

  /// Runs a mixed read/write batch: workers claim ops in order, queries
  /// take the system's reader lock and updates its writer lock, so the
  /// schedule interleaves genuinely. Returns aggregate stats (q/s and
  /// per-update latency — what bench_ablation_updates reports).
  template <typename System>
  MixedStats RunMixed(System* system, const std::vector<BatchOp>& ops);

 private:
  /// Executes task(0) .. task(count - 1) across the pool (inline when the
  /// engine owns no workers) and returns when all have completed.
  void Dispatch(size_t count, const std::function<void(size_t)>& task);
  void WorkerLoop();

  std::vector<std::thread> workers_;

  // Job state, guarded by mu_. Workers claim indices under the lock and run
  // tasks outside it; generation_ distinguishes successive batches.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_size_ = 0;
  size_t job_next_ = 0;
  size_t job_done_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

// --- template definitions ---------------------------------------------------

template <typename System>
QueryEngine::Batch<System> QueryEngine::Run(
    System* system, const std::vector<BatchQuery>& queries) {
  using Outcome = typename System::QueryOutcome;
  Batch<System> batch;
  batch.stats.queries = queries.size();

  // Workers fill disjoint slots; Result<> has no default constructor, so
  // the slots are optionals that are move-unwrapped after the barrier.
  std::vector<std::optional<Result<Outcome>>> slots(queries.size());
  std::function<void(size_t)> task = [&](size_t i) {
    const BatchQuery& q = queries[i];
    slots[i].emplace(system->ExecuteQuery(q.request, q.tap));
  };

  sim::Stopwatch watch;
  Dispatch(queries.size(), task);
  batch.stats.wall_ms = watch.ElapsedMs();

  batch.outcomes.reserve(slots.size());
  for (std::optional<Result<Outcome>>& slot : slots) {
    Result<Outcome>& result = *slot;
    if (result.ok()) {
      const Outcome& outcome = result.value();
      if (outcome.verification.ok()) {
        ++batch.stats.accepted;
      } else {
        ++batch.stats.rejected;
      }
      batch.stats.total += outcome.costs;
    } else {
      ++batch.stats.failed;
    }
    batch.outcomes.push_back(std::move(result));
  }
  return batch;
}

template <typename System>
MixedStats QueryEngine::RunMixed(System* system,
                                 const std::vector<BatchOp>& ops) {
  MixedStats stats;

  // Per-op slots filled by disjoint workers, reduced after the barrier.
  struct OpResult {
    bool is_query = false;
    bool ok = false;        // op-level success
    bool accepted = false;  // query verification verdict
    QueryCosts costs;
    double update_ms = 0.0;
  };
  std::vector<OpResult> slots(ops.size());
  std::function<void(size_t)> task = [&](size_t i) {
    const BatchOp& op = ops[i];
    OpResult& slot = slots[i];
    switch (op.kind) {
      case BatchOp::Kind::kQuery: {
        slot.is_query = true;
        auto outcome = system->ExecuteQuery(op.query.request, op.query.tap);
        if (outcome.ok()) {
          slot.ok = true;
          slot.accepted = outcome.value().verification.ok();
          slot.costs = outcome.value().costs;
        }
        break;
      }
      case BatchOp::Kind::kInsert: {
        sim::Stopwatch watch;
        slot.ok = system->Insert(op.record).ok();
        slot.update_ms = watch.ElapsedMs();
        break;
      }
    }
  };

  sim::Stopwatch watch;
  Dispatch(ops.size(), task);
  stats.wall_ms = watch.ElapsedMs();

  for (const OpResult& slot : slots) {
    if (slot.is_query) {
      ++stats.queries;
      if (!slot.ok) {
        ++stats.failed;
      } else if (slot.accepted) {
        ++stats.accepted;
      } else {
        ++stats.rejected;
      }
      stats.query_total += slot.costs;
    } else {
      ++stats.updates;
      if (!slot.ok) ++stats.update_failures;
      stats.update_latency_ms += slot.update_ms;
      stats.max_update_latency_ms =
          std::max(stats.max_update_latency_ms, slot.update_ms);
    }
  }
  return stats;
}

}  // namespace sae::core

#endif  // SAE_CORE_QUERY_ENGINE_H_
