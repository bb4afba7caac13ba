// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Query throughput under multi-client load: queries/sec for SAE vs TOM as
// the QueryEngine's worker-thread count grows, over the UNF workload. This
// is the paper's headline claim under concurrency — the SP executes "as
// fast as in conventional database systems", so a batch of independent
// range queries should scale with workers while every result still
// verifies. The single-thread mean response time (wall-clock per query,
// engine overhead included) is printed alongside for reference.
//
// Unlike the figure benches this measures real wall time, not the 10 ms
// node-access model: it is the concurrency of the read path (buffer pools,
// trees, verification) that is under test, not simulated disk latency.

#include <chrono>
#include <string>
#include <thread>

#include "core/query_engine.h"
#include "core/sharded_system.h"
#include "crypto/backend.h"
#include "fig_common.h"
#include "workload/queries.h"

using namespace sae;
using namespace sae::bench;

namespace {

constexpr size_t kBatchReps = 4;  // the 100-query workload, repeated

std::vector<core::BatchQuery> MakeEngineBatch() {
  std::vector<core::BatchQuery> batch;
  auto queries = MakeQueries();
  batch.reserve(queries.size() * kBatchReps);
  for (size_t rep = 0; rep < kBatchReps; ++rep) {
    for (const auto& q : queries) {
      batch.push_back(core::BatchQuery{q.lo, q.hi});
    }
  }
  return batch;
}

// One sweep point times at least this much wall clock: a single batch
// (400 queries, ~70 ms at four workers on a 4-core host) is too short to
// time, and its q/s swung by more than 3x between runs.
constexpr double kMinTimedMs = 1000.0;

// Runs `run_batch` (one engine batch of `batch_size` queries, every answer
// verified) once to warm the pools and the workers' thread-local counters,
// then repeatedly until kMinTimedMs of batch wall time has passed. Returns
// the summed stats; `total` is the first timed batch's.
template <typename RunBatch>
core::BatchStats TimeBatches(size_t batch_size, RunBatch run_batch) {
  SAE_CHECK(run_batch().stats.accepted == batch_size);
  core::BatchStats sum;
  do {
    core::BatchStats one = run_batch().stats;
    SAE_CHECK(one.accepted == batch_size);
    if (sum.queries == 0) sum.total = one.total;
    sum.queries += one.queries;
    sum.accepted += one.accepted;
    sum.wall_ms += one.wall_ms;
  } while (sum.wall_ms < kMinTimedMs);
  return sum;
}

// The sweeps below time batches that repeat their warm-up batch, so they
// run on systems built with every verified-path cache off (DisableCaches):
// with caches on, the timed runs would measure cache hits, not serving.
template <typename System>
void RunSweep(const char* model, System* system,
              const std::vector<core::BatchQuery>& batch) {
  double single_thread_qps = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    core::QueryEngine engine(core::QueryEngineOptions{threads});
    core::BatchStats run = TimeBatches(
        batch.size(), [&] { return engine.Run(system, batch); });
    double qps = run.QueriesPerSecond();
    if (threads == 1) single_thread_qps = qps;
    std::printf("%6s %8zu %10.0f %9.2fx %13.3f\n", model, threads, qps,
                qps / single_thread_qps, run.wall_ms / double(run.queries));
    std::fflush(stdout);
  }
}

// Shard-count axis: the same batch against a sharded SAE deployment as the
// shard count sweeps (engine workers fixed at 4). Shards multiply
// independent buffer pools and locks, so cross-shard batches spread over
// them; single-shard queries pay no sharding tax, and multi-shard queries
// pay one slice per crossed fence (visible as slightly higher node-access
// totals, printed for reference).
void RunShardSweep(const std::vector<storage::Record>& dataset,
                   const std::vector<core::BatchQuery>& batch) {
  std::printf("\n# Sharded SAE: q/s vs shard count (engine workers = 4)\n");
  std::printf("# shards        q/s   mean-resp(ms)   node-accesses\n");
  for (size_t shards : ShardCounts()) {
    core::ShardedSaeSystem::Options options;
    options.record_size = kRecordSize;
    options.DisableCaches();
    core::ShardedSaeSystem system(
        core::ShardRouter::Balanced(dataset, shards), options);
    SAE_CHECK_OK(system.Load(dataset));
    core::QueryEngine engine(core::QueryEngineOptions{4});
    core::BatchStats run = TimeBatches(
        batch.size(), [&] { return engine.Run(&system, batch); });
    std::printf("%8zu %10.0f %15.3f %15llu\n", system.num_shards(),
                run.QueriesPerSecond(), run.wall_ms / double(run.queries),
                (unsigned long long)(run.total.sp_index_accesses +
                                     run.total.sp_heap_accesses +
                                     run.total.te_accesses));
    std::fflush(stdout);
  }
}

// Operator-class axis: q/s per verified-plan operator over SAE and TOM
// (engine workers fixed at 4, the sweeps' uncached systems, each row timed
// over >= kMinTimedMs like the sweeps). Every operator executes the same
// underlying range scan and ships the same witness; the per-class deltas are the
// derived-answer work (top-k ranking, aggregate recomputation at the
// client) and, for point queries, the tiny witness. All answers verify.
template <typename System>
void RunOperatorSweep(const char* model, System* system) {
  using sae::dbms::QueryOp;
  for (QueryOp op :
       {QueryOp::kScan, QueryOp::kPoint, QueryOp::kCount, QueryOp::kSum,
        QueryOp::kMin, QueryOp::kMax, QueryOp::kTopK}) {
    workload::OperatorMixSpec spec;
    spec.count = kQueriesPerPoint * kBatchReps;
    spec.domain_max = kDomainMax;
    spec.mix = {{op, 1.0}};
    spec.topk_limit = 10;
    std::vector<core::BatchQuery> batch;
    for (const auto& request : workload::GenerateOperatorMix(spec)) {
      batch.push_back(core::BatchQuery{request});
    }
    core::QueryEngine engine(core::QueryEngineOptions{4});
    core::BatchStats run = TimeBatches(
        batch.size(), [&] { return engine.Run(system, batch); });
    std::printf("%6s %8s %10.0f %15.3f %15zu\n", model,
                sae::dbms::QueryOpName(op), run.QueriesPerSecond(),
                run.wall_ms / double(run.queries),
                size_t(run.total.result_bytes / batch.size()));
    std::fflush(stdout);
  }
}

// --- cached vs uncached: 95/5 read-heavy mixed workload ----------------------
//
// The verified-path caches (hot-level node memos, epoch-keyed answer
// caches) target exactly this shape: a hot set of repeated verified
// queries with occasional updates bumping the epoch. Both systems replay
// the identical schedule; the uncached control must reach the identical
// per-query verdicts and result counts — that is the cache-parity gate CI
// enforces (a disagreement exits nonzero).

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct MixedRun {
  double wall_ms = 0;               // full schedule, inserts included
  uint64_t queries = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  double per_op_ms[7] = {};         // query-only time per operator class
  uint64_t per_op_queries[7] = {};
  std::vector<int> codes;           // per-query verification code
  std::vector<size_t> result_counts;

  double Qps() const { return queries / (wall_ms / 1000.0); }
};

std::vector<dbms::QueryRequest> HotRequests() {
  using dbms::QueryRequest;
  // One narrow range per operator class (0.05% of the domain), fixed seed:
  // the hot set a read-heavy client hammers between updates.
  Rng rng(0xCA11ED);
  constexpr uint32_t kExtent = kDomainMax / 2000;
  auto lo = [&rng] { return uint32_t(rng.NextBounded(kDomainMax - kExtent)); };
  uint32_t a = lo();
  std::vector<dbms::QueryRequest> pool;
  pool.push_back(QueryRequest::Scan(a, a + kExtent));
  pool.push_back(QueryRequest::Point(lo()));
  a = lo();
  pool.push_back(QueryRequest::Count(a, a + kExtent));
  a = lo();
  pool.push_back(QueryRequest::Sum(a, a + kExtent));
  a = lo();
  pool.push_back(QueryRequest::Min(a, a + kExtent));
  a = lo();
  pool.push_back(QueryRequest::Max(a, a + kExtent));
  a = lo();
  pool.push_back(QueryRequest::TopK(a, a + kExtent, 10));
  return pool;
}

size_t OpIndex(dbms::QueryOp op) { return size_t(op); }

template <typename System>
MixedRun RunMixedSchedule(System* system, size_t ops) {
  using clock = std::chrono::steady_clock;
  std::vector<dbms::QueryRequest> pool = HotRequests();
  storage::RecordCodec codec(kRecordSize);
  MixedRun run;
  uint64_t state = 0x95'05;  // the 95/5 schedule seed, shared by design
  auto start = clock::now();
  for (size_t i = 0; i < ops; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    if ((state >> 33) % 100 < 5) {
      SAE_CHECK_OK(system->Insert(codec.MakeRecord(
          5'000'000 + i, uint32_t((state >> 7) % kDomainMax))));
      continue;
    }
    const dbms::QueryRequest& request = pool[(state >> 33) % pool.size()];
    auto q0 = clock::now();
    auto outcome = system->ExecuteQuery(request);
    auto q1 = clock::now();
    SAE_CHECK_OK(outcome.status());
    ++run.queries;
    size_t op = OpIndex(request.op);
    run.per_op_ms[op] += Ms(q1 - q0);
    ++run.per_op_queries[op];
    outcome.value().verification.ok() ? ++run.accepted : ++run.rejected;
    run.codes.push_back(int(outcome.value().verification.code()));
    run.result_counts.push_back(outcome.value().results.size());
  }
  run.wall_ms = Ms(clock::now() - start);
  return run;
}

std::string HitRatesJson(const core::SaeCacheStats& stats) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"sp_answer\": %.3f, \"te_vt\": %.3f, \"te_digest\": %.3f}",
                stats.sp_answer.HitRate(), stats.te_vt.HitRate(),
                stats.te_digest.HitRate());
  return buf;
}

std::string HitRatesJson(const core::TomCacheStats& stats) {
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "{\"sp_answer\": %.3f, \"sp_digest\": %.3f, \"owner_digest\": %.3f}",
      stats.sp_answer.HitRate(), stats.sp_digest.HitRate(),
      stats.owner_digest.HitRate());
  return buf;
}

// Appends one model's section to the JSON body; returns false on a parity
// violation (cached and uncached runs disagreeing on any verdict or result
// count — the one thing a correct cache can never do).
template <typename System>
bool RunCachedComparison(const char* model, System* cached, System* uncached,
                         std::string* json) {
  constexpr size_t kOps = 2000;
  MixedRun on = RunMixedSchedule(cached, kOps);
  MixedRun off = RunMixedSchedule(uncached, kOps);
  std::string hit_rates = HitRatesJson(cached->cache_stats());

  bool parity = on.codes == off.codes && on.result_counts == off.result_counts;
  std::printf("%6s %10.0f %12.0f %9.2fx %10llu %10llu %s\n", model, on.Qps(),
              off.Qps(), on.Qps() / off.Qps(),
              (unsigned long long)on.accepted,
              (unsigned long long)on.rejected, parity ? "ok" : "MISMATCH");
  if (!parity) {
    std::fprintf(stderr,
                 "PARITY FAILURE (%s): cached and uncached runs disagree "
                 "(accepted %llu vs %llu, rejected %llu vs %llu)\n",
                 model, (unsigned long long)on.accepted,
                 (unsigned long long)off.accepted,
                 (unsigned long long)on.rejected,
                 (unsigned long long)off.rejected);
  }

  char buf[256];
  *json += "    {\"model\": \"";
  *json += model;
  std::snprintf(buf, sizeof(buf),
                "\", \"qps_cached\": %.1f, \"qps_uncached\": %.1f, "
                "\"speedup\": %.3f, \"accepted\": %llu, \"rejected\": %llu, "
                "\"parity_ok\": %s,\n",
                on.Qps(), off.Qps(), on.Qps() / off.Qps(),
                (unsigned long long)on.accepted,
                (unsigned long long)on.rejected, parity ? "true" : "false");
  *json += buf;
  *json += "     \"cache_hit_rates\": " + hit_rates + ",\n";
  *json += "     \"operator_qps\": {";
  for (size_t op = 0; op < 7; ++op) {
    if (on.per_op_queries[op] == 0) continue;
    double qps_on = on.per_op_queries[op] / (on.per_op_ms[op] / 1000.0);
    double qps_off = off.per_op_queries[op] / (off.per_op_ms[op] / 1000.0);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"cached\": %.1f, \"uncached\": %.1f}",
                  op == 0 ? "" : ", ",
                  dbms::QueryOpName(dbms::QueryOp(op)), qps_on, qps_off);
    *json += buf;
  }
  *json += "}}";
  return parity;
}

}  // namespace

int main() {
  PrintHeader(
      "Throughput (queries/sec, wall clock) vs engine worker threads — UNF",
      "# model  threads        q/s   speedup  mean-resp(ms)");
  // Speedup is bounded by the cores the host exposes; on a 1-core box the
  // sweep degenerates to a flat line by construction.
  std::printf("# hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  size_t n = size_t(100'000 * BenchScale());
  if (n < 1000) n = 1000;
  auto dataset = MakeDataset(workload::Distribution::kUniform, n);
  auto batch = MakeEngineBatch();

  {
    core::SaeSystem::Options options;
    options.record_size = kRecordSize;
    core::SaeSystem sae(options.DisableCaches());
    SAE_CHECK_OK(sae.Load(dataset));
    RunSweep("SAE", &sae, batch);

    std::printf("\n# Operator-class throughput (engine workers = 4)\n");
    std::printf("# model       op        q/s   mean-resp(ms)   result-B/qry\n");
    RunOperatorSweep("SAE", &sae);
  }
  {
    core::TomSystem::Options options;
    options.record_size = kRecordSize;
    core::TomSystem tom(options.DisableCaches());
    SAE_CHECK_OK(tom.Load(dataset));
    RunSweep("TOM", &tom, batch);
    RunOperatorSweep("TOM", &tom);
  }

  std::printf("# speedup is relative to the 1-thread run of the same "
              "model; batch = %zu queries, repeated for >= %.0f ms per row\n",
              batch.size(), kMinTimedMs);

  RunShardSweep(dataset, batch);

  // --- cached vs uncached, with BENCH_throughput.json ------------------------
  std::string json;
  bool parity_ok = true;
  std::printf("\n# Cached vs uncached: 95/5 read-heavy mixed workload "
              "(hot set of 7 verified queries + epoch-bumping inserts)\n");
  std::printf("# model   q/s-on     q/s-off   speedup   accepted   rejected "
              "parity\n");
  json += "  \"read_heavy_95_5\": [\n";
  {
    core::SaeSystem::Options options;
    options.record_size = kRecordSize;
    core::SaeSystem cached(options);
    core::SaeSystem uncached(core::SaeSystem::Options(options).DisableCaches());
    SAE_CHECK_OK(cached.Load(dataset));
    SAE_CHECK_OK(uncached.Load(dataset));
    parity_ok = RunCachedComparison("SAE", &cached, &uncached, &json);
  }
  json += ",\n";
  {
    core::TomSystem::Options options;
    options.record_size = kRecordSize;
    core::TomSystem cached(options);
    core::TomSystem uncached(core::TomSystem::Options(options).DisableCaches());
    SAE_CHECK_OK(cached.Load(dataset));
    SAE_CHECK_OK(uncached.Load(dataset));
    parity_ok = RunCachedComparison("TOM", &cached, &uncached, &json) &&
                parity_ok;
  }
  json += "\n  ]\n";

  const char* json_path = std::getenv("SAE_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_throughput.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    const crypto::Backend& backend = crypto::Backend::Instance();
    std::fprintf(f, "{\n  \"bench\": \"throughput\", \"scale\": %.3f,\n",
                 BenchScale());
    std::fprintf(f, "  \"hash_kernel\": \"%s\", \"modexp_kernel\": \"%s\",\n",
                 backend.hash_kernel(), backend.modexp_kernel());
    std::fputs(json.c_str(), f);
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("\n# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }

  if (!parity_ok) {
    std::fprintf(stderr, "cache parity gate FAILED\n");
    return 1;
  }
  return 0;
}
