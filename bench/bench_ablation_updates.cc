// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Ablation: update cost (paper §III claims O(log n) XB-tree maintenance).
// Measures node accesses per insert/delete for the TE's XB-tree and for the
// TOM ADS (MB-tree at the SP; the DO pays the same again, plus an RSA
// signature per update — SAE needs no signing at all).
//
// Second section: mixed read/write workloads (90/10 and 50/50 query/update)
// through the QueryEngine's RunMixed against the reader-writer systems —
// queries take the shared lock, updates the unique lock, all interleaving
// on one system. Reports q/s plus mean/max update latency per model.

#include "core/query_engine.h"
#include "core/sharded_system.h"
#include "fig_common.h"
#include "util/random.h"

using namespace sae;
using namespace sae::bench;

namespace {

// One shuffled 90/10 or 50/50 op mix over a loaded system's key domain.
std::vector<core::BatchOp> MakeMixedOps(size_t total, double update_frac,
                                        uint64_t seed) {
  storage::RecordCodec codec(kRecordSize);
  Rng rng(seed);
  std::vector<core::BatchOp> ops;
  ops.reserve(total);
  size_t updates = size_t(double(total) * update_frac);
  for (size_t i = 0; i < total; ++i) {
    bool is_update = i * updates / total != (i + 1) * updates / total;
    if (is_update) {
      ops.push_back(core::BatchOp::MakeInsert(codec.MakeRecord(
          50'000'000 + seed * 1'000'000 + i,
          uint32_t(rng.NextBounded(kDomainMax)))));
    } else {
      uint32_t lo = uint32_t(rng.NextBounded(kDomainMax));
      uint32_t extent = uint32_t(double(kDomainMax) * kQueryExtent);
      ops.push_back(core::BatchOp::MakeQuery(lo, lo + extent));
    }
  }
  return ops;
}

void RunMixedSection() {
  std::printf("\n# Mixed read/write workload (QueryEngine::RunMixed, "
              "%zu ops, 4 workers)\n",
              size_t(2000));
  std::printf("# model  mix        q/s     upd/s   upd.mean.ms  upd.max.ms  "
              "accepted\n");

  size_t n = size_t(50'000 * BenchScale());
  if (n < 2000) n = 2000;
  auto dataset = MakeDataset(workload::Distribution::kUniform, n);
  constexpr size_t kOps = 2000;

  for (double update_frac : {0.10, 0.50}) {
    const char* mix = update_frac == 0.10 ? "90/10" : "50/50";
    {
      core::SaeSystem::Options options;
      options.record_size = kRecordSize;
      core::SaeSystem system(options);
      SAE_CHECK_OK(system.Load(dataset));
      core::QueryEngine engine(core::QueryEngine::Options{4});
      core::MixedStats stats = engine.RunMixed(
          &system, MakeMixedOps(kOps, update_frac, 1));
      std::printf("SAE     %-8s %8.0f %8.0f %12.3f %11.3f %9zu\n", mix,
                  stats.QueriesPerSecond(),
                  stats.wall_ms > 0
                      ? double(stats.updates) * 1000.0 / stats.wall_ms
                      : 0.0,
                  stats.MeanUpdateLatencyMs(), stats.max_update_latency_ms,
                  stats.accepted);
    }
    {
      core::TomSystem::Options options;
      options.record_size = kRecordSize;
      core::TomSystem system(options);
      SAE_CHECK_OK(system.Load(dataset));
      core::QueryEngine engine(core::QueryEngine::Options{4});
      core::MixedStats stats = engine.RunMixed(
          &system, MakeMixedOps(kOps, update_frac, 2));
      std::printf("TOM     %-8s %8.0f %8.0f %12.3f %11.3f %9zu\n", mix,
                  stats.QueriesPerSecond(),
                  stats.wall_ms > 0
                      ? double(stats.updates) * 1000.0 / stats.wall_ms
                      : 0.0,
                  stats.MeanUpdateLatencyMs(), stats.max_update_latency_ms,
                  stats.accepted);
    }
    std::fflush(stdout);
  }
}

// Shard-count axis for the write path: the same 50/50 mixed schedule
// against a sharded SAE deployment as the shard count sweeps. Unsharded,
// every update serializes on one writer lock; sharded, an update locks
// only the shard owning its key, so writers to different shards commit in
// parallel and mean update latency is what shrinks (q/s moves less — the
// read path was already concurrent).
void RunShardedMixedSection() {
  std::printf("\n# Sharded SAE, 50/50 mixed workload vs shard count "
              "(RunMixed, %zu ops, 4 workers)\n",
              size_t(2000));
  std::printf("# shards      q/s     upd/s   upd.mean.ms  upd.max.ms  "
              "accepted\n");

  size_t n = size_t(50'000 * BenchScale());
  if (n < 2000) n = 2000;
  auto dataset = MakeDataset(workload::Distribution::kUniform, n);
  constexpr size_t kOps = 2000;

  for (size_t shards : ShardCounts()) {
    core::ShardedSaeSystem::Options options;
    options.record_size = kRecordSize;
    core::ShardedSaeSystem system(
        core::ShardRouter::Balanced(dataset, shards), options);
    SAE_CHECK_OK(system.Load(dataset));
    core::QueryEngine engine(core::QueryEngine::Options{4});
    core::MixedStats stats =
        engine.RunMixed(&system, MakeMixedOps(kOps, 0.50, 3));
    std::printf("%8zu %8.0f %9.0f %12.3f %11.3f %9zu\n", system.num_shards(),
                stats.QueriesPerSecond(),
                stats.wall_ms > 0
                    ? double(stats.updates) * 1000.0 / stats.wall_ms
                    : 0.0,
                stats.MeanUpdateLatencyMs(), stats.max_update_latency_ms,
                stats.accepted);
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  std::printf("# Ablation: update cost (node accesses per operation)\n");
  std::printf("#        n   XB.ins   XB.del   MB.ins   MB.del\n");

  storage::RecordCodec codec(kRecordSize);
  constexpr size_t kOps = 500;

  for (size_t base : {20'000, 50'000, 100'000, 200'000}) {
    size_t n = size_t(double(base) * BenchScale());
    if (n < 2000) n = 2000;
    auto dataset = MakeDataset(workload::Distribution::kUniform, n);

    // --- XB-tree (TE) ---
    auto te = BuildTe(dataset);
    Rng rng(1);
    std::vector<storage::Record> fresh;
    for (size_t i = 0; i < kOps; ++i) {
      fresh.push_back(codec.MakeRecord(
          10'000'000 + i, uint32_t(rng.NextBounded(kDomainMax))));
    }
    auto te0 = te->pool_stats();
    for (const auto& r : fresh) SAE_CHECK_OK(te->InsertRecord(r));
    double xb_ins =
        double((te->pool_stats() - te0).accesses) / double(kOps);
    te0 = te->pool_stats();
    for (const auto& r : fresh) SAE_CHECK_OK(te->DeleteRecord(r.key, r.id));
    double xb_del = double((te->pool_stats() - te0).accesses) / double(kOps);

    // --- MB-tree (TOM SP mirror; the DO repeats this and re-signs) ---
    TomSpBundle tom = BuildTomSp(dataset, 512);
    auto idx0 = tom.sp->index_pool_stats();
    auto heap0 = tom.sp->heap_pool_stats();
    for (const auto& r : fresh) SAE_CHECK_OK(tom.sp->ApplyInsert(r, {}, 0));
    double mb_ins = double((tom.sp->index_pool_stats() - idx0).accesses +
                           (tom.sp->heap_pool_stats() - heap0).accesses) /
                    double(kOps);
    idx0 = tom.sp->index_pool_stats();
    heap0 = tom.sp->heap_pool_stats();
    for (const auto& r : fresh) {
      SAE_CHECK_OK(tom.sp->ApplyDelete(r.id, {}, 0));
    }
    double mb_del = double((tom.sp->index_pool_stats() - idx0).accesses +
                           (tom.sp->heap_pool_stats() - heap0).accesses) /
                    double(kOps);

    std::printf("%10zu %8.1f %8.1f %8.1f %8.1f\n", n, xb_ins, xb_del, mb_ins,
                mb_del);
    std::fflush(stdout);
  }

  RunMixedSection();
  RunShardedMixedSection();
  return 0;
}
