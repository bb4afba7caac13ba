// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Durability bench: what crash safety costs and what recovery costs.
// Three sections, all over a storage::FaultFs (an in-memory Vfs), so the
// numbers isolate the durability PROTOCOL — WAL encode + checksum + sync
// ordering, snapshot serialization — from the host device's fsync
// latency, and stay deterministic across CI runners:
//
//   1. wal_overhead — a 90/10 query/update schedule on the SAE system,
//      durability off vs on; the ratio is the write-path tax of
//      sync-before-apply.
//   2. recovery    — Recover() wall time as a function of the WAL tail
//      length replayed (snapshot cadence disabled past the baseline).
//   3. cadence     — the snapshot_interval trade, swept in BOTH checkpoint
//      schedules (full snapshots only, full_snapshot_every=1, vs delta
//      chains): update throughput against the recovery time the resulting
//      WAL tail costs, plus bytes written per checkpoint.
//   4. checkpoint_scaling — per-checkpoint bytes as a function of dataset
//      size: full snapshots scale with the record count, delta links scale
//      with the CHANGE count (the tentpole O(changes) claim).
//   5. group_commit — 1, 4 and 8 concurrent writers against a simulated
//      fsync cost (FaultFs::SetSyncLatency): updates/s and p99 commit
//      latency through the WAL group-commit sequencer. One writer is
//      per-record sync; more writers share each leader's fsync.
//
// Emits BENCH_durability.json (BenchJson) for
// scripts/check_perf_regression.py; SAE_BENCH_SCALE scales the op counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fig_common.h"
#include "storage/fault_fs.h"

namespace sae::bench {
namespace {

using core::SaeSystem;
using storage::FaultFs;

constexpr uint32_t kExtent = uint32_t(kDomainMax * kQueryExtent);

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `full_only` makes every checkpoint a full snapshot; the default is the
/// delta-chain schedule.
SaeSystem::Options Options(FaultFs* fs, uint64_t snapshot_interval,
                           bool full_only = false) {
  SaeSystem::Options options;
  options.record_size = kRecordSize;
  if (fs != nullptr) {
    options.durability.enabled = true;
    options.durability.dir = "/db";
    options.durability.vfs = fs;
    options.durability.snapshot_interval = snapshot_interval;
    if (full_only) options.durability.full_snapshot_every = 1;
  }
  return options;
}

void PrintDurabilityStats(const core::DurabilityStats& stats,
                          const char* tag) {
  std::printf(
      "stats %-22s wal %llu recs / %llu syncs (%.1f recs/sync, %.1f KiB)  "
      "ckpts %llu full + %llu delta (chain %llu)  ckpt bytes %.1f KiB total, "
      "last %.1f KiB in %.2f ms\n",
      tag, (unsigned long long)stats.wal_records,
      (unsigned long long)stats.wal_syncs, stats.avg_group_records,
      double(stats.wal_bytes) / 1024.0,
      (unsigned long long)stats.checkpoints_full,
      (unsigned long long)stats.checkpoints_delta,
      (unsigned long long)stats.delta_chain_length,
      double(stats.checkpoint_bytes_total) / 1024.0,
      double(stats.last_checkpoint_bytes) / 1024.0, stats.last_checkpoint_ms);
}

/// Runs `ops` operations, every 10th an insert (the paper's read-mostly
/// serving mix), and returns ops/second. Queries verify end to end, so
/// both configurations pay the identical read-path cost and the delta is
/// purely the write path.
double RunMixedSchedule(SaeSystem* system, size_t ops, uint64_t* next_id) {
  const storage::RecordCodec& codec = system->codec();
  // Warm the caches and the lazily built query paths before the clock
  // starts, so the off/on delta is the write path and not first-touch cost.
  for (int i = 0; i < 20; ++i) {
    uint32_t lo = uint32_t(i) * (kDomainMax / 32);
    auto outcome = system->Query(lo, lo + kExtent);
    SAE_CHECK_OK(outcome.status());
  }
  Rng rng(0xD0BE5);
  double start = NowMs();
  for (size_t i = 0; i < ops; ++i) {
    if (i % 10 == 9) {
      uint32_t key = uint32_t(rng.Next() % kDomainMax);
      SAE_CHECK_OK(system->Insert(codec.MakeRecord((*next_id)++, key)));
    } else {
      uint32_t lo = uint32_t(rng.Next() % (kDomainMax - kExtent));
      auto outcome = system->Query(lo, lo + kExtent);
      SAE_CHECK_OK(outcome.status());
      SAE_CHECK_OK(outcome.value().verification);
    }
  }
  double elapsed_ms = NowMs() - start;
  return elapsed_ms > 0 ? double(ops) * 1000.0 / elapsed_ms : 0.0;
}

}  // namespace
}  // namespace sae::bench

int main() {
  using namespace sae;
  using namespace sae::bench;

  double scale = BenchScale();
  const size_t n = size_t(20'000 * scale) < 2000 ? 2000
                                                 : size_t(20'000 * scale);
  const size_t mixed_ops = size_t(2'000 * scale) < 200
                               ? 200
                               : size_t(2'000 * scale);
  auto records = MakeDataset(workload::Distribution::kUniform, n);

  BenchJson json("durability");
  PrintHeader("durability: WAL overhead, recovery time, cadence trade",
              "# section config metric");

  // --- 1. WAL overhead on the 90/10 mix -----------------------------------
  {
    uint64_t next_id = n + 1;
    SaeSystem volatile_system(Options(nullptr, 0));
    SAE_CHECK_OK(volatile_system.Load(records));
    double off_ops = RunMixedSchedule(&volatile_system, mixed_ops, &next_id);

    FaultFs fs;
    next_id = n + 1;
    SaeSystem durable_system(Options(&fs, 64));
    SAE_CHECK_OK(durable_system.Load(records));
    double on_ops = RunMixedSchedule(&durable_system, mixed_ops, &next_id);

    double overhead_pct =
        on_ops > 0 ? (off_ops / on_ops - 1.0) * 100.0 : 0.0;
    std::printf("wal_overhead durability=off  %10.0f ops/s\n", off_ops);
    std::printf("wal_overhead durability=on   %10.0f ops/s  (+%.1f%% cost)\n",
                on_ops, overhead_pct);
    json.Row({{"section", "wal_overhead"}, {"config", "durability_off"}},
             {{"ops_per_sec", off_ops}});
    json.Row({{"section", "wal_overhead"}, {"config", "durability_on"}},
             {{"ops_per_sec", on_ops}});
  }

  // --- 2. recovery time vs WAL tail length --------------------------------
  // snapshot_interval=0: only the baseline snapshot exists, so recovery
  // replays exactly `tail` records.
  for (size_t tail : {size_t(0), size_t(64), size_t(256), size_t(1024)}) {
    FaultFs fs;
    uint64_t next_id = n + 1;
    {
      SaeSystem system(Options(&fs, 0));
      SAE_CHECK_OK(system.Load(records));
      const storage::RecordCodec& codec = system.codec();
      for (size_t i = 0; i < tail; ++i) {
        SAE_CHECK_OK(system.Insert(
            codec.MakeRecord(next_id++, uint32_t(i % kDomainMax))));
      }
    }
    fs.DropVolatile();
    double start = NowMs();
    auto recovered = SaeSystem::Recover(Options(&fs, 0));
    double recovery_ms = NowMs() - start;
    SAE_CHECK_OK(recovered.status());
    SAE_CHECK(recovered.value()->epoch() == 1 + tail);
    std::printf("recovery tail=%-5zu %8.2f ms\n", tail, recovery_ms);
    json.Row({{"section", "recovery"},
              {"wal_records", std::to_string(tail)}},
             {{"recovery_ms", recovery_ms}});
  }

  // --- 3. snapshot cadence sweep, full vs delta ---------------------------
  // Smaller intervals checkpoint more (slower updates) but leave a shorter
  // WAL tail (faster recovery); the sweep quantifies both ends, with full
  // snapshots only and with delta chains. The full mode pays an O(dataset)
  // serialization every interval updates; the delta mode pays O(interval)
  // — the per-update cost stops depending on n.
  const size_t cadence_updates =
      size_t(512 * scale) < 128 ? 128 : size_t(512 * scale);
  double full_ops_64 = 0, delta_ops_64 = 0;
  for (bool full_only : {true, false}) {
    const char* mode = full_only ? "full" : "delta";
    for (uint64_t interval : {uint64_t(4), uint64_t(16), uint64_t(64),
                              uint64_t(256)}) {
      FaultFs fs;
      uint64_t next_id = n + 1;
      double update_ops;
      double bytes_per_checkpoint = 0;
      {
        SaeSystem system(Options(&fs, interval, full_only));
        SAE_CHECK_OK(system.Load(records));
        // The Load baseline is a full snapshot in either mode; subtract it
        // so the metric is the steady-state checkpoint size.
        core::DurabilityStats baseline = system.durability_stats();
        const storage::RecordCodec& codec = system.codec();
        double start = NowMs();
        for (size_t i = 0; i < cadence_updates; ++i) {
          SAE_CHECK_OK(system.Insert(
              codec.MakeRecord(next_id++, uint32_t(i % kDomainMax))));
        }
        // Drain inside the clock: steady-state throughput must pay for
        // the background checkpoints it queued.
        SAE_CHECK_OK(system.WaitForCheckpoints());
        double elapsed_ms = NowMs() - start;
        update_ops = elapsed_ms > 0
                         ? double(cadence_updates) * 1000.0 / elapsed_ms
                         : 0.0;
        core::DurabilityStats stats = system.durability_stats();
        uint64_t checkpoints = stats.checkpoints_full +
                               stats.checkpoints_delta -
                               baseline.checkpoints_full -
                               baseline.checkpoints_delta;
        if (checkpoints > 0) {
          bytes_per_checkpoint =
              double(stats.checkpoint_bytes_total -
                     baseline.checkpoint_bytes_total) /
              double(checkpoints);
        }
      }
      fs.DropVolatile();
      double start = NowMs();
      auto recovered = SaeSystem::Recover(Options(&fs, interval, full_only));
      double recovery_ms = NowMs() - start;
      SAE_CHECK_OK(recovered.status());
      SAE_CHECK(recovered.value()->epoch() == 1 + cadence_updates);
      if (interval == 64) {
        (full_only ? full_ops_64 : delta_ops_64) = update_ops;
      }
      std::printf(
          "cadence mode=%-5s interval=%-4llu %10.0f updates/s  "
          "recovery %6.2f ms  %8.1f KiB/ckpt\n",
          mode, (unsigned long long)interval, update_ops, recovery_ms,
          bytes_per_checkpoint / 1024.0);
      json.Row({{"section", "cadence"},
                {"mode", mode},
                {"snapshot_interval", std::to_string(interval)}},
               {{"update_ops_per_sec", update_ops},
                {"recovery_ms", recovery_ms},
                {"bytes_per_checkpoint", bytes_per_checkpoint}});
    }
  }
  if (full_ops_64 > 0) {
    std::printf("cadence interval=64 delta/full speedup: %.2fx\n",
                delta_ops_64 / full_ops_64);
    json.Row({{"section", "cadence_ratio"}, {"snapshot_interval", "64"}},
             {{"delta_vs_full_speedup", delta_ops_64 / full_ops_64}});
  }

  // --- 4. per-checkpoint bytes vs dataset size ----------------------------
  // The O(changes) claim: at a fixed cadence, a full snapshot grows with
  // the record count while a delta link stays flat.
  for (bool full_only : {true, false}) {
    const char* mode = full_only ? "full" : "delta";
    for (size_t dataset : {n / 4, n}) {
      auto sized = MakeDataset(workload::Distribution::kUniform, dataset);
      FaultFs fs;
      SaeSystem system(Options(&fs, 64, full_only));
      SAE_CHECK_OK(system.Load(sized));
      const storage::RecordCodec& codec = system.codec();
      uint64_t next_id = dataset + 1;
      for (size_t i = 0; i < 128; ++i) {
        SAE_CHECK_OK(system.Insert(
            codec.MakeRecord(next_id++, uint32_t(i % kDomainMax))));
      }
      SAE_CHECK_OK(system.WaitForCheckpoints());
      core::DurabilityStats stats = system.durability_stats();
      std::printf("checkpoint_scaling mode=%-5s n=%-6zu last ckpt %8.1f KiB\n",
                  mode, dataset, double(stats.last_checkpoint_bytes) / 1024.0);
      json.Row({{"section", "checkpoint_scaling"},
                {"mode", mode},
                {"dataset", std::to_string(dataset)}},
               {{"bytes_per_checkpoint", double(stats.last_checkpoint_bytes)}});
    }
  }

  // --- 5. WAL group commit under concurrent writers -----------------------
  // A simulated 200us fsync makes the sequencer visible: a lone writer
  // pays its own barrier per update (per-record sync), while concurrent
  // committers share the leader's.
  constexpr uint32_t kSyncLatencyUs = 200;
  const size_t per_thread =
      size_t(128 * scale) < 32 ? 32 : size_t(128 * scale);
  for (size_t threads : {size_t(1), size_t(4), size_t(8)}) {
    FaultFs fs;
    fs.SetSyncLatency(kSyncLatencyUs);
    SaeSystem system(Options(&fs, 64));
    SAE_CHECK_OK(system.Load(records));
    const storage::RecordCodec& codec = system.codec();

    std::vector<std::vector<double>> latencies(threads);
    double start = NowMs();
    std::vector<std::thread> writers;
    for (size_t t = 0; t < threads; ++t) {
      writers.emplace_back([&, t] {
        latencies[t].reserve(per_thread);
        for (size_t i = 0; i < per_thread; ++i) {
          uint64_t id = n + 1 + t * per_thread + i;
          uint32_t key = uint32_t((id * 2654435761u) % kDomainMax);
          double op_start = NowMs();
          SAE_CHECK_OK(system.Insert(codec.MakeRecord(id, key)));
          latencies[t].push_back(NowMs() - op_start);
        }
      });
    }
    for (auto& w : writers) w.join();
    SAE_CHECK_OK(system.WaitForCheckpoints());
    double elapsed_ms = NowMs() - start;

    std::vector<double> all;
    for (auto& per : latencies) {
      all.insert(all.end(), per.begin(), per.end());
    }
    std::sort(all.begin(), all.end());
    double p99 = all[size_t(double(all.size() - 1) * 0.99)];
    double updates_per_sec =
        elapsed_ms > 0 ? double(all.size()) * 1000.0 / elapsed_ms : 0.0;
    std::printf("group_commit threads=%zu %10.0f updates/s  p99 %6.3f ms\n",
                threads, updates_per_sec, p99);
    json.Row({{"section", "group_commit"},
              {"threads", std::to_string(threads)}},
             {{"updates_per_sec", updates_per_sec}, {"p99_commit_ms", p99}});
    if (threads == 8) {
      PrintDurabilityStats(system.durability_stats(), "group_commit t=8");
    }
  }

  return json.Write();
}
