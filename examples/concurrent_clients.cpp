// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Concurrent multi-client demo, in two acts.
//
// Act 1: several simulated clients hammer one SAE deployment through the
// batched QueryEngine. Client #2's traffic passes through a compromised SP
// that tampers with every result — the other clients' queries are
// untouched, and verification must sort the two groups apart even though
// all queries execute interleaved on the same worker pool against the
// same shared SP and TE.
//
// Act 2: the same load against a four-shard deployment
// (core::ShardedSaeSystem) with ONE compromised shard. Queries whose range
// never touches the bad shard keep verifying; queries that do touch it are
// rejected with a verdict that names the guilty shard — the honest shards'
// slices verify individually, so a single bad machine cannot poison the
// rest of the fleet.
//
//   $ ./examples/example_concurrent_clients

#include <cstdio>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/query_engine.h"
#include "core/sharded_system.h"
#include "workload/dataset.h"
#include "workload/queries.h"

using namespace sae;
using adversary::AttackMode;
using core::BatchQuery;
using core::QueryEngine;
using core::SaeSystem;
using core::ShardedSaeSystem;
using core::ShardRouter;

namespace {

// Act 2: a four-shard deployment with one malicious shard. Returns true
// when every verdict matches the attack placement.
bool RunShardedAct(const std::vector<storage::Record>& dataset,
                   const std::vector<workload::RangeQuery>& ranges,
                   size_t record_size) {
  constexpr size_t kShards = 4;
  constexpr size_t kBadShard = 2;

  ShardedSaeSystem::Options options;
  options.record_size = record_size;
  ShardRouter router = ShardRouter::Balanced(dataset, kShards);
  ShardedSaeSystem system(router, options);
  if (!system.Load(dataset).ok()) {
    std::fprintf(stderr, "sharded load failed\n");
    return false;
  }
  std::printf("\n--- Act 2: %zu-shard deployment, shard %zu compromised "
              "---\n",
              system.num_shards(), kBadShard);
  std::printf("fences:");
  for (auto fence : router.fences()) std::printf(" %u", fence);
  std::printf("  (shard %zu owns [%u, %u])\n\n", kBadShard,
              router.shard_lo(kBadShard), router.shard_hi(kBadShard));

  adversary::ShardedSaeAdversary attacker(&system);
  size_t touched = 0, spared = 0, misverdicts = 0;
  for (const auto& range : ranges) {
    auto outcome = attacker.Query(range.lo, range.hi,
                                  AttackMode::kTamperPayload, kBadShard);
    if (!outcome.ok()) {
      ++misverdicts;
      continue;
    }
    bool touches_bad_shard = false;
    for (const auto& slice : outcome.value().slices) {
      if (slice.shard == kBadShard) touches_bad_shard = true;
    }
    const Status& verdict = outcome.value().verification;
    if (touches_bad_shard) {
      ++touched;
      // The composite verdict must fail AND name the guilty shard; the
      // honest slices must have verified individually.
      bool attributed =
          !verdict.ok() && verdict.message().find(std::to_string(
                               kBadShard)) != std::string::npos;
      for (const auto& slice : outcome.value().slices) {
        if (slice.shard != kBadShard &&
            !slice.outcome.verification.ok()) {
          attributed = false;  // an honest shard was poisoned
        }
      }
      if (!attributed) ++misverdicts;
    } else {
      ++spared;
      if (!verdict.ok()) ++misverdicts;
    }
  }
  std::printf("%zu queries touched shard %zu: rejected, verdict names the "
              "shard, honest slices stayed verified\n",
              touched, kBadShard);
  std::printf("%zu queries never touched it: all accepted\n", spared);
  std::printf("%s\n", misverdicts == 0
                          ? "OK: one bad shard cannot poison the fleet."
                          : "ERROR: sharded verdicts do not match the "
                            "attack placement!");
  return misverdicts == 0 && touched > 0 && spared > 0;
}

}  // namespace

int main() {
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 25;
  constexpr size_t kMaliciousClient = 2;  // this client's SP path is evil
  constexpr size_t kWorkers = 4;

  // One outsourced dataset, shared by every client.
  workload::DatasetSpec spec;
  spec.cardinality = 20'000;
  spec.record_size = 256;
  auto dataset = workload::GenerateDataset(spec);

  SaeSystem::Options options;
  options.record_size = spec.record_size;
  SaeSystem system(options);
  if (!system.Load(dataset).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  std::printf("SAE deployment loaded: %zu records, %zu clients x %zu "
              "queries, %zu engine workers\n\n",
              dataset.size(), kClients, kQueriesPerClient, kWorkers);

  // Each client contributes its own slice of the batch; the malicious
  // client's queries carry an attack that mutates the SP's answer.
  workload::QueryWorkloadSpec query_spec;
  query_spec.count = kClients * kQueriesPerClient;
  query_spec.domain_max = spec.domain_max;
  auto ranges = workload::GenerateQueries(query_spec);

  adversary::SaeSpAttack tampering_sp(AttackMode::kTamperPayload,
                                      &system.sp());
  std::vector<BatchQuery> batch;
  batch.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    size_t client = i / kQueriesPerClient;
    core::QueryTap* tap =
        client == kMaliciousClient ? &tampering_sp : nullptr;
    batch.push_back(BatchQuery{ranges[i].lo, ranges[i].hi, tap});
  }

  QueryEngine engine(QueryEngine::Options{kWorkers});
  QueryEngine::SaeBatch run = engine.Run(&system, batch);

  std::printf("%8s %10s %10s %10s   verdict\n", "client", "queries",
              "accepted", "rejected");
  for (size_t client = 0; client < kClients; ++client) {
    size_t accepted = 0, rejected = 0;
    for (size_t i = client * kQueriesPerClient;
         i < (client + 1) * kQueriesPerClient; ++i) {
      if (run.outcomes[i].ok() &&
          run.outcomes[i].value().verification.ok()) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    std::printf("%8zu %10zu %10zu %10zu   %s\n", client, kQueriesPerClient,
                accepted, rejected,
                rejected == 0 ? "SP honest — results accepted"
                              : "SP COMPROMISED — every result rejected");
  }

  std::printf("\nengine: %zu queries in %.1f ms -> %.0f queries/sec\n",
              run.stats.queries, run.stats.wall_ms,
              run.stats.QueriesPerSecond());
  std::printf("aggregated costs: %llu SP index + %llu SP heap + %llu TE "
              "node accesses, %zu auth bytes\n",
              (unsigned long long)run.stats.total.sp_index_accesses,
              (unsigned long long)run.stats.total.sp_heap_accesses,
              (unsigned long long)run.stats.total.te_accesses,
              run.stats.total.auth_bytes);

  bool sorted_correctly =
      run.stats.rejected == kQueriesPerClient &&
      run.stats.accepted == (kClients - 1) * kQueriesPerClient;
  std::printf("%s\n", sorted_correctly
                          ? "OK: only the compromised client's results "
                            "were rejected."
                          : "ERROR: verdicts do not match the attack "
                            "placement!");

  bool sharded_ok = RunShardedAct(dataset, ranges, spec.record_size);
  return sorted_correctly && sharded_ok ? 0 : 1;
}
