// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Interleaved read/write stress suite for the versioned update pipeline:
// writer threads push randomized Insert/Delete schedules (fixed seeds)
// while reader threads run verified range queries on the same system —
// no exclusive-access phase anywhere. Correctness is checked against a
// SERIAL ORACLE REPLAY: every update returns the epoch at which it
// serialized (the writer lock makes epochs a total order), every verified
// query carries the epoch it observed (the token/VO stamp), so after the
// threads join we replay the updates in epoch order and require each
// query's results to equal the oracle state at exactly its epoch. Run for
// both SAE and TOM; the whole suite is part of the CI ThreadSanitizer job.

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "core/query_engine.h"
#include "core/system.h"
#include "util/random.h"

namespace sae {
namespace {

using adversary::AttackMode;
using core::BatchOp;
using core::MixedStats;
using core::QueryEngine;
using core::SaeSystem;
using core::TomSystem;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

constexpr size_t kRecSize = 64;
constexpr uint32_t kKeyDomain = 20000;

std::vector<Record> InitialDataset(size_t n) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records;
  records.reserve(n);
  for (uint64_t id = 1; id <= n; ++id) {
    records.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  return records;
}

uint64_t OutcomeEpoch(const SaeSystem::QueryOutcome& outcome) {
  return outcome.vt.epoch;
}
uint64_t OutcomeEpoch(const TomSystem::QueryOutcome& outcome) {
  return outcome.vo.epoch;
}

struct UpdateLogEntry {
  uint64_t epoch = 0;
  bool is_insert = false;
  Record record;  // insert payload
  RecordId id = 0;  // delete target
};

struct QueryLogEntry {
  uint64_t epoch = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  std::vector<Record> results;
};

std::vector<Record> SortedByKeyThenId(std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
  return records;
}

// The stress schedule, shared by the SAE and TOM instantiations.
struct StressConfig {
  size_t initial_records = 400;
  size_t writer_threads = 2;
  size_t reader_threads = 2;
  size_t ops_per_writer = 20;      // alternating insert/delete
  size_t queries_per_reader = 16;
  uint64_t seed = 0x5AE5EED;       // fixed: the schedule is reproducible
};

template <typename System>
void RunInterleavedStress(System* system, const StressConfig& config) {
  RecordCodec codec(kRecSize);
  std::vector<Record> initial = InitialDataset(config.initial_records);
  SAE_CHECK_OK(system->Load(initial));
  ASSERT_EQ(system->epoch(), 1u);

  std::vector<std::vector<UpdateLogEntry>> update_logs(config.writer_threads);
  std::vector<std::vector<QueryLogEntry>> query_logs(config.reader_threads);
  std::vector<std::string> errors(config.writer_threads +
                                  config.reader_threads);

  // Writers: each owns a disjoint set of initial ids to delete and a
  // disjoint fresh-id range to insert, so every update must succeed.
  std::vector<std::thread> threads;
  for (size_t w = 0; w < config.writer_threads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(config.seed + 101 * w);
      std::ostringstream err;
      for (size_t op = 0; op < config.ops_per_writer; ++op) {
        if (op % 2 == 0) {
          Record fresh = codec.MakeRecord(
              1'000'000 + w * 10'000 + op,
              uint32_t(rng.NextBounded(kKeyDomain)));
          auto epoch = system->InsertVersioned(fresh);
          if (!epoch.ok()) {
            err << "insert failed: " << epoch.status().ToString() << "; ";
            continue;
          }
          update_logs[w].push_back(
              UpdateLogEntry{epoch.value(), true, fresh, 0});
        } else {
          RecordId victim = RecordId(1 + w * 50 + op / 2);
          auto epoch = system->DeleteVersioned(victim);
          if (!epoch.ok()) {
            err << "delete failed: " << epoch.status().ToString() << "; ";
            continue;
          }
          update_logs[w].push_back(
              UpdateLogEntry{epoch.value(), false, Record{}, victim});
        }
      }
      errors[w] = err.str();
    });
  }

  // Readers: verified range queries interleaving with the writers.
  for (size_t r = 0; r < config.reader_threads; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(config.seed + 7'777 * (r + 1));
      std::ostringstream err;
      for (size_t q = 0; q < config.queries_per_reader; ++q) {
        uint32_t lo = uint32_t(rng.NextBounded(kKeyDomain));
        uint32_t hi = lo + uint32_t(rng.NextBounded(kKeyDomain / 4)) + 1;
        auto outcome = system->ExecuteQuery(lo, hi);
        if (!outcome.ok()) {
          err << "query errored: " << outcome.status().ToString() << "; ";
          continue;
        }
        if (!outcome.value().verification.ok()) {
          err << "query [" << lo << "," << hi << "] rejected: "
              << outcome.value().verification.ToString() << "; ";
          continue;
        }
        query_logs[r].push_back(
            QueryLogEntry{OutcomeEpoch(outcome.value()), lo, hi,
                          std::move(outcome.value().results)});
      }
      errors[config.writer_threads + r] = err.str();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& err : errors) EXPECT_EQ(err, "");

  // The writer lock serializes updates: their epochs must form the dense
  // sequence 2 .. 1 + total_updates with no duplicates.
  std::vector<UpdateLogEntry> updates;
  for (auto& log : update_logs) {
    updates.insert(updates.end(), log.begin(), log.end());
  }
  std::sort(updates.begin(), updates.end(),
            [](const UpdateLogEntry& a, const UpdateLogEntry& b) {
              return a.epoch < b.epoch;
            });
  ASSERT_EQ(updates.size(),
            config.writer_threads * config.ops_per_writer);
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_EQ(updates[i].epoch, 2 + i) << "epochs not dense/unique";
  }
  EXPECT_EQ(system->epoch(), 1 + updates.size());

  // Serial oracle replay: walk queries in epoch order, advancing the
  // oracle state update by update; each verified result must equal the
  // oracle state at its epoch, restricted to its range. This is the
  // linearizability check the epoch snapshot makes exact.
  std::vector<QueryLogEntry> queries;
  for (auto& log : query_logs) {
    queries.insert(queries.end(), std::make_move_iterator(log.begin()),
                   std::make_move_iterator(log.end()));
  }
  std::sort(queries.begin(), queries.end(),
            [](const QueryLogEntry& a, const QueryLogEntry& b) {
              return a.epoch < b.epoch;
            });

  std::map<RecordId, Record> oracle;
  for (const Record& record : initial) oracle[record.id] = record;
  size_t next_update = 0;
  for (const QueryLogEntry& query : queries) {
    while (next_update < updates.size() &&
           updates[next_update].epoch <= query.epoch) {
      const UpdateLogEntry& update = updates[next_update];
      if (update.is_insert) {
        oracle[update.record.id] = update.record;
      } else {
        oracle.erase(update.id);
      }
      ++next_update;
    }
    std::vector<Record> expected;
    for (const auto& [id, record] : oracle) {
      if (record.key >= query.lo && record.key <= query.hi) {
        expected.push_back(record);
      }
    }
    EXPECT_EQ(SortedByKeyThenId(query.results),
              SortedByKeyThenId(std::move(expected)))
        << "query [" << query.lo << "," << query.hi << "] at epoch "
        << query.epoch << " disagrees with the serial oracle";
  }
}

TEST(UpdateConcurrencyTest, SaeInterleavedSchedulesMatchSerialOracle) {
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem system(options);
  StressConfig config;
  RunInterleavedStress(&system, config);
}

TEST(UpdateConcurrencyTest, TomInterleavedSchedulesMatchSerialOracle) {
  TomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;  // fast for tests (one re-sign per update)
  TomSystem system(options);
  StressConfig config;
  config.initial_records = 250;
  config.ops_per_writer = 12;
  config.queries_per_reader = 10;
  RunInterleavedStress(&system, config);
}

// Freshness attacks must be caught while writers advance the epoch
// underneath concurrent readers — the gate is exercised mid-interleaving.
TEST(UpdateConcurrencyTest, FreshnessAttacksRejectedUnderInterleaving) {
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem system(options);
  SAE_CHECK_OK(system.Load(InitialDataset(300)));
  adversary::SaeAdversary attacker(&system);
  RecordCodec codec(kRecSize);

  std::thread writer([&] {
    for (uint64_t i = 0; i < 12; ++i) {
      SAE_CHECK_OK(system.Insert(
          codec.MakeRecord(2'000'000 + i, uint32_t(17 * i % kKeyDomain))));
    }
  });
  std::vector<std::string> errors(2);
  std::vector<std::thread> attackers;
  for (size_t t = 0; t < 2; ++t) {
    attackers.emplace_back([&, t] {
      AttackMode mode = t == 0 ? AttackMode::kReplayStaleRoot
                               : AttackMode::kStaleVt;
      std::ostringstream err;
      for (int q = 0; q < 10; ++q) {
        auto outcome =
            system.ExecuteQuery(0, kKeyDomain, attacker.Tap(mode));
        if (!outcome.ok()) {
          err << "attack query errored; ";
          continue;
        }
        if (outcome.value().verification.code() != StatusCode::kStaleEpoch) {
          err << "attack not reported stale: "
              << outcome.value().verification.ToString() << "; ";
        }
      }
      errors[t] = err.str();
    });
  }
  writer.join();
  for (std::thread& thread : attackers) thread.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
}

// The QueryEngine's mixed batches drive the same reader/writer interleaving
// through the worker pool; stats must reconcile with the system counters.
TEST(UpdateConcurrencyTest, MixedEngineBatchesReconcile) {
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem system(options);
  SAE_CHECK_OK(system.Load(InitialDataset(300)));
  RecordCodec codec(kRecSize);

  std::vector<BatchOp> ops;
  size_t n_queries = 0, n_updates = 0;
  for (size_t i = 0; i < 40; ++i) {
    if (i % 4 == 0) {
      ops.push_back(BatchOp::MakeInsert(
          codec.MakeRecord(3'000'000 + i, uint32_t(i * 31 % kKeyDomain))));
      ++n_updates;
    } else {
      uint32_t lo = uint32_t((i * 997) % kKeyDomain);
      ops.push_back(BatchOp::MakeQuery(lo, lo + 800));
      ++n_queries;
    }
  }

  core::UpdateStats before = system.update_stats();
  QueryEngine engine(QueryEngine::Options{4});
  MixedStats stats = engine.RunMixed(&system, ops);

  EXPECT_EQ(stats.queries, n_queries);
  EXPECT_EQ(stats.updates, n_updates);
  EXPECT_EQ(stats.accepted, n_queries);  // honest queries all verify
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.update_failures, 0u);
  EXPECT_GE(stats.update_latency_ms, stats.max_update_latency_ms);

  core::UpdateStats after = system.update_stats();
  EXPECT_EQ(after.inserts - before.inserts, n_updates);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_GT(after.shipment_bytes, before.shipment_bytes);
  EXPECT_GT(after.auth_bytes, before.auth_bytes);
  EXPECT_EQ(system.epoch(), 1 + n_updates);
}

}  // namespace
}  // namespace sae
