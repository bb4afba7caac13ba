// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Sharded execution tier suite: ShardRouter fence math and partitioning,
// N=1 equivalence with the unsharded systems (bit-identical results and
// tokens), cross-shard ranges against a serial unsharded oracle,
// shard-boundary edge cases (empty shards, ranges exactly on a fence),
// the sharded malicious-SP matrix (one compromised shard among honest
// ones must be detected and attributed without poisoning the honest
// slices), cross-shard epoch agreement (kStaleEpoch vs kShardEpochSkew),
// composite VO round-trips, and shard-parallel updates (run under
// ThreadSanitizer in CI).

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "core/messages.h"
#include "core/query_engine.h"
#include "core/shard_router.h"
#include "core/sharded_system.h"
#include "core/system.h"
#include "mbtree/composite_vo.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace sae {
namespace {

using adversary::AttackMode;
using core::BatchQuery;
using core::QueryEngine;
using core::SaeSystem;
using core::ShardedSaeSystem;
using core::ShardedSystem;
using core::ShardedTomSystem;
using core::ShardRouter;
using core::TomSystem;
using storage::Key;
using storage::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

std::vector<Record> MakeDataset(size_t n, uint32_t key_stride = 10) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records;
  records.reserve(n);
  for (uint64_t id = 1; id <= n; ++id) {
    records.push_back(codec.MakeRecord(id, uint32_t(id * key_stride)));
  }
  return records;
}

std::vector<uint8_t> Flatten(const std::vector<Record>& records) {
  RecordCodec codec(kRecSize);
  std::vector<uint8_t> bytes;
  bytes.reserve(records.size() * kRecSize);
  std::vector<uint8_t> scratch(kRecSize);
  for (const Record& record : records) {
    codec.Serialize(record, scratch.data());
    bytes.insert(bytes.end(), scratch.begin(), scratch.end());
  }
  return bytes;
}

template <typename Base>
typename ShardedSystem<Base>::Options ShardedOptions() {
  typename ShardedSystem<Base>::Options options;
  options.base.record_size = kRecSize;
  return options;
}

// --- ShardRouter -------------------------------------------------------------

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  ShardRouter router;
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(ShardRouter::kMaxKey), 0u);
  auto slices = router.Partition(5, 500);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].shard, 0u);
  EXPECT_EQ(slices[0].lo, 5u);
  EXPECT_EQ(slices[0].hi, 500u);
}

TEST(ShardRouterTest, FenceOwnershipIsHalfOpen) {
  ShardRouter router({100, 200});
  EXPECT_EQ(router.num_shards(), 3u);
  EXPECT_EQ(router.ShardOf(99), 0u);
  EXPECT_EQ(router.ShardOf(100), 1u);  // fence key belongs to the upper shard
  EXPECT_EQ(router.ShardOf(199), 1u);
  EXPECT_EQ(router.ShardOf(200), 2u);
  EXPECT_EQ(router.shard_hi(0) + 1, router.shard_lo(1));
  EXPECT_EQ(router.shard_hi(1) + 1, router.shard_lo(2));
  EXPECT_EQ(router.shard_hi(2), ShardRouter::kMaxKey);
}

TEST(ShardRouterTest, PartitionClipsAtFences) {
  ShardRouter router({100, 200});
  auto slices = router.Partition(50, 250);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].lo, 50u);
  EXPECT_EQ(slices[0].hi, 99u);
  EXPECT_EQ(slices[1].lo, 100u);
  EXPECT_EQ(slices[1].hi, 199u);
  EXPECT_EQ(slices[2].lo, 200u);
  EXPECT_EQ(slices[2].hi, 250u);

  // Range exactly on a fence key: [fence, fence] is a one-shard query.
  auto on_fence = router.Partition(100, 100);
  ASSERT_EQ(on_fence.size(), 1u);
  EXPECT_EQ(on_fence[0].shard, 1u);

  // [fence-1, fence] spans the boundary by exactly one key on each side.
  auto straddle = router.Partition(99, 100);
  ASSERT_EQ(straddle.size(), 2u);
  EXPECT_EQ(straddle[0].shard, 0u);
  EXPECT_EQ(straddle[0].hi, 99u);
  EXPECT_EQ(straddle[1].lo, 100u);
}

TEST(ShardRouterTest, VerifyCoverRejectsGapsOverlapsAndForeignFences) {
  ShardRouter router({100, 200});
  auto good = router.Partition(50, 250);
  EXPECT_TRUE(router.VerifyCover(50, 250, good).ok());

  auto missing = good;
  missing.erase(missing.begin() + 1);  // hide the middle shard
  EXPECT_FALSE(router.VerifyCover(50, 250, missing).ok());

  auto moved = good;
  moved[0].hi = 120;  // shard 0 claims keys beyond its fence
  moved[1].lo = 121;
  EXPECT_FALSE(router.VerifyCover(50, 250, moved).ok());

  auto short_cover = good;
  short_cover[2].hi = 240;  // stops before the query's upper bound
  EXPECT_FALSE(router.VerifyCover(50, 250, short_cover).ok());
}

TEST(ShardRouterTest, EqualWidthAndBalancedProduceValidFences) {
  ShardRouter width = ShardRouter::EqualWidth(4, 1000);
  EXPECT_EQ(width.num_shards(), 4u);
  ASSERT_EQ(width.fences().size(), 3u);
  EXPECT_EQ(width.fences()[0], 250u);

  auto dataset = MakeDataset(1000);
  ShardRouter balanced = ShardRouter::Balanced(dataset, 4);
  EXPECT_EQ(balanced.num_shards(), 4u);
  std::vector<size_t> counts(balanced.num_shards(), 0);
  for (const Record& r : dataset) ++counts[balanced.ShardOf(r.key)];
  for (size_t count : counts) {
    EXPECT_GT(count, dataset.size() / 8);  // roughly balanced
  }
}

TEST(ShardRouterTest, BalancedDegradesOnDuplicateHeavyKeys) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 100; ++id) {
    records.push_back(codec.MakeRecord(id, 7));  // one single key
  }
  ShardRouter router = ShardRouter::Balanced(records, 4);
  EXPECT_EQ(router.num_shards(), 1u);  // no valid fence exists
}

TEST(ShardRouterTest, CrossShardQueriesStraddleFences) {
  ShardRouter router = ShardRouter::EqualWidth(4, 10'000);
  workload::QueryWorkloadSpec spec;
  spec.count = 40;
  spec.domain_max = 10'000;
  auto queries = workload::GenerateCrossShardQueries(spec, router.fences());
  ASSERT_EQ(queries.size(), spec.count);
  for (const auto& q : queries) {
    EXPECT_GE(router.Partition(q.lo, q.hi).size(), 2u)
        << "[" << q.lo << ", " << q.hi << "]";
  }
}

// --- N = 1 degenerate config: bit-identical to the unsharded path ------------

TEST(ShardedSaeTest, SingleShardIsBitIdenticalToUnsharded) {
  auto dataset = MakeDataset(600);

  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem unsharded(options);
  ASSERT_TRUE(unsharded.Load(dataset).ok());

  ShardedSaeSystem sharded(ShardRouter(), ShardedOptions<SaeSystem>());
  ASSERT_EQ(sharded.num_shards(), 1u);
  ASSERT_TRUE(sharded.Load(dataset).ok());

  for (auto [lo, hi] : {std::pair<Key, Key>{0, 6000},
                        {150, 1500},
                        {777, 777},
                        {5990, 9000}}) {
    auto plain = unsharded.Query(lo, hi);
    auto shard = sharded.Query(lo, hi);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(shard.ok());
    EXPECT_TRUE(shard.value().verification.ok());
    EXPECT_EQ(Flatten(plain.value().results),
              Flatten(shard.value().results));
    ASSERT_EQ(shard.value().slices.size(), 1u);
    EXPECT_EQ(shard.value().slices[0].outcome.vt, plain.value().vt);
    EXPECT_EQ(shard.value().costs.te_accesses,
              plain.value().costs.te_accesses);
  }
}

TEST(ShardedTomTest, SingleShardIsBitIdenticalToUnsharded) {
  auto dataset = MakeDataset(400);

  TomSystem::Options options;
  options.record_size = kRecSize;
  TomSystem unsharded(options);
  ASSERT_TRUE(unsharded.Load(dataset).ok());

  ShardedTomSystem sharded(ShardRouter(), ShardedOptions<TomSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  auto plain = unsharded.Query(100, 2500);
  auto shard = sharded.Query(100, 2500);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(shard.ok());
  EXPECT_TRUE(shard.value().verification.ok());
  EXPECT_EQ(Flatten(plain.value().results), Flatten(shard.value().results));
  ASSERT_EQ(shard.value().slices.size(), 1u);
  EXPECT_EQ(shard.value().slices[0].outcome.vo.Serialize(),
            plain.value().vo.Serialize());
}

// --- cross-shard ranges vs the unsharded oracle ------------------------------

TEST(ShardedSaeTest, CrossShardRangeMatchesUnshardedOracle) {
  auto dataset = MakeDataset(900);  // keys 10..9000

  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem oracle(options);
  ASSERT_TRUE(oracle.Load(dataset).ok());

  ShardedSaeSystem sharded(ShardRouter({3000, 6000}),
                           ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  // Spans all three shards.
  auto plain = oracle.Query(2500, 6500);
  auto shard = sharded.Query(2500, 6500);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(shard.ok());
  ASSERT_EQ(shard.value().slices.size(), 3u);
  EXPECT_TRUE(shard.value().verification.ok());
  EXPECT_EQ(Flatten(plain.value().results), Flatten(shard.value().results));
}

TEST(ShardedSaeTest, RandomizedCrossShardRangesMatchOracle) {
  auto dataset = MakeDataset(800);
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem oracle(options);
  ASSERT_TRUE(oracle.Load(dataset).ok());

  ShardRouter router = ShardRouter::Balanced(dataset, 4);
  ASSERT_EQ(router.num_shards(), 4u);
  ShardedSaeSystem sharded(router, ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  workload::QueryWorkloadSpec spec;
  spec.count = 60;
  spec.domain_max = 8000;
  spec.extent_fraction = 0.25;
  auto queries = workload::GenerateCrossShardQueries(spec, router.fences());
  size_t multi_shard = 0;
  for (const auto& q : queries) {
    auto plain = oracle.Query(q.lo, q.hi);
    auto shard = sharded.Query(q.lo, q.hi);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(shard.ok());
    EXPECT_TRUE(shard.value().verification.ok()) << q.lo << ".." << q.hi;
    EXPECT_EQ(Flatten(plain.value().results),
              Flatten(shard.value().results));
    multi_shard += shard.value().slices.size() >= 2 ? 1 : 0;
  }
  EXPECT_EQ(multi_shard, queries.size());  // every query crossed a fence
}

TEST(ShardedTomTest, RandomizedCrossShardRangesMatchOracle) {
  auto dataset = MakeDataset(500);
  TomSystem::Options options;
  options.record_size = kRecSize;
  TomSystem oracle(options);
  ASSERT_TRUE(oracle.Load(dataset).ok());

  ShardRouter router({1500, 3300});
  ShardedTomSystem sharded(router, ShardedOptions<TomSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  workload::QueryWorkloadSpec spec;
  spec.count = 25;
  spec.domain_max = 5000;
  spec.extent_fraction = 0.2;
  auto queries = workload::GenerateCrossShardQueries(spec, router.fences());
  for (const auto& q : queries) {
    auto plain = oracle.Query(q.lo, q.hi);
    auto shard = sharded.Query(q.lo, q.hi);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(shard.ok());
    EXPECT_TRUE(shard.value().verification.ok());
    EXPECT_EQ(Flatten(plain.value().results),
              Flatten(shard.value().results));
  }
}

// --- shard-boundary edge cases -----------------------------------------------

TEST(ShardedSaeTest, EmptyShardsAnswerAndVerify) {
  // All keys land in shard 1 of three; shards 0 and 2 stay empty.
  auto dataset = MakeDataset(200, 1);  // keys 1..200
  ShardedSaeSystem sharded(ShardRouter({1, 1000}),
                           ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());
  EXPECT_EQ(sharded.ShardEpochs(), (std::vector<uint64_t>{1, 1, 1}));

  // Query spanning all three shards: the empty shards contribute empty,
  // verified slices.
  auto outcome = sharded.Query(0, 2000);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok());
  ASSERT_EQ(outcome.value().slices.size(), 3u);
  EXPECT_TRUE(outcome.value().slices[0].outcome.results.empty());
  EXPECT_EQ(outcome.value().slices[1].outcome.results.size(), 200u);
  EXPECT_TRUE(outcome.value().slices[2].outcome.results.empty());

  // A query entirely inside an empty shard verifies an empty result.
  auto empty = sharded.Query(1500, 1800);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().verification.ok());
  EXPECT_TRUE(empty.value().results.empty());
}

TEST(ShardedTomTest, EmptyShardsAnswerAndVerify) {
  auto dataset = MakeDataset(150, 1);  // keys 1..150
  ShardedTomSystem sharded(ShardRouter({500}), ShardedOptions<TomSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  auto outcome = sharded.Query(100, 900);  // spans into the empty shard
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok());
  EXPECT_EQ(outcome.value().results.size(), 51u);  // keys 100..150
}

TEST(ShardedSaeTest, RangeExactlyOnFenceKeys) {
  auto dataset = MakeDataset(600);  // keys 10..6000
  ShardRouter router({3000});
  ShardedSaeSystem sharded(router, ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem oracle(options);
  ASSERT_TRUE(oracle.Load(dataset).ok());

  // [fence, fence]: single-shard point query on the boundary key.
  auto on = sharded.Query(3000, 3000);
  ASSERT_TRUE(on.ok());
  ASSERT_EQ(on.value().slices.size(), 1u);
  EXPECT_EQ(on.value().slices[0].shard, 1u);
  EXPECT_TRUE(on.value().verification.ok());
  EXPECT_EQ(on.value().results.size(), 1u);

  // [lo, fence-1] stays entirely in the lower shard.
  auto below = sharded.Query(2500, 2999);
  ASSERT_TRUE(below.ok());
  ASSERT_EQ(below.value().slices.size(), 1u);
  EXPECT_EQ(below.value().slices[0].shard, 0u);
  EXPECT_TRUE(below.value().verification.ok());

  // [fence-1, fence] splits into two one-key slices on the boundary.
  auto straddle = sharded.Query(2999, 3000);
  ASSERT_TRUE(straddle.ok());
  ASSERT_EQ(straddle.value().slices.size(), 2u);
  EXPECT_TRUE(straddle.value().verification.ok());
  auto plain = oracle.Query(2999, 3000);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Flatten(plain.value().results),
            Flatten(straddle.value().results));
}

// --- the sharded malicious-SP matrix -----------------------------------------

class ShardedMaliciousTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeDataset(600);  // keys 10..6000
    router_ = ShardRouter({2000, 4000});
    sae_ = std::make_unique<ShardedSaeSystem>(router_,
                                              ShardedOptions<SaeSystem>());
    ASSERT_TRUE(sae_->Load(dataset_).ok());
    tom_ = std::make_unique<ShardedTomSystem>(router_,
                                              ShardedOptions<TomSystem>());
    ASSERT_TRUE(tom_->Load(dataset_).ok());
    sae_attacker_ =
        std::make_unique<adversary::ShardedSaeAdversary>(sae_.get());
    tom_attacker_ =
        std::make_unique<adversary::ShardedTomAdversary>(tom_.get());
  }

  std::vector<Record> dataset_;
  ShardRouter router_{std::vector<Key>{}};
  std::unique_ptr<ShardedSaeSystem> sae_;
  std::unique_ptr<ShardedTomSystem> tom_;
  std::unique_ptr<adversary::ShardedSaeAdversary> sae_attacker_;
  std::unique_ptr<adversary::ShardedTomAdversary> tom_attacker_;
};

TEST_F(ShardedMaliciousTest, OneCompromisedShardIsAttributedSae) {
  const AttackMode kMutations[] = {
      AttackMode::kDropOne,     AttackMode::kDropAll,
      AttackMode::kInjectFake,  AttackMode::kTamperPayload,
      AttackMode::kTamperKey,   AttackMode::kDuplicateOne,
  };
  for (AttackMode mode : kMutations) {
    for (size_t bad_shard = 0; bad_shard < 3; ++bad_shard) {
      auto outcome = sae_attacker_->Query(1500, 4500, mode, bad_shard);
      ASSERT_TRUE(outcome.ok());
      const auto& v = outcome.value();
      EXPECT_EQ(v.verification.code(), StatusCode::kVerificationFailure)
          << "mode " << int(mode) << " shard " << bad_shard;
      // Attribution: the message names the shard, and exactly the honest
      // slices verified — the compromised shard never poisons them.
      EXPECT_NE(v.verification.message().find(std::to_string(bad_shard)),
                std::string::npos);
      for (const auto& slice : v.slices) {
        if (slice.shard == bad_shard) {
          EXPECT_FALSE(slice.outcome.verification.ok());
        } else {
          EXPECT_TRUE(slice.outcome.verification.ok());
        }
      }
    }
  }
}

TEST_F(ShardedMaliciousTest, OneCompromisedShardIsAttributedTom) {
  for (AttackMode mode :
       {AttackMode::kDropOne, AttackMode::kTamperPayload}) {
    for (size_t bad_shard = 0; bad_shard < 3; ++bad_shard) {
      auto outcome = tom_attacker_->Query(1500, 4500, mode, bad_shard);
      ASSERT_TRUE(outcome.ok());
      const auto& v = outcome.value();
      EXPECT_EQ(v.verification.code(), StatusCode::kVerificationFailure);
      for (const auto& slice : v.slices) {
        EXPECT_EQ(slice.outcome.verification.ok(), slice.shard != bad_shard);
      }
    }
  }
}

// The aggregate adversarial matrix, sharded: one shard lies about its
// partial COUNT/SUM or truncates its top-k winners while every witness
// byte it ships is genuine. The per-slice answer recomputation catches it,
// the composite fold attributes it, and the honest slices stay verified.
TEST_F(ShardedMaliciousTest, AggregateTamperingShardIsAttributed) {
  struct Case {
    dbms::QueryRequest request;
    AttackMode mode;
  };
  const Case kCases[] = {
      {dbms::QueryRequest::Count(1500, 4500), AttackMode::kWrongCount},
      {dbms::QueryRequest::Sum(1500, 4500), AttackMode::kWrongSum},
      {dbms::QueryRequest::TopK(1500, 4500, 7), AttackMode::kTruncatedTopK},
  };
  for (const Case& c : kCases) {
    for (size_t bad_shard = 0; bad_shard < 3; ++bad_shard) {
      auto sae = sae_attacker_->Query(c.request, c.mode, bad_shard);
      ASSERT_TRUE(sae.ok());
      EXPECT_EQ(sae.value().verification.code(),
                StatusCode::kVerificationFailure)
          << "SAE mode " << int(c.mode) << " shard " << bad_shard;
      EXPECT_NE(sae.value().verification.message().find(
                    std::to_string(bad_shard)),
                std::string::npos);
      for (const auto& slice : sae.value().slices) {
        EXPECT_EQ(slice.outcome.verification.ok(), slice.shard != bad_shard);
      }

      auto tom = tom_attacker_->Query(c.request, c.mode, bad_shard);
      ASSERT_TRUE(tom.ok());
      EXPECT_EQ(tom.value().verification.code(),
                StatusCode::kVerificationFailure)
          << "TOM mode " << int(c.mode) << " shard " << bad_shard;
      EXPECT_NE(tom.value().verification.message().find(
                    std::to_string(bad_shard)),
                std::string::npos);
      for (const auto& slice : tom.value().slices) {
        EXPECT_EQ(slice.outcome.verification.ok(), slice.shard != bad_shard);
      }
    }
  }
}

// With every shard honest the same cross-shard aggregates verify and the
// composite answer folds to the oracle's — the matrix's control row.
TEST_F(ShardedMaliciousTest, HonestCrossShardAggregatesVerify) {
  SaeSystem oracle{[] {
    SaeSystem::Options o;
    o.record_size = kRecSize;
    return o;
  }()};
  ASSERT_TRUE(oracle.Load(dataset_).ok());
  for (const auto& request :
       {dbms::QueryRequest::Count(1500, 4500),
        dbms::QueryRequest::Sum(1500, 4500), dbms::QueryRequest::Min(1500, 4500),
        dbms::QueryRequest::Max(1500, 4500),
        dbms::QueryRequest::TopK(1500, 4500, 7)}) {
    auto composite = sae_->Query(request);
    auto plain = oracle.Query(request);
    ASSERT_TRUE(composite.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(composite.value().verification.ok());
    EXPECT_EQ(composite.value().answer, plain.value().answer)
        << dbms::QueryOpName(request.op);
  }
}

TEST_F(ShardedMaliciousTest, AttackOutsideQueriedShardsIsHarmless) {
  // The compromised shard owns keys >= 4000; the query never touches it.
  auto outcome =
      sae_attacker_->Query(100, 1900, AttackMode::kTamperPayload, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok());
}

TEST_F(ShardedMaliciousTest, StaleShardAmongFreshOnesIsSkewSae) {
  // One shard replays a stale token inside a three-shard answer: its slice
  // is stale while its neighbours are fresh — a torn snapshot, reported as
  // kShardEpochSkew (not plain staleness) and attributed to the laggard.
  auto outcome =
      sae_attacker_->Query(1500, 4500, AttackMode::kStaleVt, 1);
  ASSERT_TRUE(outcome.ok());
  const auto& v = outcome.value();
  EXPECT_EQ(v.verification.code(), StatusCode::kShardEpochSkew);
  EXPECT_NE(v.verification.message().find("1"), std::string::npos);
  for (const auto& slice : v.slices) {
    if (slice.shard == 1) {
      EXPECT_EQ(slice.outcome.verification.code(), StatusCode::kStaleEpoch);
    } else {
      EXPECT_TRUE(slice.outcome.verification.ok());
    }
  }
}

TEST_F(ShardedMaliciousTest, AllShardsStaleIsReplayNotSkewSae) {
  auto outcome = sae_attacker_->Query(1500, 4500, AttackMode::kStaleVt);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verification.code(), StatusCode::kStaleEpoch);
}

TEST_F(ShardedMaliciousTest, StaleShardAmongFreshOnesIsSkewTom) {
  auto outcome =
      tom_attacker_->Query(1500, 4500, AttackMode::kStaleVt, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verification.code(),
            StatusCode::kShardEpochSkew);

  auto all = tom_attacker_->Query(1500, 4500, AttackMode::kStaleVt);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().verification.code(), StatusCode::kStaleEpoch);
}

// --- per-shard epochs and update routing -------------------------------------

TEST(ShardedSaeTest, UpdatesBumpOnlyTheOwningShardEpoch) {
  auto dataset = MakeDataset(300);  // keys 10..3000
  ShardedSaeSystem sharded(ShardRouter({1000, 2000}),
                           ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());
  EXPECT_EQ(sharded.ShardEpochs(), (std::vector<uint64_t>{1, 1, 1}));

  RecordCodec codec(kRecSize);
  auto update = sharded.InsertVersioned(codec.MakeRecord(9001, 1500));
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update.value().shard, 1u);
  EXPECT_EQ(update.value().epoch, 2u);
  EXPECT_EQ(sharded.ShardEpochs(), (std::vector<uint64_t>{1, 2, 1}));

  // Cross-shard reads remain fresh: each slice speaks for its own shard's
  // epoch, and the published vector is the client's reference.
  auto outcome = sharded.Query(500, 2500);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok());

  auto del = sharded.DeleteVersioned(9001);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().shard, 1u);
  EXPECT_EQ(del.value().epoch, 3u);

  // Directory-level routing: deleting an unknown id fails cleanly.
  EXPECT_EQ(sharded.DeleteVersioned(777777).status().code(),
            StatusCode::kNotFound);
  // Cross-shard duplicate ids are rejected before touching any shard.
  EXPECT_EQ(sharded.Insert(codec.MakeRecord(5, 2500)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ShardedSaeTest, ShardEpochVectorMessageRoundTrips) {
  auto dataset = MakeDataset(100);
  ShardedSaeSystem sharded(ShardRouter({500}), ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());
  RecordCodec codec(kRecSize);
  ASSERT_TRUE(sharded.Insert(codec.MakeRecord(5000, 700)).ok());

  std::vector<uint8_t> msg =
      core::SerializeShardEpochs(sharded.ShardEpochs());
  auto decoded = core::DeserializeShardEpochs(msg);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), (std::vector<uint64_t>{1, 2}));

  std::vector<uint8_t> truncated(msg.begin(), msg.end() - 3);
  EXPECT_FALSE(core::DeserializeShardEpochs(truncated).ok());
}

TEST(ShardedSaeTest, ThinClientCompositeVerification) {
  // The SAE analog of mbtree::VerifyComposite: a thin client re-verifies a
  // stitched answer from the DO-published fences + epoch vector alone.
  auto dataset = MakeDataset(500);  // keys 10..5000
  ShardRouter router({2000, 3500});
  ShardedSaeSystem sharded(router, ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  auto outcome = sharded.Query(1000, 4000);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().slices.size(), 3u);

  std::vector<core::Client::ShardSlice> slices;
  for (const auto& slice : outcome.value().slices) {
    core::Client::ShardSlice thin;
    thin.shard = slice.shard;
    thin.lo = slice.lo;
    thin.hi = slice.hi;
    thin.results = slice.outcome.results;
    thin.vt = slice.outcome.vt;
    thin.claimed_epoch = slice.outcome.claimed_epoch;
    slices.push_back(std::move(thin));
  }
  RecordCodec codec(kRecSize);
  std::vector<std::pair<size_t, Status>> verdicts;
  Status st = core::Client::VerifyShardedResult(
      1000, 4000, slices, router.fences(), sharded.ShardEpochs(), codec,
      crypto::HashScheme::kSha1, &verdicts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(verdicts.size(), 3u);

  // Tamper one record inside shard 1's slice: attributed failure.
  auto tampered = slices;
  ASSERT_FALSE(tampered[1].results.empty());
  tampered[1].results[0].payload.MutableData()[0] ^= 0x5A;
  st = core::Client::VerifyShardedResult(1000, 4000, tampered,
                                         router.fences(),
                                         sharded.ShardEpochs(), codec,
                                         crypto::HashScheme::kSha1,
                                         &verdicts);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
  EXPECT_TRUE(verdicts[0].second.ok());
  EXPECT_FALSE(verdicts[1].second.ok());
  EXPECT_TRUE(verdicts[2].second.ok());

  // A published vector fresher than one slice's epoch: skew; fresher than
  // all: uniform staleness.
  std::vector<uint64_t> published = sharded.ShardEpochs();
  published[2] += 1;
  st = core::Client::VerifyShardedResult(1000, 4000, slices,
                                         router.fences(), published, codec,
                                         crypto::HashScheme::kSha1, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kShardEpochSkew);
  for (uint64_t& epoch : published) epoch += 1;
  st = core::Client::VerifyShardedResult(1000, 4000, slices,
                                         router.fences(), published, codec,
                                         crypto::HashScheme::kSha1, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kStaleEpoch);

  // A hidden slice fails the fence-cover check.
  auto hidden = slices;
  hidden.erase(hidden.begin() + 1);
  st = core::Client::VerifyShardedResult(1000, 4000, hidden,
                                         router.fences(),
                                         sharded.ShardEpochs(), codec,
                                         crypto::HashScheme::kSha1, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

// --- composite VO (wire-level proof) -----------------------------------------

class CompositeVoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeDataset(400);  // keys 10..4000
    router_ = ShardRouter({1500, 3000});
    system_ = std::make_unique<ShardedTomSystem>(router_,
                                                 ShardedOptions<TomSystem>());
    ASSERT_TRUE(system_->Load(dataset_).ok());
  }

  crypto::RsaPublicKey OwnerKey() {
    return system_->shard(0).owner().public_key();
  }

  std::vector<Record> dataset_;
  ShardRouter router_{std::vector<Key>{}};
  std::unique_ptr<ShardedTomSystem> system_;
};

TEST_F(CompositeVoTest, RoundTripsAndVerifies) {
  auto outcome = system_->Query(1000, 3500);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().verification.ok());
  ASSERT_EQ(outcome.value().slices.size(), 3u);

  mbtree::CompositeVo cvo = core::BuildCompositeVo(outcome.value());
  std::vector<uint8_t> bytes = cvo.Serialize();
  auto decoded = mbtree::CompositeVo::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().Serialize(), bytes);

  RecordCodec codec(kRecSize);
  std::vector<mbtree::ShardVoVerdict> verdicts;
  Status st = mbtree::VerifyComposite(
      decoded.value(), 1000, 3500, outcome.value().results,
      router_.fences(), OwnerKey(), codec, crypto::HashScheme::kSha1,
      system_->ShardEpochs(), &verdicts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(verdicts.size(), 3u);
  for (const auto& verdict : verdicts) {
    EXPECT_TRUE(verdict.status.ok());
    EXPECT_EQ(verdict.epoch, 1u);
  }
}

TEST_F(CompositeVoTest, DetectsTamperedRecordInOneShard) {
  auto outcome = system_->Query(1000, 3500);
  ASSERT_TRUE(outcome.ok());
  mbtree::CompositeVo cvo = core::BuildCompositeVo(outcome.value());

  std::vector<Record> tampered = outcome.value().results;
  // Corrupt a record owned by the middle shard (keys 1500..2999).
  for (Record& record : tampered) {
    if (record.key >= 1500 && record.key < 3000) {
      record.payload.MutableData()[0] ^= 0xFF;
      break;
    }
  }
  RecordCodec codec(kRecSize);
  std::vector<mbtree::ShardVoVerdict> verdicts;
  Status st = mbtree::VerifyComposite(
      cvo, 1000, 3500, tampered, router_.fences(), OwnerKey(), codec,
      crypto::HashScheme::kSha1, system_->ShardEpochs(), &verdicts);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
  // Attribution: only the middle shard's verdict fails.
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_TRUE(verdicts[0].status.ok());
  EXPECT_FALSE(verdicts[1].status.ok());
  EXPECT_TRUE(verdicts[2].status.ok());
}

TEST_F(CompositeVoTest, DetectsHiddenShardSlice) {
  auto outcome = system_->Query(1000, 3500);
  ASSERT_TRUE(outcome.ok());
  mbtree::CompositeVo cvo = core::BuildCompositeVo(outcome.value());
  cvo.parts.erase(cvo.parts.begin() + 1);  // hide the middle shard

  std::vector<Record> results;
  for (const Record& record : outcome.value().results) {
    if (record.key < 1500 || record.key >= 3000) results.push_back(record);
  }
  RecordCodec codec(kRecSize);
  Status st = mbtree::VerifyComposite(
      cvo, 1000, 3500, results, router_.fences(), OwnerKey(), codec,
      crypto::HashScheme::kSha1, system_->ShardEpochs(), nullptr);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

TEST_F(CompositeVoTest, StaleShardEpochIsSkewAgainstFreshVector) {
  auto outcome = system_->Query(1000, 3500);
  ASSERT_TRUE(outcome.ok());
  mbtree::CompositeVo cvo = core::BuildCompositeVo(outcome.value());

  // The DO publishes a fresher epoch for shard 1 than its VO carries —
  // e.g. the client fetched the vector after an update the SP has not
  // applied. The composite must read as skew, not generic corruption.
  std::vector<uint64_t> published = system_->ShardEpochs();
  published[1] += 1;
  RecordCodec codec(kRecSize);
  Status st = mbtree::VerifyComposite(
      cvo, 1000, 3500, outcome.value().results, router_.fences(), OwnerKey(),
      codec, crypto::HashScheme::kSha1, published, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kShardEpochSkew);

  // Every entry fresher than its VO: a uniform replay -> kStaleEpoch.
  for (uint64_t& epoch : published) epoch += 1;
  st = mbtree::VerifyComposite(cvo, 1000, 3500, outcome.value().results,
                               router_.fences(), OwnerKey(), codec,
                               crypto::HashScheme::kSha1, published, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kStaleEpoch);
}

// --- engine integration ------------------------------------------------------

TEST(ShardedEngineTest, BatchesRunAgainstShardedSystems) {
  auto dataset = MakeDataset(500);
  ShardedSaeSystem sharded(ShardRouter({2500}), ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  std::vector<BatchQuery> batch;
  for (uint32_t lo = 0; lo < 4500; lo += 450) {
    batch.push_back(BatchQuery{lo, lo + 600});
  }
  QueryEngine engine(core::QueryEngineOptions{3});
  auto run = engine.RunBatch(&sharded, batch);
  EXPECT_EQ(run.stats.accepted, batch.size());
  EXPECT_EQ(run.stats.rejected + run.stats.failed, 0u);

  // A batch-wide attack applies to every shard (unsharded semantics).
  adversary::ShardedSaeAdversary attacker(&sharded);
  std::vector<BatchQuery> bad = batch;
  for (auto& q : bad) q.tap = attacker.Tap(AttackMode::kTamperPayload);
  auto rejected = engine.RunBatch(&sharded, bad);
  EXPECT_EQ(rejected.stats.rejected, bad.size());
}

TEST(ShardedEngineTest, MixedBatchesRouteUpdatesAcrossShards) {
  auto dataset = MakeDataset(400);
  ShardedSaeSystem sharded(ShardRouter({2000}), ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  RecordCodec codec(kRecSize);
  std::vector<core::BatchOp> ops;
  for (size_t i = 0; i < 40; ++i) {
    if (i % 4 == 0) {
      ops.push_back(core::BatchOp::MakeInsert(
          codec.MakeRecord(10'000 + i, uint32_t(100 + i * 97))));
    } else {
      uint32_t lo = uint32_t(i * 90);
      ops.push_back(core::BatchOp::MakeQuery(lo, lo + 500));
    }
  }
  QueryEngine engine(core::QueryEngineOptions{4});
  core::MixedStats stats = engine.RunMixedBatch(&sharded, ops);
  EXPECT_EQ(stats.updates, 10u);
  EXPECT_EQ(stats.update_failures, 0u);
  EXPECT_EQ(stats.accepted, stats.queries);
  EXPECT_EQ(stats.failed + stats.rejected, 0u);
}

// --- shard-parallel writers (ThreadSanitizer target) -------------------------

TEST(ShardedConcurrencyTest, ConcurrentQueriesShareTheFanoutPoolSafely) {
  // Regression: the internal fan-out QueryEngine serves one job at a
  // time; with fanout_workers > 0, concurrent multi-shard queries used to
  // race over its job state (empty result slots -> crash). Now the first
  // query in takes the pool via a try-lock and the rest fan out inline.
  auto dataset = MakeDataset(400);  // keys 10..4000
  auto options = ShardedOptions<SaeSystem>();
  options.fanout_workers = 2;
  ShardedSaeSystem sharded(ShardRouter({1500, 3000}), options);
  ASSERT_TRUE(sharded.Load(dataset).ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 25; ++i) {
        auto outcome = sharded.ExecuteQuery(1000, 3500);
        if (!outcome.ok() || !outcome.value().verification.ok() ||
            outcome.value().slices.size() != 3) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ShardedConcurrencyTest, WritersOnDifferentShardsRunInParallel) {
  auto dataset = MakeDataset(300);  // keys 10..3000
  ShardedSaeSystem sharded(ShardRouter({1000, 2000}),
                           ShardedOptions<SaeSystem>());
  ASSERT_TRUE(sharded.Load(dataset).ok());

  constexpr size_t kWritersPerShard = 2;
  constexpr size_t kOpsPerWriter = 15;
  RecordCodec codec(kRecSize);
  std::atomic<size_t> failures{0};

  std::vector<std::thread> threads;
  // Writers pinned to distinct shards' key ranges never contend on a
  // shard lock; readers fan out across all three shards concurrently.
  for (size_t shard = 0; shard < 3; ++shard) {
    for (size_t w = 0; w < kWritersPerShard; ++w) {
      threads.emplace_back([&, shard, w] {
        for (size_t i = 0; i < kOpsPerWriter; ++i) {
          uint64_t id = 100'000 + shard * 10'000 + w * 1000 + i;
          uint32_t key = uint32_t(shard * 1000 + 100 + i);
          auto inserted =
              sharded.InsertVersioned(codec.MakeRecord(id, key));
          if (!inserted.ok() || inserted.value().shard != shard) {
            ++failures;
          }
        }
      });
    }
  }
  for (size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 20; ++i) {
        auto outcome = sharded.Query(500, 2500);
        if (!outcome.ok() || !outcome.value().verification.ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every shard absorbed exactly its own writers' updates.
  std::vector<uint64_t> epochs = sharded.ShardEpochs();
  ASSERT_EQ(epochs.size(), 3u);
  for (uint64_t epoch : epochs) {
    EXPECT_EQ(epoch, 1 + kWritersPerShard * kOpsPerWriter);
  }

  // The post-churn database still matches a freshly loaded oracle.
  auto all = sharded.Query(0, 5000);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all.value().verification.ok());
}

}  // namespace
}  // namespace sae
