// Copyright (c) saedb authors. Licensed under the MIT license.
//
// End-to-end integration tests over the full SAE and TOM systems: realistic
// (downscaled) workloads, every attack mode, dynamic updates, and the
// headline cross-model comparisons the paper claims.

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "core/system.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace sae::core {
namespace {

using adversary::AttackMode;

constexpr size_t kRecSize = 120;
constexpr uint32_t kDomain = 100000;

std::vector<Record> TestDataset(size_t n,
                                workload::Distribution dist =
                                    workload::Distribution::kUniform) {
  workload::DatasetSpec spec;
  spec.cardinality = n;
  spec.distribution = dist;
  spec.domain_max = kDomain;
  spec.record_size = kRecSize;
  spec.seed = 2024;
  return workload::GenerateDataset(spec);
}

SaeSystem::Options SaeOptions() {
  SaeSystem::Options o;
  o.record_size = kRecSize;
  return o;
}

TomSystem::Options TomOptions() {
  TomSystem::Options o;
  o.record_size = kRecSize;
  o.rsa_modulus_bits = 512;  // fast for tests
  return o;
}

class SystemsTest : public ::testing::Test {
 protected:
  void LoadBoth(size_t n, workload::Distribution dist =
                              workload::Distribution::kUniform) {
    auto records = TestDataset(n, dist);
    sae_ = std::make_unique<SaeSystem>(SaeOptions());
    tom_ = std::make_unique<TomSystem>(TomOptions());
    ASSERT_TRUE(sae_->Load(records).ok());
    ASSERT_TRUE(tom_->Load(records).ok());
  }

  std::unique_ptr<SaeSystem> sae_;
  std::unique_ptr<TomSystem> tom_;
};

TEST_F(SystemsTest, HonestQueriesVerifyInBothModels) {
  LoadBoth(3000);
  workload::QueryWorkloadSpec qspec;
  qspec.count = 20;
  qspec.extent_fraction = 0.01;
  qspec.domain_max = kDomain;
  for (const auto& q : workload::GenerateQueries(qspec)) {
    auto sae = sae_->Query(q.lo, q.hi);
    ASSERT_TRUE(sae.ok());
    EXPECT_TRUE(sae.value().verification.ok());

    auto tom = tom_->Query(q.lo, q.hi);
    ASSERT_TRUE(tom.ok());
    EXPECT_TRUE(tom.value().verification.ok());

    // Both models must return the same (correct) result set.
    EXPECT_EQ(sae.value().results.size(), tom.value().results.size());
  }
}

TEST_F(SystemsTest, EveryAttackIsDetectedInBothModels) {
  LoadBoth(2000);
  for (AttackMode mode :
       {AttackMode::kDropOne, AttackMode::kDropAll, AttackMode::kInjectFake,
        AttackMode::kTamperPayload, AttackMode::kTamperKey,
        AttackMode::kDuplicateOne}) {
    adversary::SaeSpAttack sae_attack(mode, &sae_->sp());
    auto sae = sae_->ExecuteQuery(10000, 30000, &sae_attack);
    ASSERT_TRUE(sae.ok());
    EXPECT_EQ(sae.value().verification.code(),
              StatusCode::kVerificationFailure)
        << "SAE missed attack " << int(mode);

    adversary::TomSpAttack tom_attack(mode, &tom_->sp());
    auto tom = tom_->ExecuteQuery(10000, 30000, &tom_attack);
    ASSERT_TRUE(tom.ok());
    EXPECT_FALSE(tom.value().verification.ok())
        << "TOM missed attack " << int(mode);
  }
}

TEST_F(SystemsTest, HonestModeIsNotFlaggedAfterAttacks) {
  LoadBoth(1000);
  adversary::SaeSpAttack drop_all(AttackMode::kDropAll, &sae_->sp());
  ASSERT_TRUE(sae_->ExecuteQuery(0, 50000, &drop_all).ok());
  auto honest = sae_->Query(0, 50000);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest.value().verification.ok());
}

TEST_F(SystemsTest, VtIsConstantSizeVoGrows) {
  LoadBoth(5000);
  auto narrow_sae = sae_->Query(10000, 10300).value();
  auto wide_sae = sae_->Query(10000, 40000).value();
  EXPECT_EQ(narrow_sae.costs.auth_bytes, wide_sae.costs.auth_bytes)
      << "VT must not grow with the result";
  // tag + 8-byte epoch stamp + 20-byte digest.
  EXPECT_EQ(wide_sae.costs.auth_bytes, 29u);

  auto narrow_tom = tom_->Query(10000, 10300).value();
  EXPECT_GT(narrow_tom.costs.auth_bytes, 50 * narrow_sae.costs.auth_bytes)
      << "VO should be orders of magnitude larger than VT";
}

TEST_F(SystemsTest, SaeSpCheaperThanTomSp) {
  // Caches off: the comparison is about fanout-driven pool accesses, which
  // the hot-level node cache (deliberately) absorbs for the MB-tree.
  auto records = TestDataset(8000);
  sae_ = std::make_unique<SaeSystem>(SaeOptions().DisableCaches());
  tom_ = std::make_unique<TomSystem>(TomOptions().DisableCaches());
  ASSERT_TRUE(sae_->Load(records).ok());
  ASSERT_TRUE(tom_->Load(records).ok());
  workload::QueryWorkloadSpec qspec;
  qspec.count = 15;
  qspec.extent_fraction = 0.01;
  qspec.domain_max = kDomain;
  uint64_t sae_index = 0, tom_index = 0;
  for (const auto& q : workload::GenerateQueries(qspec)) {
    sae_index += sae_->Query(q.lo, q.hi).value().costs.sp_index_accesses;
    tom_index += tom_->Query(q.lo, q.hi).value().costs.sp_index_accesses;
  }
  // The MB-tree's lower fanout must cost the TOM SP more index accesses.
  EXPECT_LT(sae_index, tom_index);
}

TEST_F(SystemsTest, TeStorageTinyVsSp) {
  // At the paper's 500-byte record size the TE footprint is a small
  // fraction of the SP's (Fig. 8); this suite's 120-byte records still
  // leave a clear gap.
  LoadBoth(5000);
  EXPECT_LT(sae_->te().StorageBytes(), sae_->sp().StorageBytes() * 6 / 10);
}

TEST_F(SystemsTest, SkewedDatasetWorksEndToEnd) {
  LoadBoth(3000, workload::Distribution::kSkewed);
  // Queries in the dense region return large results; sparse region small.
  auto dense = sae_->Query(0, kDomain / 10).value();
  auto sparse = sae_->Query(kDomain - kDomain / 10, kDomain).value();
  EXPECT_TRUE(dense.verification.ok());
  EXPECT_TRUE(sparse.verification.ok());
  EXPECT_GT(dense.results.size(), sparse.results.size());

  auto tom_dense = tom_->Query(0, kDomain / 10).value();
  EXPECT_TRUE(tom_dense.verification.ok());
  EXPECT_EQ(tom_dense.results.size(), dense.results.size());
}

TEST_F(SystemsTest, DynamicUpdatesKeepBothModelsVerifiable) {
  LoadBoth(1500);
  RecordCodec codec(kRecSize);
  // Interleave inserts and deletes, then query and verify.
  for (uint64_t i = 0; i < 30; ++i) {
    Record fresh = codec.MakeRecord(100000 + i, uint32_t(i * 997 % kDomain));
    ASSERT_TRUE(sae_->Insert(fresh).ok());
    ASSERT_TRUE(tom_->Insert(fresh).ok());
  }
  for (uint64_t id = 100; id < 120; ++id) {
    ASSERT_TRUE(sae_->Delete(id).ok());
    ASSERT_TRUE(tom_->Delete(id).ok());
  }
  for (auto [lo, hi] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 20000}, {30000, 60000}, {0, kDomain}}) {
    auto sae = sae_->Query(lo, hi);
    ASSERT_TRUE(sae.ok());
    EXPECT_TRUE(sae.value().verification.ok()) << lo << ".." << hi;
    auto tom = tom_->Query(lo, hi);
    ASSERT_TRUE(tom.ok());
    EXPECT_TRUE(tom.value().verification.ok()) << lo << ".." << hi;
    EXPECT_EQ(sae.value().results.size(), tom.value().results.size());
  }
}

TEST_F(SystemsTest, UpdateThenAttackStillDetected) {
  LoadBoth(1000);
  RecordCodec codec(kRecSize);
  ASSERT_TRUE(sae_->Insert(codec.MakeRecord(99999, 500)).ok());
  adversary::SaeSpAttack drop_one(AttackMode::kDropOne, &sae_->sp());
  auto outcome = sae_->ExecuteQuery(0, 2000, &drop_one);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().verification.ok());
}

TEST_F(SystemsTest, EmptyRangeVerifiesInBothModels) {
  LoadBoth(500);
  // Probe for an empty gap: with stride-spread uniform keys over a 100k
  // domain and 500 records, most 10-wide ranges are empty.
  auto sae = sae_->Query(55555, 55560).value();
  EXPECT_TRUE(sae.verification.ok());
  auto tom = tom_->Query(55555, 55560).value();
  EXPECT_TRUE(tom.verification.ok());
  EXPECT_EQ(sae.results.size(), tom.results.size());
}

TEST_F(SystemsTest, ChannelMeteringTracksTraffic) {
  LoadBoth(1000);
  uint64_t before = sae_->te_client_channel().total_bytes();
  ASSERT_TRUE(sae_->Query(0, 1000).ok());
  EXPECT_EQ(sae_->te_client_channel().total_bytes(), before + 29);
  EXPECT_GT(sae_->do_sp_channel().total_bytes(), 1000 * kRecSize);
}

}  // namespace
}  // namespace sae::core
