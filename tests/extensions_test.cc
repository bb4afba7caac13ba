// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Tests for the extensions beyond the paper's core: the multi-attribute
// trusted entity and the network/response-time model.

#include <gtest/gtest.h>

#include <map>

#include "core/client.h"
#include "core/multi_attr.h"
#include "sim/network.h"
#include "util/codec.h"

namespace sae {
namespace {

using core::AttributeSpec;
using core::MultiAttrTrustedEntity;
using core::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

// Schema: attribute "price" is record.key; attribute "weight" is packed
// little-endian into the first payload bytes.
Record MakeItem(uint64_t id, uint32_t price, uint32_t weight) {
  RecordCodec codec(kRecSize);
  Record r = codec.MakeRecord(id, price);
  EncodeU32(r.payload.MutableData(), weight);
  return r;
}

uint32_t WeightOf(const Record& r) { return DecodeU32(r.payload.data()); }

class MultiAttrTest : public ::testing::Test {
 protected:
  MultiAttrTest()
      : te_({AttributeSpec{"price", [](const Record& r) { return r.key; }},
             AttributeSpec{"weight", WeightOf}},
            MultiAttrTrustedEntity::Options{kRecSize,
                                            crypto::HashScheme::kSha1, 512}) {
    for (uint64_t id = 1; id <= 300; ++id) {
      records_.push_back(
          MakeItem(id, uint32_t(id * 10), uint32_t(3000 - id * 7)));
    }
    SAE_CHECK_OK(te_.LoadDataset(records_));
  }

  // Reference result for a range on a given extractor.
  std::vector<Record> Expected(const std::function<uint32_t(const Record&)>& f,
                               uint32_t lo, uint32_t hi) const {
    std::vector<Record> out;
    for (const auto& r : records_) {
      uint32_t k = f(r);
      if (k >= lo && k <= hi) out.push_back(r);
    }
    return out;
  }

  MultiAttrTrustedEntity te_;
  std::vector<Record> records_;
  RecordCodec codec_{kRecSize};
};

TEST_F(MultiAttrTest, AttributeNames) {
  auto names = te_.AttributeNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "price");
  EXPECT_EQ(names[1], "weight");
}

TEST_F(MultiAttrTest, TokensVerifyOnBothAttributes) {
  auto price_results =
      Expected([](const Record& r) { return r.key; }, 500, 1500);
  auto vt = te_.GenerateVt("price", 500, 1500);
  ASSERT_TRUE(vt.ok());
  EXPECT_TRUE(
      core::Client::VerifyResult(price_results, vt.value(), codec_).ok());

  auto weight_results = Expected(WeightOf, 1000, 2000);
  auto wvt = te_.GenerateVt("weight", 1000, 2000);
  ASSERT_TRUE(wvt.ok());
  EXPECT_TRUE(
      core::Client::VerifyResult(weight_results, wvt.value(), codec_).ok());
  // The two attributes select different subsets.
  EXPECT_NE(price_results.size(), weight_results.size());
}

TEST_F(MultiAttrTest, UnknownAttributeRejected) {
  EXPECT_EQ(te_.GenerateVt("color", 0, 10).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MultiAttrTest, TamperedResultFailsOnEitherAttribute) {
  auto results = Expected(WeightOf, 1000, 2000);
  ASSERT_FALSE(results.empty());
  auto vt = te_.GenerateVt("weight", 1000, 2000).ValueOrDie();
  results.pop_back();
  EXPECT_FALSE(core::Client::VerifyResult(results, vt, codec_).ok());
}

TEST_F(MultiAttrTest, UpdatesMaintainAllTrees) {
  Record fresh = MakeItem(9999, 1234, 1234);
  ASSERT_TRUE(te_.InsertRecord(fresh).ok());
  records_.push_back(fresh);

  // Both attribute tokens reflect the insert.
  for (auto [attr, f] : std::vector<
           std::pair<std::string, std::function<uint32_t(const Record&)>>>{
           {"price", [](const Record& r) { return r.key; }},
           {"weight", WeightOf}}) {
    auto vt = te_.GenerateVt(attr, 1000, 1500).ValueOrDie();
    EXPECT_TRUE(
        core::Client::VerifyResult(Expected(f, 1000, 1500), vt, codec_).ok())
        << attr;
  }

  ASSERT_TRUE(te_.DeleteRecord(fresh).ok());
  records_.pop_back();
  auto vt = te_.GenerateVt("price", 1000, 1500).ValueOrDie();
  EXPECT_TRUE(core::Client::VerifyResult(
                  Expected([](const Record& r) { return r.key; }, 1000, 1500),
                  vt, codec_)
                  .ok());
}

TEST_F(MultiAttrTest, StorageScalesWithAttributeCount) {
  MultiAttrTrustedEntity single(
      {AttributeSpec{"price", [](const Record& r) { return r.key; }}},
      MultiAttrTrustedEntity::Options{kRecSize, crypto::HashScheme::kSha1,
                                      512});
  ASSERT_TRUE(single.LoadDataset(records_).ok());
  EXPECT_GT(te_.StorageBytes(), single.StorageBytes());
  EXPECT_LT(te_.StorageBytes(), single.StorageBytes() * 3);
}

// --- network model ---------------------------------------------------------------

TEST(NetworkModelTest, TransferCombinesLatencyAndBandwidth) {
  sim::NetworkModel net{10.0, 8.0};  // 10ms, 8 Mbit/s = 1000 bytes/ms
  EXPECT_DOUBLE_EQ(net.TransferMs(0), 10.0);
  EXPECT_NEAR(net.TransferMs(1000), 11.0, 1e-9);
  EXPECT_NEAR(net.TransferMs(100000), 110.0, 1e-9);
}

TEST(NetworkModelTest, SaeTakesSlowerOfParallelPaths) {
  sim::NetworkModel net{10.0, 8.0};
  // SP path dominates.
  double r1 = sim::SaeResponseMs(net, 100.0, 1.0, 1000, 21, 9, 0.5);
  EXPECT_NEAR(r1, (10 + 0.009) + 100 + (10 + 1.0) + 0.5, 1e-2);
  // TE path dominates when the SP is instant.
  double r2 = sim::SaeResponseMs(net, 0.0, 500.0, 0, 21, 9, 0.5);
  EXPECT_NEAR(r2, (10 + 0.009) + 500 + (10 + 0.021) + 0.5, 1e-2);
}

TEST(NetworkModelTest, TomPaysForVoBytes) {
  sim::NetworkModel net{10.0, 8.0};
  double slim = sim::TomResponseMs(net, 50.0, 1000, 0, 9, 0.5);
  double bulky = sim::TomResponseMs(net, 50.0, 1000, 10000, 9, 0.5);
  EXPECT_NEAR(bulky - slim, 10.0, 1e-9);  // 10 KB at 1 B/us
}

TEST(NetworkModelTest, SaeBeatsTomWhenVoDominates) {
  // Same processing, same result size; TOM additionally ships a 10 KB VO,
  // SAE a 21-byte token on a parallel path.
  sim::NetworkModel net{20.0, 8.0};
  double sae = sim::SaeResponseMs(net, 80.0, 30.0, 50000, 21, 9, 1.0);
  double tom = sim::TomResponseMs(net, 80.0, 50000, 10000, 9, 1.0);
  EXPECT_LT(sae, tom);
}

}  // namespace
}  // namespace sae
