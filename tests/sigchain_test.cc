// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Tests for the signature-chaining baseline (Condensed-RSA over chained
// record hashes): honest verification, every attack mode, edge ranges, VO
// wire format, and the condensed-signature algebra.

#include <gtest/gtest.h>

#include "adversary/malicious_sp.h"
#include "sigchain/sig_chain.h"
#include "util/random.h"

namespace sae::sigchain {
namespace {

using storage::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

class SigChainTest : public ::testing::Test {
 protected:
  static SigChainOwner::Options OwnerOptions() {
    SigChainOwner::Options o;
    o.record_size = kRecSize;
    o.rsa_modulus_bits = 512;  // fast for tests
    return o;
  }
  static SigChainSp::Options SpOptions() {
    SigChainSp::Options o;
    o.record_size = kRecSize;
    o.signature_bytes = 64;  // matches 512-bit RSA
    return o;
  }

  SigChainTest() : owner_(OwnerOptions()), sp_(SpOptions()), codec_(kRecSize) {}

  void Load(size_t n, uint32_t stride = 10) {
    std::vector<Record> records;
    for (uint64_t id = 1; id <= n; ++id) {
      records.push_back(codec_.MakeRecord(id, uint32_t(id * stride)));
    }
    auto sigs = owner_.SignDataset(records);
    ASSERT_TRUE(sigs.ok());
    ASSERT_TRUE(
        sp_.LoadDataset(records, sigs.value(), owner_.public_key()).ok());
    // The DO publishes epoch 1 with the signed dataset; the SP stamps it
    // into every VO.
    sp_.SetEpoch(owner_.epoch(), owner_.epoch_signature());
    ASSERT_EQ(owner_.epoch(), 1u);
  }

  Status QueryAndVerify(uint32_t lo, uint32_t hi,
                        size_t* result_count = nullptr) {
    auto response = sp_.ExecuteRange(lo, hi);
    if (!response.ok()) return response.status();
    if (result_count) *result_count = response.value().results.size();
    // Exercise the wire format every time.
    auto vo = SigChainVo::Deserialize(response.value().vo.Serialize());
    if (!vo.ok()) return vo.status();
    return SigChainClient::Verify(lo, hi, response.value().results,
                                  vo.value(), owner_.public_key(), codec_,
                                  crypto::HashScheme::kSha1, owner_.epoch());
  }

  SigChainOwner owner_;
  SigChainSp sp_;
  RecordCodec codec_;
};

TEST_F(SigChainTest, HonestQueriesVerify) {
  Load(200);
  size_t count = 0;
  EXPECT_TRUE(QueryAndVerify(500, 1500, &count).ok());
  EXPECT_EQ(count, 101u);
  EXPECT_TRUE(QueryAndVerify(0, 5000, &count).ok());
  EXPECT_TRUE(QueryAndVerify(777, 888, &count).ok());
}

TEST_F(SigChainTest, EdgeRangesVerify) {
  Load(100);
  // Touching the low edge (no left boundary).
  EXPECT_TRUE(QueryAndVerify(0, 200).ok());
  // Touching the high edge (no right boundary).
  EXPECT_TRUE(QueryAndVerify(900, 100000).ok());
  // Entire table.
  EXPECT_TRUE(QueryAndVerify(0, 100000).ok());
  // Empty result in a gap.
  size_t count = 99;
  EXPECT_TRUE(QueryAndVerify(15, 17, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(SigChainTest, EveryAttackModeDetected) {
  Load(150);
  auto response = sp_.ExecuteRange(300, 1000).ValueOrDie();
  using adversary::AttackMode;
  for (AttackMode mode :
       {AttackMode::kDropOne, AttackMode::kDropAll, AttackMode::kInjectFake,
        AttackMode::kTamperPayload, AttackMode::kTamperKey,
        AttackMode::kDuplicateOne}) {
    std::vector<Record> tampered =
        adversary::ApplyAttack(response.results, mode, codec_, 5);
    Status st = SigChainClient::Verify(300, 1000, tampered, response.vo,
                                       owner_.public_key(), codec_,
                                       crypto::HashScheme::kSha1,
                                       owner_.epoch());
    EXPECT_EQ(st.code(), StatusCode::kVerificationFailure)
        << "mode " << int(mode);
  }
  // The honest result still verifies.
  EXPECT_TRUE(SigChainClient::Verify(300, 1000, response.results, response.vo,
                                     owner_.public_key(), codec_,
                                     crypto::HashScheme::kSha1,
                                     owner_.epoch())
                  .ok());
}

TEST_F(SigChainTest, BoundaryTruncationDetected) {
  Load(100);
  auto response = sp_.ExecuteRange(200, 700).ValueOrDie();
  // Claim the result touches the table edge by dropping the left boundary
  // and faking the sentinel.
  SigChainVo forged = response.vo;
  forged.left_boundary.clear();
  forged.outer_left = LowSentinel();
  EXPECT_FALSE(SigChainClient::Verify(200, 700, response.results, forged,
                                      owner_.public_key(), codec_,
                                      crypto::HashScheme::kSha1,
                                      owner_.epoch())
                   .ok());
}

TEST_F(SigChainTest, WrongRangeClaimDetected) {
  Load(100);
  auto response = sp_.ExecuteRange(200, 700).ValueOrDie();
  // The same VO cannot prove a wider query.
  EXPECT_FALSE(SigChainClient::Verify(200, 900, response.results,
                                      response.vo, owner_.public_key(),
                                      codec_, crypto::HashScheme::kSha1,
                                      owner_.epoch())
                   .ok());
}

TEST_F(SigChainTest, VoSerializationRoundTrip) {
  Load(80);
  auto response = sp_.ExecuteRange(100, 400).ValueOrDie();
  auto bytes = response.vo.Serialize();
  auto back = SigChainVo::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Serialize(), bytes);
  // Truncations are rejected cleanly.
  for (size_t cut : {size_t(0), bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> t(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(SigChainVo::Deserialize(t).ok());
  }
}

TEST_F(SigChainTest, SignatureStorageIsPerRecord) {
  Load(200);
  // 200 signatures of 64 bytes on 4096-byte pages.
  EXPECT_GE(sp_.SignatureStorageBytes(), 200u * 64);
}

// --- batch verification -------------------------------------------------------
//
// VerifyBatch must be verdict-identical to per-item VerifyAnswer while
// paying for the RSA work once: one epoch-token check per distinct token
// and one public-exponent modexp for the whole batch's condensed
// signatures (randomized small-exponent combination, per-item fallback on
// failure for attribution).

class SigChainBatchTest : public SigChainTest {
 protected:
  SigChainClient::BatchItem MakeItem(uint32_t lo, uint32_t hi) {
    auto response = sp_.ExecuteRange(lo, hi).ValueOrDie();
    SigChainClient::BatchItem item;
    item.request = dbms::QueryRequest::Scan(lo, hi);
    item.claimed = dbms::EvaluateAnswer(item.request, response.results);
    item.witness = std::move(response.results);
    item.vo = std::move(response.vo);
    return item;
  }

  // The unbatched reference verdict for one item.
  Status Unbatched(const SigChainClient::BatchItem& item) {
    return SigChainClient::VerifyAnswer(
        item.request, item.claimed, item.witness, item.vo,
        owner_.public_key(), codec_, crypto::HashScheme::kSha1,
        owner_.epoch());
  }
};

TEST_F(SigChainBatchTest, HonestBatchAllAcceptedLikeUnbatched) {
  Load(200);
  std::vector<SigChainClient::BatchItem> items;
  items.push_back(MakeItem(100, 600));
  items.push_back(MakeItem(500, 1500));
  items.push_back(MakeItem(0, 80));        // touches the low table edge
  items.push_back(MakeItem(15, 17));       // empty result
  items.push_back(MakeItem(100, 600));     // duplicate of item 0
  auto verdicts = SigChainClient::VerifyBatch(
      items, owner_.public_key(), codec_, crypto::HashScheme::kSha1,
      owner_.epoch());
  ASSERT_EQ(verdicts.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(verdicts[i].code(), Unbatched(items[i]).code()) << "item " << i;
    EXPECT_TRUE(verdicts[i].ok()) << "item " << i << ": "
                                  << verdicts[i].ToString();
  }
}

TEST_F(SigChainBatchTest, TamperedItemAttributedExactly) {
  Load(200);
  std::vector<SigChainClient::BatchItem> items;
  items.push_back(MakeItem(100, 600));
  items.push_back(MakeItem(500, 1500));
  items.push_back(MakeItem(800, 2000));
  // Tamper item 1's witness: its condensed check must fail — and ONLY its.
  items[1].witness[2].payload.MutableData()[0] ^= 0x5A;
  items[1].claimed = dbms::EvaluateAnswer(items[1].request, items[1].witness);
  auto verdicts = SigChainClient::VerifyBatch(
      items, owner_.public_key(), codec_, crypto::HashScheme::kSha1,
      owner_.epoch());
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_TRUE(verdicts[0].ok());
  EXPECT_EQ(verdicts[1].code(), StatusCode::kVerificationFailure);
  EXPECT_TRUE(verdicts[2].ok());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(verdicts[i].code(), Unbatched(items[i]).code()) << "item " << i;
  }
}

TEST_F(SigChainBatchTest, AnswerLieCaughtWithoutTouchingRsa) {
  Load(150);
  std::vector<SigChainClient::BatchItem> items;
  items.push_back(MakeItem(100, 900));
  items.push_back(MakeItem(100, 900));
  // Item 1 lies about the derived answer over a genuine witness.
  items[1].claimed.count += 1;
  auto verdicts = SigChainClient::VerifyBatch(
      items, owner_.public_key(), codec_, crypto::HashScheme::kSha1,
      owner_.epoch());
  EXPECT_TRUE(verdicts[0].ok());
  EXPECT_EQ(verdicts[1].code(), StatusCode::kVerificationFailure);
}

TEST_F(SigChainBatchTest, StaleAndForgedEpochTokensAttributed) {
  Load(150);
  std::vector<SigChainClient::BatchItem> items;
  items.push_back(MakeItem(100, 900));
  items.push_back(MakeItem(200, 700));
  items.push_back(MakeItem(300, 800));
  owner_.AdvanceEpoch();  // published epoch moves to 2
  sp_.SetEpoch(owner_.epoch(), owner_.epoch_signature());
  items.push_back(MakeItem(400, 1000));  // fresh at epoch 2
  // Item 1 forges the fresh epoch onto its old token: signature breaks.
  items[1].vo.epoch = owner_.epoch();
  // Item 2 keeps its genuine epoch-1 token: stale.
  auto verdicts = SigChainClient::VerifyBatch(
      items, owner_.public_key(), codec_, crypto::HashScheme::kSha1,
      owner_.epoch());
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0].code(), StatusCode::kStaleEpoch);
  EXPECT_EQ(verdicts[1].code(), StatusCode::kVerificationFailure);
  EXPECT_EQ(verdicts[2].code(), StatusCode::kStaleEpoch);
  EXPECT_TRUE(verdicts[3].ok()) << verdicts[3].ToString();
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(verdicts[i].code(), Unbatched(items[i]).code()) << "item " << i;
  }
}

TEST_F(SigChainBatchTest, EmptyBatchAndDeterministicSeeds) {
  Load(100);
  EXPECT_TRUE(SigChainClient::VerifyBatch({}, owner_.public_key(), codec_)
                  .empty());
  // Same items + same seed -> identical verdicts; different seeds draw
  // different combination exponents but must agree on every verdict.
  std::vector<SigChainClient::BatchItem> items;
  items.push_back(MakeItem(100, 500));
  items.push_back(MakeItem(300, 900));
  items[0].witness.pop_back();  // break completeness of item 0
  for (uint64_t seed : {1ull, 2ull, 0xFEEDull}) {
    auto verdicts = SigChainClient::VerifyBatch(
        items, owner_.public_key(), codec_, crypto::HashScheme::kSha1,
        owner_.epoch(), seed);
    EXPECT_EQ(verdicts[0].code(), StatusCode::kVerificationFailure)
        << "seed " << seed;
    EXPECT_TRUE(verdicts[1].ok()) << "seed " << seed;
  }
}

TEST(CondensedRsaTest, AggregateOfOneEqualsPlainVerify) {
  Rng rng(0xABCD);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&rng, 512);
  crypto::Digest d = crypto::ComputeDigest("chain", 5);
  crypto::RsaSignature sig = crypto::RsaSignDigest(key, d);
  crypto::RsaSignature condensed = CondenseSignatures({sig}, key.PublicKey());
  EXPECT_TRUE(VerifyCondensed(key.PublicKey(), {d}, condensed).ok());
}

TEST(CondensedRsaTest, AggregateOrderIndependent) {
  Rng rng(0xABCE);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&rng, 512);
  std::vector<crypto::Digest> digests;
  std::vector<crypto::RsaSignature> sigs;
  for (int i = 0; i < 5; ++i) {
    digests.push_back(crypto::ComputeDigest(&i, sizeof(i)));
    sigs.push_back(crypto::RsaSignDigest(key, digests.back()));
  }
  auto forward = CondenseSignatures(sigs, key.PublicKey());
  std::reverse(sigs.begin(), sigs.end());
  auto backward = CondenseSignatures(sigs, key.PublicKey());
  EXPECT_EQ(forward, backward);
  EXPECT_TRUE(VerifyCondensed(key.PublicKey(), digests, forward).ok());
}

TEST(CondensedRsaTest, MissingOrExtraSignatureFails) {
  Rng rng(0xABCF);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&rng, 512);
  std::vector<crypto::Digest> digests;
  std::vector<crypto::RsaSignature> sigs;
  for (int i = 0; i < 4; ++i) {
    digests.push_back(crypto::ComputeDigest(&i, sizeof(i)));
    sigs.push_back(crypto::RsaSignDigest(key, digests.back()));
  }
  // Aggregate over 3, claim 4.
  auto partial = CondenseSignatures(
      {sigs[0], sigs[1], sigs[2]}, key.PublicKey());
  EXPECT_FALSE(VerifyCondensed(key.PublicKey(), digests, partial).ok());
  // Aggregate over 4, claim 3.
  auto full = CondenseSignatures(sigs, key.PublicKey());
  digests.pop_back();
  EXPECT_FALSE(VerifyCondensed(key.PublicKey(), digests, full).ok());
}

TEST(ChainDigestTest, SentinelsDistinctAndStable) {
  EXPECT_NE(LowSentinel(), HighSentinel());
  crypto::Digest a = crypto::ComputeDigest("a", 1);
  crypto::Digest b = crypto::ComputeDigest("b", 1);
  crypto::Digest c = crypto::ComputeDigest("c", 1);
  EXPECT_EQ(ChainDigest(a, b, c), ChainDigest(a, b, c));
  EXPECT_NE(ChainDigest(a, b, c), ChainDigest(c, b, a));
  EXPECT_NE(ChainDigest(a, b, c), ChainDigest(a, c, b));
}

}  // namespace
}  // namespace sae::sigchain
