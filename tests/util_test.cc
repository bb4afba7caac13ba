// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for src/util: Status/Result, codecs, PRNG, Zipf, hex.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/codec.h"
#include "util/hex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/zipf.h"

namespace sae {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing key");
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes{
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::IoError("").code(),
      Status::Corruption("").code(),      Status::OutOfRange("").code(),
      Status::VerificationFailure("").code(),
      Status::Unimplemented("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IoError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "payload");
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int in, int* out) {
  SAE_ASSIGN_OR_RETURN(*out, HalveEven(in));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status st = UseAssignOrReturn(7, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --- codec ---------------------------------------------------------------------

TEST(CodecTest, FixedWidthRoundTrip) {
  uint8_t buf[8];
  EncodeU16(buf, 0xBEEF);
  EXPECT_EQ(DecodeU16(buf), 0xBEEF);
  EncodeU32(buf, 0xDEADBEEFu);
  EXPECT_EQ(DecodeU32(buf), 0xDEADBEEFu);
  EncodeU64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeU64(buf), 0x0123456789ABCDEFull);
}

TEST(CodecTest, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU16(300);
  w.PutU32(70000);
  w.PutU64(1ull << 40);
  w.PutString("hello");
  std::vector<uint8_t> buf = w.Release();

  ByteReader r(buf);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_EQ(r.GetU16(), 300);
  EXPECT_EQ(r.GetU32(), 70000u);
  EXPECT_EQ(r.GetU64(), 1ull << 40);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(CodecTest, ReaderSetsStickyErrorOnTruncation) {
  ByteWriter w;
  w.PutU16(1234);
  std::vector<uint8_t> buf = w.Release();
  ByteReader r(buf);
  EXPECT_EQ(r.GetU32(), 0u);  // needs 4 bytes, only 2 available
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetU8(), 0);  // stays failed
  EXPECT_TRUE(r.failed());
}

TEST(CodecTest, EmptyStringRoundTrip) {
  ByteWriter w;
  w.PutString("");
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.failed());
}

// A decoder reading a zero-length field (an empty signature or boundary)
// into an empty vector hands GetBytes a null destination; the read must
// succeed without touching memory or moving the cursor.
TEST(CodecTest, ZeroByteReadIntoEmptyVector) {
  std::vector<uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  EXPECT_EQ(r.GetU8(), 1);
  std::vector<uint8_t> empty;
  EXPECT_TRUE(r.GetBytes(empty.data(), 0));
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.GetU8(), 2);

  std::vector<uint8_t> none;
  ByteReader at_end(none);
  EXPECT_TRUE(at_end.GetBytes(empty.data(), 0));
  EXPECT_FALSE(at_end.failed());
  EXPECT_EQ(at_end.remaining(), 0u);
}

// --- rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --- zipf ----------------------------------------------------------------------

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfGenerator zipf(1000, 0.8);
  Rng rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next(&rng)];
  // Rank 0 must dominate any mid-pack rank.
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(ZipfTest, AllRanksWithinDomain) {
  ZipfGenerator zipf(50, 0.8);
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(zipf.Next(&rng), 50u);
}

TEST(ZipfTest, ThetaZeroDegeneratesTowardUniform) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(8);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Next(&rng)];
  for (const auto& [rank, count] : counts) {
    EXPECT_GT(count, kDraws / 10 * 0.85) << "rank " << rank;
    EXPECT_LT(count, kDraws / 10 * 1.15) << "rank " << rank;
  }
}

// Skew calibration. The paper states Zipf(0.8) puts "77% of the search keys
// in 20% of the domain"; under the standard Gray et al. parameterization
// (P(rank i) ~ 1/i^0.8 over 1000 buckets) the exact figure is ~65%, and no
// bucket count reaches 77% at theta = 0.8 (the limit is 0.2^0.2 = 72.5%).
// We pin our generator's true behaviour here and document the delta in
// docs/BENCHMARKS.md; the qualitative skew the SKW experiments rely on (dense
// low-domain region, sparse tail) is unaffected.
TEST(ZipfTest, SkewConcentration) {
  constexpr uint32_t kDomainMax = 10'000'000;
  SkewedKeyGenerator gen(kDomainMax, 0.8, 1000, 42);
  constexpr int kDraws = 200000;
  int in_low_fifth = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.Next() <= kDomainMax / 5) ++in_low_fifth;
  }
  double fraction = double(in_low_fifth) / kDraws;
  EXPECT_GT(fraction, 0.60);
  EXPECT_LT(fraction, 0.72);
}

TEST(ZipfTest, SkewedKeysStayInDomain) {
  SkewedKeyGenerator gen(1000, 0.8, 100, 1);
  for (int i = 0; i < 10000; ++i) EXPECT_LE(gen.Next(), 1000u);
}

// --- hex -----------------------------------------------------------------------

TEST(HexTest, EncodeDecode) {
  std::vector<uint8_t> data{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  std::string hex = HexEncode(data.data(), data.size());
  EXPECT_EQ(hex, "deadbeef007f");
  EXPECT_EQ(HexDecode(hex), data);
}

TEST(HexTest, DecodeRejectsMalformed) {
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // non-hex
}

TEST(HexTest, EmptyRoundTrip) {
  EXPECT_EQ(HexEncode(nullptr, 0), "");
  EXPECT_TRUE(HexDecode("").empty());
}

}  // namespace
}  // namespace sae
