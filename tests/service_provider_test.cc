// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The SPs' served bytes. SAE's ServiceProvider::ServeQuery and TOM's
// TomServiceProvider::ServeQuery both build their answer shipment straight
// from heap slots with BuildQueryAnswer (canonical record bytes copied as
// they are, the answer folded from keys and ids read in place); these typed
// tests pin it, for both SPs, to the decoded reference encoding
//   SerializeQueryAnswer(EvaluateAnswer(req, ExecuteRange(..)), .., epoch)
// and pin TOM's VO bytes to ExecuteRange's VO, for every operator, over
// empty ranges, the dataset edges, duplicate keys straddling the top-k cut
// (so the id tie-break decides the winners) and a heap whose slots were
// freed and reused by later inserts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "core/messages.h"
#include "core/service_provider.h"
#include "core/tom.h"
#include "dbms/query.h"
#include "util/random.h"

namespace sae::core {
namespace {

using dbms::QueryRequest;

constexpr size_t kRecordSize = 100;

std::vector<QueryRequest> EveryOperator(Key lo, Key hi) {
  std::vector<QueryRequest> out = {
      QueryRequest::Scan(lo, hi),    QueryRequest::Point(lo),
      QueryRequest::Count(lo, hi),   QueryRequest::Sum(lo, hi),
      QueryRequest::Min(lo, hi),     QueryRequest::Max(lo, hi),
      QueryRequest::TopK(lo, hi, 0), QueryRequest::TopK(lo, hi, 1),
      QueryRequest::TopK(lo, hi, 3), QueryRequest::TopK(lo, hi, 10),
      QueryRequest::TopK(lo, hi, 100000)};
  return out;
}

std::string Describe(const QueryRequest& r) {
  return std::string(dbms::QueryOpName(r.op)) + " [" + std::to_string(r.lo) +
         ", " + std::to_string(r.hi) + "] limit=" + std::to_string(r.limit);
}

// Drives SAE's SP through the interface the typed tests share. It serves
// no proof: the client's proof (VT) comes from the TE.
struct SaeSp {
  static ServiceProviderOptions Options() {
    ServiceProviderOptions options;
    options.record_size = kRecordSize;
    options.index_pool_pages = 64;
    options.heap_pool_pages = 64;
    options.answer_cache = AnswerCacheOptions::Disabled();
    return options;
  }

  Status Load(const std::vector<Record>& records) {
    return sp.LoadDataset(records);
  }
  Status Insert(const Record& record) { return sp.InsertRecord(record); }
  Status Delete(RecordId id) { return sp.DeleteRecord(id); }
  void SetEpoch(uint64_t epoch) { sp.SetEpoch(epoch); }
  uint64_t epoch() const { return sp.epoch(); }
  Result<std::shared_ptr<const CachedAnswer>> Serve(
      const QueryRequest& request) const {
    return sp.ServeQuery(request);
  }
  std::vector<Record> Witness(Key lo, Key hi) const {
    return sp.ExecuteRange(lo, hi).value();
  }
  std::vector<uint8_t> Proof(Key, Key) const { return {}; }

  ServiceProvider sp{Options()};
};

// Drives TOM's SP. The DO's root signature is a fixed stand-in: the SP
// copies it into every VO, and nothing here verifies it.
struct TomSp {
  static TomServiceProviderOptions Options() {
    TomServiceProviderOptions options;
    options.record_size = kRecordSize;
    options.index_pool_pages = 64;
    options.heap_pool_pages = 64;
    options.answer_cache = AnswerCacheOptions::Disabled();
    return options;
  }

  Status Load(const std::vector<Record>& records) {
    return sp.LoadDataset(records, Signature(), sp.epoch());
  }
  Status Insert(const Record& record) {
    return sp.ApplyInsert(record, Signature(), sp.epoch());
  }
  Status Delete(RecordId id) {
    return sp.ApplyDelete(id, Signature(), sp.epoch());
  }
  void SetEpoch(uint64_t epoch) { sp.SetSignature(Signature(), epoch); }
  uint64_t epoch() const { return sp.epoch(); }
  Result<std::shared_ptr<const CachedAnswer>> Serve(
      const QueryRequest& request) const {
    return sp.ServeQuery(request);
  }
  std::vector<Record> Witness(Key lo, Key hi) const {
    return sp.ExecuteRange(lo, hi).value().results;
  }
  std::vector<uint8_t> Proof(Key lo, Key hi) const {
    return sp.ExecuteRange(lo, hi).value().vo.Serialize();
  }

  static crypto::RsaSignature Signature() { return {0x5A, 0xE2, 0x00, 0x09}; }

  TomServiceProvider sp{Options()};
};

template <typename Sp>
class ServeQueryTest : public ::testing::Test {
 protected:
  // Keys 100..4000 in steps of 10, plus a run of eight records on key 5000
  // whose ids are out of order, and a run of three on the top key 9000.
  void Load() {
    std::vector<Record> records;
    RecordId id = 1000;
    for (Key k = 100; k <= 4000; k += 10) {
      records.push_back(codec_.MakeRecord(id++, k));
    }
    for (RecordId dup : {41, 7, 88, 23, 60, 5, 99, 12}) {
      records.push_back(codec_.MakeRecord(dup, 5000));
    }
    for (RecordId dup : {300, 100, 200}) {
      records.push_back(codec_.MakeRecord(dup, 9000));
    }
    ASSERT_TRUE(sp_.Load(records).ok());
    sp_.SetEpoch(7);
  }

  void ExpectGolden(const QueryRequest& request) {
    std::vector<Record> witness = sp_.Witness(request.lo, request.hi);
    dbms::QueryAnswer answer = dbms::EvaluateAnswer(request, witness);
    std::vector<uint8_t> golden =
        SerializeQueryAnswer(answer, witness, sp_.epoch(), codec_);
    auto served = sp_.Serve(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value()->answer_msg, golden) << Describe(request);
    EXPECT_EQ(served.value()->proof_msg, sp_.Proof(request.lo, request.hi))
        << Describe(request);
    auto decoded = DeserializeQueryAnswer(served.value()->answer_msg, codec_);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().answer, answer) << Describe(request);
    EXPECT_EQ(decoded.value().witness, witness) << Describe(request);
    EXPECT_EQ(decoded.value().epoch, sp_.epoch());
  }

  void ExpectGoldenEverywhere() {
    const Key ranges[][2] = {
        {0, 0xFFFFFFFFu},  // whole dataset
        {0, 99},           // below the first key: empty
        {9001, 0xFFFFFFFFu},  // above the last key: empty
        {101, 109},        // between two keys: empty
        {100, 100},        // first key
        {9000, 9000},      // last key, duplicated
        {0, 100},          // lower edge
        {9000, 0xFFFFFFFFu},  // upper edge
        {5000, 5000},      // the duplicate run alone
        {3990, 5000},      // the duplicate run at the top of the range
        {4000, 9000},      // both duplicate runs
        {1234, 2345},      // interior
    };
    for (const auto& range : ranges) {
      for (const QueryRequest& request : EveryOperator(range[0], range[1])) {
        ExpectGolden(request);
      }
    }
  }

  Sp sp_;
  RecordCodec codec_{kRecordSize};
};

class SpName {
 public:
  template <typename Sp>
  static std::string GetName(int) {
    return std::is_same_v<Sp, SaeSp> ? "Sae" : "Tom";
  }
};

using BothSps = ::testing::Types<SaeSp, TomSp>;
TYPED_TEST_SUITE(ServeQueryTest, BothSps, SpName);

TYPED_TEST(ServeQueryTest, EmptySpServesEmptyAnswers) {
  for (const QueryRequest& request : EveryOperator(0, 0xFFFFFFFFu)) {
    this->ExpectGolden(request);
  }
}

TYPED_TEST(ServeQueryTest, EveryOperatorMatchesTheDecodedPlan) {
  this->Load();
  this->ExpectGoldenEverywhere();
}

// Top-3 over [4000, 5000] cuts the eight-record run on key 5000: the
// winners are its three largest ids, best first.
TYPED_TEST(ServeQueryTest, DuplicateKeysAtTheTopKCutBreakTiesById) {
  this->Load();
  auto served =
      this->sp_.Serve(QueryRequest::TopK(4000, 5000, 3)).value();
  auto decoded =
      DeserializeQueryAnswer(served->answer_msg, this->codec_).value();
  ASSERT_EQ(decoded.answer.records.size(), 3u);
  EXPECT_EQ(decoded.answer.records[0].id, 99u);
  EXPECT_EQ(decoded.answer.records[1].id, 88u);
  EXPECT_EQ(decoded.answer.records[2].id, 60u);
  for (const Record& r : decoded.answer.records) EXPECT_EQ(r.key, 5000u);
  this->ExpectGolden(QueryRequest::TopK(4000, 5000, 3));
}

// Deletes free heap slots and later inserts reuse them, so key order and
// heap order diverge and the duplicate run spreads over several pages.
TYPED_TEST(ServeQueryTest, SlotsReusedAfterDeletesServeTheSameBytes) {
  this->Load();
  Rng rng(0x5E7E);
  for (RecordId id = 1000; id < 1390; id += 3) {
    ASSERT_TRUE(this->sp_.Delete(id).ok());
  }
  ASSERT_TRUE(this->sp_.Delete(41).ok());
  ASSERT_TRUE(this->sp_.Delete(300).ok());
  for (RecordId id = 20000; id < 20150; ++id) {
    Key key = id % 5 == 0 ? 5000 : Key(100 + rng.NextBounded(9000));
    ASSERT_TRUE(this->sp_.Insert(this->codec_.MakeRecord(id, key)).ok());
  }
  this->sp_.SetEpoch(8);
  this->ExpectGoldenEverywhere();
}

// The accumulator's top-k is the full (key desc, id desc) sort cut to the
// limit, on random data with many duplicate keys.
TEST(AnswerAccumulatorTest, TopKMatchesFullSort) {
  RecordCodec codec(kRecordSize);
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Record> range;
    size_t n = rng.NextBounded(60);
    for (size_t i = 0; i < n; ++i) {
      range.push_back(codec.MakeRecord(rng.NextBounded(1000) + 1,
                                       Key(rng.NextBounded(8))));
    }
    std::sort(range.begin(), range.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    uint32_t limit = uint32_t(rng.NextBounded(70));
    std::vector<Record> expect = range;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Record& a, const Record& b) {
                       return a.key != b.key ? a.key > b.key : a.id > b.id;
                     });
    if (expect.size() > limit) expect.resize(limit);
    dbms::QueryAnswer answer =
        dbms::EvaluateAnswer(QueryRequest::TopK(0, 10, limit), range);
    EXPECT_EQ(answer.records, expect) << "trial=" << trial;
    EXPECT_EQ(answer.count, n);
  }
}

}  // namespace
}  // namespace sae::core
