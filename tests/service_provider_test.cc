// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The SAE SP's served bytes. ServiceProvider::ServeQuery builds an answer
// shipment straight from heap slots (canonical record bytes copied as they
// are, the answer folded from keys and ids read in place); these tests pin
// it to the decoded reference encoding
//   SerializeQueryAnswer(EvaluateAnswer(req, ExecuteRange(..)), .., epoch)
// for every operator, over empty ranges, the dataset edges, duplicate keys
// straddling the top-k cut (so the id tie-break decides the winners) and a
// heap whose slots were freed and reused by later inserts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/service_provider.h"
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

class ServeQueryTest : public ::testing::Test {
 protected:
  ServeQueryTest()
      : sp_(ServiceProviderOptions{kRecordSize, 64, 64,
                                   AnswerCacheOptions::Disabled()}),
        codec_(kRecordSize) {}

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
    ASSERT_TRUE(sp_.LoadDataset(records).ok());
    sp_.SetEpoch(7);
  }

  void ExpectGolden(const QueryRequest& request) {
    std::vector<Record> witness =
        sp_.ExecuteRange(request.lo, request.hi).value();
    dbms::QueryAnswer answer = dbms::EvaluateAnswer(request, witness);
    std::vector<uint8_t> golden =
        SerializeQueryAnswer(answer, witness, sp_.epoch(), codec_);
    auto served = sp_.ServeQuery(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value()->answer_msg, golden) << Describe(request);
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

  ServiceProvider sp_;
  RecordCodec codec_;
};

TEST_F(ServeQueryTest, EmptySpServesEmptyAnswers) {
  for (const QueryRequest& request : EveryOperator(0, 0xFFFFFFFFu)) {
    ExpectGolden(request);
  }
}

TEST_F(ServeQueryTest, EveryOperatorMatchesTheDecodedPlan) {
  Load();
  ExpectGoldenEverywhere();
}

// Top-3 over [4000, 5000] cuts the eight-record run on key 5000: the
// winners are its three largest ids, best first.
TEST_F(ServeQueryTest, DuplicateKeysAtTheTopKCutBreakTiesById) {
  Load();
  auto served = sp_.ServeQuery(QueryRequest::TopK(4000, 5000, 3)).value();
  auto decoded = DeserializeQueryAnswer(served->answer_msg, codec_).value();
  ASSERT_EQ(decoded.answer.records.size(), 3u);
  EXPECT_EQ(decoded.answer.records[0].id, 99u);
  EXPECT_EQ(decoded.answer.records[1].id, 88u);
  EXPECT_EQ(decoded.answer.records[2].id, 60u);
  for (const Record& r : decoded.answer.records) EXPECT_EQ(r.key, 5000u);
  ExpectGolden(QueryRequest::TopK(4000, 5000, 3));
}

// Deletes free heap slots and later inserts reuse them, so key order and
// heap order diverge and the duplicate run spreads over several pages.
TEST_F(ServeQueryTest, SlotsReusedAfterDeletesServeTheSameBytes) {
  Load();
  Rng rng(0x5E7E);
  for (RecordId id = 1000; id < 1390; id += 3) {
    ASSERT_TRUE(sp_.DeleteRecord(id).ok());
  }
  ASSERT_TRUE(sp_.DeleteRecord(41).ok());
  ASSERT_TRUE(sp_.DeleteRecord(300).ok());
  for (RecordId id = 20000; id < 20150; ++id) {
    Key key = id % 5 == 0 ? 5000 : Key(100 + rng.NextBounded(9000));
    ASSERT_TRUE(sp_.InsertRecord(codec_.MakeRecord(id, key)).ok());
  }
  sp_.SetEpoch(8);
  ExpectGoldenEverywhere();
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
