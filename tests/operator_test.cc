// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Functional coverage for the verified query-operator layer: all six
// operators (point, COUNT, SUM, MIN, MAX, top-k) plus the scan baseline,
// executed and verified end to end in SAE, TOM and sharded deployments,
// replayed against a brute-force oracle; the dbms plan-layer primitives
// (EvaluateAnswer / CheckAnswer / MergeAnswers); and the wire round-trips.
// The adversarial side of the operator matrix lives in security_test.cc and
// sharding_test.cc.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/messages.h"
#include "core/query_engine.h"
#include "core/sharded_system.h"
#include "core/system.h"
#include "dbms/query.h"
#include "workload/queries.h"

namespace sae {
namespace {

using core::Record;
using dbms::QueryAnswer;
using dbms::QueryOp;
using dbms::QueryRequest;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

std::vector<Record> Dataset(size_t n) {
  RecordCodec codec(kRecSize);
  std::vector<Record> out;
  for (uint64_t id = 1; id <= n; ++id) {
    // Deliberate duplicate keys (id*10 % 970) so ties exercise the
    // deterministic top-k order.
    out.push_back(codec.MakeRecord(id, uint32_t((id * 10) % 970)));
  }
  return out;
}

// Brute-force oracle over the raw dataset.
std::vector<Record> OracleRange(const std::vector<Record>& all, uint32_t lo,
                                uint32_t hi) {
  std::vector<Record> out;
  for (const Record& r : all) {
    if (r.key >= lo && r.key <= hi) out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
  return out;
}

std::vector<QueryRequest> AllOperators(uint32_t lo, uint32_t hi,
                                       uint32_t limit = 5) {
  return {QueryRequest::Scan(lo, hi),  QueryRequest::Point(lo),
          QueryRequest::Count(lo, hi), QueryRequest::Sum(lo, hi),
          QueryRequest::Min(lo, hi),   QueryRequest::Max(lo, hi),
          QueryRequest::TopK(lo, hi, limit)};
}

// Checks an accepted outcome against the oracle-derived expectation.
template <typename Outcome>
void ExpectMatchesOracle(const Outcome& outcome, const QueryRequest& request,
                         const std::vector<Record>& all) {
  ASSERT_TRUE(outcome.verification.ok())
      << dbms::QueryOpName(request.op) << ": "
      << outcome.verification.ToString();
  std::vector<Record> range = OracleRange(all, request.lo, request.hi);
  QueryAnswer expect = dbms::EvaluateAnswer(request, range);
  EXPECT_EQ(outcome.answer, expect) << dbms::QueryOpName(request.op);
  // The witness is always the full range record set.
  EXPECT_EQ(outcome.results.size(), range.size());
  // Spot-check the derived dimensions against a from-scratch fold.
  uint64_t sum = 0;
  for (const Record& r : range) sum += r.key;
  EXPECT_EQ(outcome.answer.count, range.size());
  EXPECT_EQ(outcome.answer.sum, sum);
  if (!range.empty()) {
    ASSERT_TRUE(outcome.answer.has_extrema);
    EXPECT_EQ(outcome.answer.min_key, range.front().key);
    EXPECT_EQ(outcome.answer.max_key, range.back().key);
  } else {
    EXPECT_FALSE(outcome.answer.has_extrema);
  }
}

// --- plan-layer primitives --------------------------------------------------------

TEST(QueryPlanTest, EvaluateAnswerDerivesEveryDimension) {
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 30), codec.MakeRecord(2, 10),
                               codec.MakeRecord(3, 20)};
  QueryAnswer a = dbms::EvaluateAnswer(QueryRequest::Count(0, 100), range);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 60u);
  EXPECT_TRUE(a.has_extrema);
  EXPECT_EQ(a.min_key, 10u);
  EXPECT_EQ(a.max_key, 30u);
  EXPECT_TRUE(a.records.empty());  // pure aggregate: no rows of its own
  // Scan/point answers carry no rows either — their rows ARE the witness,
  // held once by the protocol layer, never duplicated into the answer.
  EXPECT_TRUE(
      dbms::EvaluateAnswer(QueryRequest::Scan(0, 100), range).records.empty());
  EXPECT_TRUE(
      dbms::EvaluateAnswer(QueryRequest::Point(10), range).records.empty());
}

TEST(QueryPlanTest, TopKRanksDescendingWithIdTieBreak) {
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 20), codec.MakeRecord(2, 30),
                               codec.MakeRecord(3, 30), codec.MakeRecord(4, 10)};
  QueryAnswer a = dbms::EvaluateAnswer(QueryRequest::TopK(0, 100, 3), range);
  ASSERT_EQ(a.records.size(), 3u);
  EXPECT_EQ(a.records[0].id, 3u);  // key 30, higher id first
  EXPECT_EQ(a.records[1].id, 2u);  // key 30
  EXPECT_EQ(a.records[2].id, 1u);  // key 20
  // count/sum still summarize the whole range, not just the winners.
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 90u);
}

TEST(QueryPlanTest, TopKLimitEdgeCases) {
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 20), codec.MakeRecord(2, 30)};
  // Limit above the cardinality returns everything, ranked.
  QueryAnswer big = dbms::EvaluateAnswer(QueryRequest::TopK(0, 100, 10), range);
  EXPECT_EQ(big.records.size(), 2u);
  // Limit zero returns no rows but still derives the aggregates.
  QueryAnswer zero = dbms::EvaluateAnswer(QueryRequest::TopK(0, 100, 0), range);
  EXPECT_TRUE(zero.records.empty());
  EXPECT_EQ(zero.count, 2u);
}

TEST(QueryPlanTest, CheckAnswerCatchesEveryTamperedDimension) {
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 30), codec.MakeRecord(2, 10)};
  QueryRequest request = QueryRequest::Sum(0, 100);
  QueryAnswer honest = dbms::EvaluateAnswer(request, range);
  EXPECT_TRUE(dbms::CheckAnswer(request, range, honest).ok());

  QueryAnswer bad = honest;
  ++bad.count;
  EXPECT_EQ(dbms::CheckAnswer(request, range, bad).code(),
            StatusCode::kVerificationFailure);
  bad = honest;
  bad.sum -= 1;
  EXPECT_EQ(dbms::CheckAnswer(request, range, bad).code(),
            StatusCode::kVerificationFailure);
  bad = honest;
  bad.min_key = 5;
  EXPECT_EQ(dbms::CheckAnswer(request, range, bad).code(),
            StatusCode::kVerificationFailure);
  bad = honest;
  bad.op = QueryOp::kCount;
  EXPECT_EQ(dbms::CheckAnswer(request, range, bad).code(),
            StatusCode::kVerificationFailure);

  QueryRequest topk = QueryRequest::TopK(0, 100, 2);
  QueryAnswer winners = dbms::EvaluateAnswer(topk, range);
  winners.records.pop_back();  // silent truncation
  EXPECT_EQ(dbms::CheckAnswer(topk, range, winners).code(),
            StatusCode::kVerificationFailure);
}

TEST(QueryPlanTest, MergeAnswersFoldsPartials) {
  RecordCodec codec(kRecSize);
  std::vector<Record> left = {codec.MakeRecord(1, 10), codec.MakeRecord(2, 40)};
  std::vector<Record> right = {codec.MakeRecord(3, 60), codec.MakeRecord(4, 90)};
  std::vector<Record> whole = left;
  whole.insert(whole.end(), right.begin(), right.end());

  for (const QueryRequest& request : AllOperators(0, 100, 3)) {
    QueryRequest left_req = request, right_req = request;
    left_req.hi = 50;
    right_req.lo = 51;
    QueryAnswer merged = dbms::MergeAnswers(
        request, {dbms::EvaluateAnswer(left_req, left),
                  dbms::EvaluateAnswer(right_req, right)});
    EXPECT_EQ(merged, dbms::EvaluateAnswer(request, whole))
        << dbms::QueryOpName(request.op);
  }
}

TEST(QueryPlanTest, MergeAnswersEmptyPartsKeepNoExtrema) {
  QueryRequest request = QueryRequest::Min(0, 100);
  QueryAnswer merged = dbms::MergeAnswers(
      request, {dbms::EvaluateAnswer(request, {}),
                dbms::EvaluateAnswer(request, {})});
  EXPECT_EQ(merged.count, 0u);
  EXPECT_FALSE(merged.has_extrema);
}

// --- wire round-trips -------------------------------------------------------------

TEST(QueryPlanWireTest, RequestRoundTripsAllOperators) {
  for (const QueryRequest& request : AllOperators(123, 456, 7)) {
    auto bytes = core::SerializeQueryRequest(request);
    auto back = core::DeserializeQueryRequest(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), request) << dbms::QueryOpName(request.op);
  }
}

TEST(QueryPlanWireTest, AnswerRoundTripsWithWitness) {
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 30), codec.MakeRecord(2, 10),
                               codec.MakeRecord(3, 20)};
  for (const QueryRequest& request : AllOperators(0, 100, 2)) {
    QueryAnswer answer = dbms::EvaluateAnswer(request, range);
    auto bytes = core::SerializeQueryAnswer(answer, range, 9, codec);
    auto back = core::DeserializeQueryAnswer(bytes, codec);
    ASSERT_TRUE(back.ok()) << dbms::QueryOpName(request.op);
    EXPECT_EQ(back.value().epoch, 9u);
    EXPECT_EQ(back.value().witness, range);
    EXPECT_EQ(back.value().answer, answer) << dbms::QueryOpName(request.op);
  }
}

TEST(QueryPlanWireTest, NonTopKAnswerRowsOnTheWireRejected) {
  // A malicious encoder cannot smuggle answer rows distinct from the
  // witness for scan/point/aggregate ops — the decoder refuses them.
  RecordCodec codec(kRecSize);
  std::vector<Record> range = {codec.MakeRecord(1, 30)};
  QueryAnswer answer = dbms::EvaluateAnswer(QueryRequest::TopK(0, 100, 1),
                                            range);
  auto bytes = core::SerializeQueryAnswer(answer, range, 1, codec);
  bytes[1] = uint8_t(QueryOp::kCount);  // rewrite the op byte
  auto back = core::DeserializeQueryAnswer(bytes, codec);
  EXPECT_FALSE(back.ok());
}

// --- SAE end to end ---------------------------------------------------------------

class SaeOperatorTest : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(SaeOperatorTest, AllOperatorsVerifyAgainstOracle) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  std::vector<Record> all = Dataset(400);
  SAE_CHECK_OK(system.Load(all));

  for (uint32_t lo : {0u, 100u, 965u}) {
    for (const QueryRequest& request : AllOperators(lo, lo + 120, 5)) {
      auto outcome = system.Query(request);
      ASSERT_TRUE(outcome.ok());
      ExpectMatchesOracle(outcome.value(), request, all);
    }
  }
}

TEST_P(SaeOperatorTest, EmptyRangeAggregatesVerify) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  std::vector<Record> all = Dataset(50);
  SAE_CHECK_OK(system.Load(all));

  for (const QueryRequest& request : AllOperators(5000, 6000, 3)) {
    auto outcome = system.Query(request);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().verification.ok());
    EXPECT_EQ(outcome.value().answer.count, 0u);
    EXPECT_FALSE(outcome.value().answer.has_extrema);
    EXPECT_TRUE(outcome.value().answer.records.empty());
  }
}

TEST_P(SaeOperatorTest, ScanWrapperMatchesExplicitScanRequest) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  std::vector<Record> all = Dataset(200);
  SAE_CHECK_OK(system.Load(all));

  auto via_wrapper = system.Query(100, 400);
  auto via_request = system.Query(QueryRequest::Scan(100, 400));
  ASSERT_TRUE(via_wrapper.ok());
  ASSERT_TRUE(via_request.ok());
  EXPECT_TRUE(via_wrapper.value().verification.ok());
  EXPECT_EQ(via_wrapper.value().results, via_request.value().results);
  EXPECT_EQ(via_wrapper.value().answer, via_request.value().answer);
  // Scan rows live once, as the witness; the answer carries none.
  EXPECT_TRUE(via_wrapper.value().answer.records.empty());
  EXPECT_FALSE(via_wrapper.value().results.empty());
}

TEST_P(SaeOperatorTest, OperatorsVerifyAcrossUpdates) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  options.scheme = GetParam();
  core::SaeSystem system(options);
  std::vector<Record> all = Dataset(200);
  SAE_CHECK_OK(system.Load(all));
  RecordCodec codec(kRecSize);

  auto before = system.Query(QueryRequest::Count(0, 1000));
  ASSERT_TRUE(before.ok());
  uint64_t count_before = before.value().answer.count;

  ASSERT_TRUE(system.Insert(codec.MakeRecord(9001, 500)).ok());
  ASSERT_TRUE(system.Delete(1).ok());

  auto after = system.Query(QueryRequest::Count(0, 1000));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().verification.ok());
  EXPECT_EQ(after.value().answer.count, count_before);  // +1 insert, -1 delete
  auto max_after = system.Query(QueryRequest::Max(0, 1000));
  ASSERT_TRUE(max_after.ok());
  EXPECT_TRUE(max_after.value().verification.ok());
}

INSTANTIATE_TEST_SUITE_P(BothHashSchemes, SaeOperatorTest,
                         ::testing::Values(crypto::HashScheme::kSha1,
                                           crypto::HashScheme::kSha256Trunc));

// --- TOM end to end ---------------------------------------------------------------

TEST(TomOperatorTest, AllOperatorsVerifyAgainstOracle) {
  core::TomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;  // fast for tests
  core::TomSystem system(options);
  std::vector<Record> all = Dataset(300);
  SAE_CHECK_OK(system.Load(all));

  for (const QueryRequest& request : AllOperators(100, 400, 5)) {
    auto outcome = system.Query(request);
    ASSERT_TRUE(outcome.ok());
    ExpectMatchesOracle(outcome.value(), request, all);
  }
  // Empty range.
  auto empty = system.Query(QueryRequest::Count(5000, 6000));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().verification.ok());
  EXPECT_EQ(empty.value().answer.count, 0u);
}

// --- sharded deployments ----------------------------------------------------------

TEST(ShardedOperatorTest, CrossShardAggregatesFoldAndVerify) {
  core::ShardedSaeSystem::Options options;
  options.record_size = kRecSize;
  std::vector<Record> all = Dataset(500);
  core::ShardedSaeSystem sharded(core::ShardRouter({200, 400, 700}), options);
  SAE_CHECK_OK(sharded.Load(all));

  core::SaeSystem::Options oracle_options;
  oracle_options.record_size = kRecSize;
  core::SaeSystem oracle(oracle_options);
  SAE_CHECK_OK(oracle.Load(all));

  // Every query straddles at least one fence.
  for (uint32_t lo : {150u, 350u, 0u}) {
    for (const QueryRequest& request : AllOperators(lo, lo + 300, 6)) {
      auto composite = sharded.Query(request);
      auto plain = oracle.Query(request);
      ASSERT_TRUE(composite.ok());
      ASSERT_TRUE(plain.ok());
      EXPECT_TRUE(composite.value().verification.ok())
          << dbms::QueryOpName(request.op) << ": "
          << composite.value().verification.ToString();
      // The composite fold is bit-identical to the unsharded answer.
      EXPECT_EQ(composite.value().answer, plain.value().answer)
          << dbms::QueryOpName(request.op);
      EXPECT_EQ(composite.value().results, plain.value().results);
      ExpectMatchesOracle(composite.value(), request, all);
    }
  }
}

TEST(ShardedOperatorTest, TomCrossShardAggregatesFoldAndVerify) {
  core::ShardedTomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;
  std::vector<Record> all = Dataset(300);
  core::ShardedTomSystem sharded(core::ShardRouter({300, 600}), options);
  SAE_CHECK_OK(sharded.Load(all));

  for (const QueryRequest& request : AllOperators(100, 800, 4)) {
    auto composite = sharded.Query(request);
    ASSERT_TRUE(composite.ok());
    EXPECT_TRUE(composite.value().verification.ok())
        << dbms::QueryOpName(request.op);
    ExpectMatchesOracle(composite.value(), request, all);
  }
}

// --- operator-mix workload smoke over the engine ----------------------------------

TEST(OperatorWorkloadTest, MixedBatchAllOperatorsVerify) {
  core::SaeSystem::Options options;
  options.record_size = kRecSize;
  core::SaeSystem system(options);
  SAE_CHECK_OK(system.Load(Dataset(400)));

  workload::OperatorMixSpec spec;
  spec.count = 60;
  spec.domain_max = 970;
  spec.mix = {{QueryOp::kScan, 1.0}, {QueryOp::kPoint, 1.0},
              {QueryOp::kCount, 1.0}, {QueryOp::kSum, 1.0},
              {QueryOp::kMin, 1.0},  {QueryOp::kMax, 1.0},
              {QueryOp::kTopK, 1.0}};
  spec.extent_fractions = {0.01, 0.1, 0.4};
  std::vector<core::BatchQuery> batch;
  for (const auto& request : workload::GenerateOperatorMix(spec)) {
    batch.push_back(core::BatchQuery{request});
  }

  core::QueryEngine engine(core::QueryEngineOptions{4});
  auto run = engine.Run(&system, batch);
  EXPECT_EQ(run.stats.accepted, batch.size());
  EXPECT_EQ(run.stats.rejected, 0u);
  EXPECT_EQ(run.stats.failed, 0u);
}

}  // namespace
}  // namespace sae
