// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The caching layer's differential parity harness plus unit tests for the
// caches themselves. The contract under test: every verified-path cache
// (hot-level tree digests, SP answer cache, TE token memo) is a pure
// memoization — a cached system must be BIT-IDENTICAL to an uncached one
// on every observable: status codes, claimed epochs, answers, witnesses,
// serialized proof bytes. The harness runs 1000+ randomized
// (query, update, attack) schedules against cached/uncached system pairs
// across both models, both hash schemes and all seven plan operators.
//
// kPoisonedCache is deliberately excluded from the random attack pool: a
// poisoned entry persists for later honest queries by design, so cached
// and uncached systems diverge — that behavior is pinned down by targeted
// tests in security_test.cc instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary.h"
#include "core/answer_cache.h"
#include "core/messages.h"
#include "core/system.h"
#include "storage/node_cache.h"
#include "util/random.h"

namespace sae::core {
namespace {

using adversary::AttackMode;

constexpr size_t kRecSize = 64;
constexpr Key kDomain = 20000;

// --- AnswerCache unit tests --------------------------------------------------

AnswerCache::Key ScanKey(Key lo, Key hi, uint64_t epoch) {
  AnswerCache::Key key;
  key.lo = lo;
  key.hi = hi;
  key.epoch = epoch;
  return key;
}

std::shared_ptr<const CachedAnswer> Blob(uint8_t fill) {
  return std::make_shared<const CachedAnswer>(
      CachedAnswer{std::vector<uint8_t>(4, fill), {}});
}

TEST(AnswerCacheTest, HitReturnsInsertedBytes) {
  AnswerCache cache({8});
  EXPECT_EQ(cache.Lookup(ScanKey(1, 2, 1)), nullptr);
  cache.Insert(ScanKey(1, 2, 1), Blob(0xAB));
  auto hit = cache.Lookup(ScanKey(1, 2, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->answer_msg, std::vector<uint8_t>(4, 0xAB));
  AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(AnswerCacheTest, EpochIsPartOfTheKey) {
  AnswerCache cache({8});
  cache.Insert(ScanKey(1, 2, 1), Blob(0x01));
  EXPECT_EQ(cache.Lookup(ScanKey(1, 2, 2)), nullptr);
  EXPECT_NE(cache.Lookup(ScanKey(1, 2, 1)), nullptr);
}

TEST(AnswerCacheTest, OperatorAndLimitArePartOfTheKey) {
  AnswerCache cache({8});
  dbms::QueryRequest scan = dbms::QueryRequest::Scan(5, 9);
  dbms::QueryRequest count = dbms::QueryRequest::Count(5, 9);
  dbms::QueryRequest top3 = dbms::QueryRequest::TopK(5, 9, 3);
  dbms::QueryRequest top4 = dbms::QueryRequest::TopK(5, 9, 4);
  cache.Insert(AnswerCache::Key::For(scan, 1), Blob(0x01));
  EXPECT_EQ(cache.Lookup(AnswerCache::Key::For(count, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(AnswerCache::Key::For(top3, 1)), nullptr);
  cache.Insert(AnswerCache::Key::For(top3, 1), Blob(0x03));
  EXPECT_EQ(cache.Lookup(AnswerCache::Key::For(top4, 1)), nullptr);
  EXPECT_NE(cache.Lookup(AnswerCache::Key::For(scan, 1)), nullptr);
}

TEST(AnswerCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  AnswerCache cache({2});
  cache.Insert(ScanKey(1, 1, 1), Blob(1));
  cache.Insert(ScanKey(2, 2, 1), Blob(2));
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(ScanKey(1, 1, 1)), nullptr);
  cache.Insert(ScanKey(3, 3, 1), Blob(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(ScanKey(2, 2, 1)), nullptr);
  EXPECT_NE(cache.Lookup(ScanKey(1, 1, 1)), nullptr);
  EXPECT_NE(cache.Lookup(ScanKey(3, 3, 1)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(AnswerCacheTest, InvalidateAllEmptiesAndCounts) {
  AnswerCache cache({8});
  cache.Insert(ScanKey(1, 1, 1), Blob(1));
  cache.Insert(ScanKey(2, 2, 1), Blob(2));
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(ScanKey(1, 1, 1)), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(AnswerCacheTest, DisabledCacheStoresNothing) {
  AnswerCache cache(AnswerCacheOptions::Disabled());
  EXPECT_FALSE(cache.enabled());
  cache.Insert(ScanKey(1, 1, 1), Blob(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(ScanKey(1, 1, 1)), nullptr);
}

// --- HotNodeCache unit tests -------------------------------------------------

struct FakeNode {
  int payload = 0;
};

TEST(HotNodeCacheTest, CachesOnlyHotLevels) {
  storage::HotNodeCache<FakeNode> cache({/*hot_levels=*/2, 16});
  EXPECT_NE(cache.Insert(1, 0, FakeNode{10}), nullptr);  // root: cached
  EXPECT_NE(cache.Insert(2, 1, FakeNode{20}), nullptr);  // level 1: cached
  EXPECT_NE(cache.Insert(3, 2, FakeNode{30}), nullptr);  // leaf: pass-through
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 0)->payload, 10);
  EXPECT_EQ(cache.Lookup(3, 2), nullptr);
}

TEST(HotNodeCacheTest, InvalidateDropsOneClearDropsAll) {
  storage::HotNodeCache<FakeNode> cache({2, 16});
  cache.Insert(1, 0, FakeNode{10});
  cache.Insert(2, 1, FakeNode{20});
  cache.Invalidate(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.stats().invalidations, 2u);
}

TEST(HotNodeCacheTest, ZeroLevelsDisablesCaching) {
  storage::HotNodeCache<FakeNode> cache({0, 16});
  EXPECT_NE(cache.Insert(1, 0, FakeNode{10}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(HotNodeCacheTest, EvictsAtCapacity) {
  storage::HotNodeCache<FakeNode> cache({4, 2});
  cache.Insert(1, 0, FakeNode{1});
  cache.Insert(2, 1, FakeNode{2});
  cache.Insert(3, 1, FakeNode{3});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// --- System-level cache effectiveness ----------------------------------------

SaeSystem::Options SmallSaeOptions(crypto::HashScheme scheme) {
  SaeSystem::Options o;
  o.record_size = kRecSize;
  o.scheme = scheme;
  o.sp_index_pool_pages = 256;
  o.sp_heap_pool_pages = 256;
  o.te_pool_pages = 256;
  o.xb_options.max_entries = 16;  // low fanout: real depth at small n
  return o;
}

TomSystem::Options SmallTomOptions(crypto::HashScheme scheme) {
  TomSystem::Options o;
  o.record_size = kRecSize;
  o.scheme = scheme;
  o.rsa_modulus_bits = 512;  // fast for tests
  o.do_pool_pages = 256;
  o.sp_index_pool_pages = 256;
  o.sp_heap_pool_pages = 256;
  o.mb_options.max_leaf_entries = 8;
  o.mb_options.max_internal_keys = 8;
  return o;
}

std::vector<Record> MakeDataset(size_t n, Rng* rng, uint64_t* next_id) {
  storage::RecordCodec codec(kRecSize);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(
        codec.MakeRecord((*next_id)++, Key(rng->NextBounded(kDomain))));
  }
  return records;
}

TEST(CacheEffectivenessTest, SaeRepeatQueryHitsEveryCache) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(7);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());

  dbms::QueryRequest request = dbms::QueryRequest::Scan(1000, 5000);
  // The first miss is declined, the second is admitted.
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  SaeCacheStats before = system.cache_stats();
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  SaeCacheStats delta = system.cache_stats();
  EXPECT_GT(delta.sp_answer.hits, before.sp_answer.hits);
  EXPECT_GT(delta.te_vt.hits, before.te_vt.hits);

  // An update invalidates the answer caches and the touched hot nodes.
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(999999, 2500)).ok());
  SaeCacheStats after_update = system.cache_stats();
  EXPECT_GT(after_update.sp_answer.invalidations,
            delta.sp_answer.invalidations);
  EXPECT_GT(after_update.te_vt.invalidations, delta.te_vt.invalidations);
  EXPECT_GT(after_update.te_digest.invalidations,
            delta.te_digest.invalidations);
  // Post-update queries verify and refill.
  auto outcome = system.Query(request).value();
  EXPECT_TRUE(outcome.verification.ok());
}

TEST(CacheEffectivenessTest, TomRepeatQueryHitsAnswerAndDigestCaches) {
  TomSystem system(SmallTomOptions(crypto::HashScheme::kSha1));
  Rng rng(8);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());

  dbms::QueryRequest request = dbms::QueryRequest::Count(1000, 9000);
  // The first miss is declined, the second is admitted.
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  TomCacheStats before = system.cache_stats();
  ASSERT_TRUE(system.Query(request).value().verification.ok());
  TomCacheStats delta = system.cache_stats();
  EXPECT_GT(delta.sp_answer.hits, before.sp_answer.hits);

  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(999999, 4000)).ok());
  TomCacheStats after = system.cache_stats();
  EXPECT_GT(after.sp_answer.invalidations, delta.sp_answer.invalidations);
  EXPECT_GT(after.sp_digest.invalidations, delta.sp_digest.invalidations);
  EXPECT_TRUE(system.Query(request).value().verification.ok());
}

TEST(CacheEffectivenessTest, DisabledCachesStayEmpty) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1).DisableCaches());
  Rng rng(9);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(200, &rng, &next_id)).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(system.Query(100, 8000).value().verification.ok());
  }
  SaeCacheStats stats = system.cache_stats();
  EXPECT_EQ(stats.sp_answer.hits, 0u);
  EXPECT_EQ(stats.sp_answer.insertions, 0u);
  EXPECT_EQ(stats.te_vt.hits, 0u);
  EXPECT_EQ(stats.te_digest.hits, 0u);
}

// --- Served bytes ------------------------------------------------------------

// One request per plan operator over the same range.
std::vector<dbms::QueryRequest> EveryOperator(Key lo, Key hi) {
  return {dbms::QueryRequest::Scan(lo, hi),  dbms::QueryRequest::Point(lo),
          dbms::QueryRequest::Count(lo, hi), dbms::QueryRequest::Sum(lo, hi),
          dbms::QueryRequest::Min(lo, hi),   dbms::QueryRequest::Max(lo, hi),
          dbms::QueryRequest::TopK(lo, hi, 4)};
}

// The SP's unit of output is encoded once: the admitted miss and every
// later hit serve the golden encoding of the uncached plan, and hits hand
// out the very buffer the miss produced — no re-encode, no decode. The
// request's first miss is served golden bytes too, but is not kept.
TEST(ServedAnswerTest, SaeMissAndHitsServeOneGoldenBuffer) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(10);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const ServiceProvider& sp = system.sp();
  for (const dbms::QueryRequest& request : EveryOperator(2000, 9000)) {
    std::vector<Record> witness =
        sp.ExecuteRange(request.lo, request.hi).value();
    std::vector<uint8_t> golden = SerializeQueryAnswer(
        dbms::EvaluateAnswer(request, witness), witness, sp.epoch(),
        system.codec());
    auto declined = sp.ServeQuery(request).value();
    EXPECT_EQ(declined->answer_msg, golden) << int(request.op);
    AnswerCacheStats before = sp.answer_cache_stats();
    auto miss = sp.ServeQuery(request).value();
    auto hit = sp.ServeQuery(request).value();
    auto again = sp.ServeQuery(request).value();
    EXPECT_EQ(miss->answer_msg, golden) << int(request.op);
    EXPECT_TRUE(miss->proof_msg.empty());
    EXPECT_EQ(hit.get(), miss.get()) << int(request.op);
    EXPECT_EQ(again.get(), miss.get()) << int(request.op);
    AnswerCacheStats delta = sp.answer_cache_stats() - before;
    EXPECT_EQ(delta.misses, 1u);
    EXPECT_EQ(delta.insertions, 1u);
    EXPECT_EQ(delta.hits, 2u);
  }
}

TEST(ServedAnswerTest, TomMissAndHitsServeOneGoldenBuffer) {
  TomSystem system(SmallTomOptions(crypto::HashScheme::kSha1));
  Rng rng(11);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const TomServiceProvider& sp = system.sp();
  for (const dbms::QueryRequest& request : EveryOperator(2000, 9000)) {
    TomServiceProvider::QueryResponse range =
        sp.ExecuteRange(request.lo, request.hi).value();
    std::vector<uint8_t> golden_answer = SerializeQueryAnswer(
        dbms::EvaluateAnswer(request, range.results), range.results,
        sp.epoch(), system.codec());
    std::vector<uint8_t> golden_vo = range.vo.Serialize();
    auto declined = sp.ServeQuery(request).value();
    EXPECT_EQ(declined->proof_msg, golden_vo) << int(request.op);
    auto miss = sp.ServeQuery(request).value();
    auto hit = sp.ServeQuery(request).value();
    auto again = sp.ServeQuery(request).value();
    EXPECT_EQ(miss->answer_msg, golden_answer) << int(request.op);
    EXPECT_EQ(miss->proof_msg, golden_vo) << int(request.op);
    EXPECT_EQ(hit.get(), miss.get()) << int(request.op);
    EXPECT_EQ(again.get(), miss.get()) << int(request.op);
  }
}

// True when `record`'s payload lies inside `bytes`.
bool ViewsBuffer(const Record& record, const std::vector<uint8_t>& bytes) {
  return record.payload.data() >= bytes.data() &&
         record.payload.data() < bytes.data() + bytes.size();
}

// The witness an in-process query hands back views the SP's answer-cache
// entry in place (once the request is admitted, on its second miss). A client writing its records copies them first, so the
// buffer every other client is served stays the SP's answer, and the next
// query still verifies and replays the client memo.
TEST(ServedAnswerTest, SaeClientWritesNeverReachTheServedBuffer) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(13);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const ServiceProvider& sp = system.sp();
  for (const dbms::QueryRequest& request : EveryOperator(2000, 9000)) {
    ASSERT_TRUE(system.ExecuteQuery(request).value().verification.ok());
    SaeSystem::QueryOutcome first = system.ExecuteQuery(request).value();
    ASSERT_TRUE(first.verification.ok()) << int(request.op);
    auto served = sp.ServeQuery(request).value();
    for (Record& record : first.results) {
      EXPECT_TRUE(ViewsBuffer(record, served->answer_msg));
      record.payload.MutableData()[0] ^= 0xFF;
      EXPECT_FALSE(ViewsBuffer(record, served->answer_msg));
    }
    for (Record& record : first.answer.records) {
      record.payload.MutableData()[0] ^= 0xFF;
    }
    std::vector<Record> witness =
        sp.ExecuteRange(request.lo, request.hi).value();
    EXPECT_EQ(served->answer_msg,
              SerializeQueryAnswer(dbms::EvaluateAnswer(request, witness),
                                   witness, sp.epoch(), system.codec()))
        << int(request.op);
    SaeCacheStats before = system.cache_stats();
    SaeSystem::QueryOutcome second = system.ExecuteQuery(request).value();
    EXPECT_TRUE(second.verification.ok()) << int(request.op);
    EXPECT_EQ(second.results, witness);
    SaeCacheStats after = system.cache_stats();
    EXPECT_EQ(after.sp_answer.hits - before.sp_answer.hits, 1u);
    EXPECT_EQ(after.client_memo.hits - before.client_memo.hits, 1u);
  }
}

TEST(ServedAnswerTest, TomClientWritesNeverReachTheServedBuffer) {
  TomSystem system(SmallTomOptions(crypto::HashScheme::kSha1));
  Rng rng(14);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const TomServiceProvider& sp = system.sp();
  for (const dbms::QueryRequest& request : EveryOperator(2000, 9000)) {
    ASSERT_TRUE(system.ExecuteQuery(request).value().verification.ok());
    TomSystem::QueryOutcome first = system.ExecuteQuery(request).value();
    ASSERT_TRUE(first.verification.ok()) << int(request.op);
    auto served = sp.ServeQuery(request).value();
    for (Record& record : first.results) {
      EXPECT_TRUE(ViewsBuffer(record, served->answer_msg));
      record.payload.MutableData()[0] ^= 0xFF;
    }
    std::vector<Record> witness =
        sp.ExecuteRange(request.lo, request.hi).value().results;
    EXPECT_EQ(served->answer_msg,
              SerializeQueryAnswer(dbms::EvaluateAnswer(request, witness),
                                   witness, sp.epoch(), system.codec()))
        << int(request.op);
    TomCacheStats before = system.cache_stats();
    TomSystem::QueryOutcome second = system.ExecuteQuery(request).value();
    EXPECT_TRUE(second.verification.ok()) << int(request.op);
    EXPECT_EQ(second.results, witness);
    TomCacheStats after = system.cache_stats();
    EXPECT_EQ(after.client_memo.hits - before.client_memo.hits, 1u);
  }
}

// Decoded records keep their served buffer alive on their own: with one
// entry in the SP cache and the client memo, the next admitted query evicts
// the buffer from both, and the records still read it (ASan would flag a
// read after free). The buffer dies with the last of them.
TEST(ServedAnswerTest, RecordsOutliveTheirCachedAnswersEviction) {
  SaeSystem::Options options = SmallSaeOptions(crypto::HashScheme::kSha1);
  options.sp_answer_cache.max_entries = 1;
  options.client_memo.max_entries = 1;
  SaeSystem system(options);
  Rng rng(15);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const dbms::QueryRequest first = dbms::QueryRequest::TopK(2000, 9000, 5);
  const dbms::QueryRequest other = dbms::QueryRequest::Scan(100, 1500);
  ASSERT_TRUE(system.ExecuteQuery(first).value().verification.ok());
  SaeSystem::QueryOutcome kept = system.ExecuteQuery(first).value();
  ASSERT_TRUE(kept.verification.ok());
  std::weak_ptr<const CachedAnswer> watch =
      system.sp().ServeQuery(first).value();
  SaeCacheStats before = system.cache_stats();
  ASSERT_TRUE(system.ExecuteQuery(other).value().verification.ok());
  ASSERT_TRUE(system.ExecuteQuery(other).value().verification.ok());
  SaeCacheStats after = system.cache_stats();
  EXPECT_EQ(after.sp_answer.evictions - before.sp_answer.evictions, 1u);
  EXPECT_EQ(after.client_memo.evictions - before.client_memo.evictions, 1u);
  EXPECT_FALSE(watch.expired());

  std::vector<Record> witness =
      system.sp().ExecuteRange(first.lo, first.hi).value();
  EXPECT_EQ(kept.results, witness);
  EXPECT_EQ(kept.answer, dbms::EvaluateAnswer(first, witness));
  kept.results.clear();
  EXPECT_FALSE(watch.expired());  // the top-k rows view it too
  kept.answer.records.resize(1);
  EXPECT_FALSE(watch.expired());
  kept.answer.records.clear();
  EXPECT_TRUE(watch.expired());
}

// --- Client memos keyed on the served buffer --------------------------------

// Verifies `served` through `memo` as SaeSystem::ExecuteQuery does: fetch
// the live token, check against the published epoch.
Status SaeMemoVerify(SaeSystem& system, SaeClientMemo* memo,
                     const dbms::QueryRequest& request,
                     const std::shared_ptr<const CachedAnswer>& served) {
  auto vt = system.te().GenerateVt(request);
  if (!vt.ok()) return vt.status();
  auto checked = memo->VerifyAnswer(request, served, vt.value(),
                                    system.epoch(), system.codec(),
                                    system.options().scheme);
  return checked.ok() ? checked.value().verification : checked.status();
}

// The TOM counterpart: the VO travels in the same served object.
Status TomMemoVerify(TomSystem& system, TomClientMemo* memo,
                     const dbms::QueryRequest& request,
                     const std::shared_ptr<const CachedAnswer>& served,
                     uint64_t published_epoch) {
  auto checked = memo->VerifyAnswer(request, served,
                                    system.owner().public_key(),
                                    system.codec(), system.options().scheme,
                                    published_epoch);
  return checked.ok() ? checked.value().verification : checked.status();
}

Status TomMemoVerify(TomSystem& system, TomClientMemo* memo,
                     const dbms::QueryRequest& request,
                     const std::shared_ptr<const CachedAnswer>& served) {
  return TomMemoVerify(system, memo, request, served, system.epoch());
}

std::shared_ptr<const CachedAnswer> CopyOf(
    const std::shared_ptr<const CachedAnswer>& served) {
  return std::make_shared<const CachedAnswer>(*served);
}

size_t BytesDiffering(const std::vector<uint8_t>& a,
                      const std::vector<uint8_t>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  size_t n = 0;
  for (size_t i = 0; i < a.size(); ++i) n += a[i] != b[i];
  return n;
}

class ClientMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(12);
    uint64_t next_id = 1;
    dataset_ = MakeDataset(400, &rng, &next_id);
    ASSERT_TRUE(sae_.Load(dataset_).ok());
    ASSERT_TRUE(tom_.Load(dataset_).ok());
  }

  const dbms::QueryRequest request_ = dbms::QueryRequest::Sum(2000, 9000);
  std::vector<Record> dataset_;
  SaeSystem sae_{SmallSaeOptions(crypto::HashScheme::kSha1)};
  TomSystem tom_{SmallTomOptions(crypto::HashScheme::kSha1)};
  SaeClientMemo sae_memo_{AnswerCacheOptions{}};
  TomClientMemo tom_memo_{AnswerCacheOptions{}};
};

TEST_F(ClientMemoTest, SaeSameBufferHits) {
  auto served = sae_.sp().ServeQuery(request_).value();
  EXPECT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, served).ok());
  EXPECT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, served).ok());
  EXPECT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, served).ok());
  AnswerCacheStats stats = sae_memo_.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.declined, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(ClientMemoTest, TomSameBufferHits) {
  auto served = tom_.sp().ServeQuery(request_).value();
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, served).ok());
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, served).ok());
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, served).ok());
  AnswerCacheStats stats = tom_memo_.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.declined, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// A different object with the same bytes (a copy, the network's buffer, a
// Record-typed caller's encoding) is the same answer.
TEST_F(ClientMemoTest, SaeByteEqualBufferHits) {
  auto served = sae_.sp().ServeQuery(request_).value();
  ASSERT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, served).ok());
  ASSERT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, served).ok());
  auto copy = CopyOf(served);
  ASSERT_NE(copy.get(), served.get());
  EXPECT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, copy).ok());
  QueryAnswerMessage decoded =
      DeserializeQueryAnswer(served->answer_msg, sae_.codec()).value();
  VerificationToken vt = sae_.te().GenerateVt(request_).value();
  EXPECT_TRUE(sae_memo_
                  .VerifyAnswer(request_, decoded.answer, decoded.witness, vt,
                                decoded.epoch, sae_.epoch(), sae_.codec(),
                                crypto::HashScheme::kSha1)
                  .ok());
  AnswerCacheStats stats = sae_memo_.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST_F(ClientMemoTest, TomByteEqualBufferHits) {
  auto served = tom_.sp().ServeQuery(request_).value();
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, served).ok());
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, served).ok());
  auto copy = CopyOf(served);
  ASSERT_NE(copy.get(), served.get());
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, copy).ok());
  AnswerCacheStats stats = tom_memo_.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

// A buffer one byte away from a memoized one is a miss, is re-verified and
// rejected, and never enters the memo: repeating it misses again, and the
// honest buffer still hits.
TEST_F(ClientMemoTest, SaeOneByteDifferentBufferMissesAndIsNeverMemoized) {
  auto honest = sae_.sp().ServeQuery(request_).value();
  ASSERT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, honest).ok());
  ASSERT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, honest).ok());
  auto poisoned = adversary::PoisonCache(&sae_.sp(), request_).value();
  ASSERT_EQ(BytesDiffering(poisoned->answer_msg, honest->answer_msg), 1u);
  AnswerCacheStats before = sae_memo_.stats();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(SaeMemoVerify(sae_, &sae_memo_, request_, poisoned).code(),
              StatusCode::kVerificationFailure);
  }
  AnswerCacheStats delta = sae_memo_.stats() - before;
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.insertions, 0u);
  EXPECT_TRUE(SaeMemoVerify(sae_, &sae_memo_, request_, honest).ok());
  EXPECT_EQ((sae_memo_.stats() - before).hits, 1u);
}

TEST_F(ClientMemoTest, TomOneByteDifferentBufferMissesAndIsNeverMemoized) {
  auto honest = tom_.sp().ServeQuery(request_).value();
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, honest).ok());
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, honest).ok());
  auto poisoned = adversary::PoisonCache(&tom_.sp(), request_).value();
  ASSERT_EQ(BytesDiffering(poisoned->answer_msg, honest->answer_msg), 1u);
  ASSERT_EQ(poisoned->proof_msg, honest->proof_msg);
  AnswerCacheStats before = tom_memo_.stats();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(TomMemoVerify(tom_, &tom_memo_, request_, poisoned).code(),
              StatusCode::kVerificationFailure);
  }
  AnswerCacheStats delta = tom_memo_.stats() - before;
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.insertions, 0u);
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, honest).ok());
  EXPECT_EQ((tom_memo_.stats() - before).hits, 1u);
}

// A rejected answer seen first is not memoized either: the honest answer
// that follows is verified in full.
TEST_F(ClientMemoTest, RejectedFirstAnswerIsNeverMemoized) {
  auto sae_poisoned = adversary::PoisonCache(&sae_.sp(), request_).value();
  auto tom_poisoned = adversary::PoisonCache(&tom_.sp(), request_).value();
  EXPECT_FALSE(SaeMemoVerify(sae_, &sae_memo_, request_, sae_poisoned).ok());
  EXPECT_FALSE(TomMemoVerify(tom_, &tom_memo_, request_, tom_poisoned).ok());
  EXPECT_EQ(sae_memo_.size(), 0u);
  EXPECT_EQ(tom_memo_.size(), 0u);
  EXPECT_EQ(sae_memo_.stats().insertions, 0u);
  EXPECT_EQ(tom_memo_.stats().insertions, 0u);
}

// The in-system memo on a repeat loop: after two warm passes (the first
// miss of each request is declined, the second admitted) every verified
// query is a memo hit.
TEST_F(ClientMemoTest, RepeatLoopHitRatioStaysOne) {
  std::vector<dbms::QueryRequest> pool;
  for (Key lo = 0; lo < 16000; lo += 2000) {
    for (const dbms::QueryRequest& r : EveryOperator(lo, lo + 3000)) {
      pool.push_back(r);
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const dbms::QueryRequest& r : pool) {
      ASSERT_TRUE(sae_.Query(r).value().verification.ok());
      ASSERT_TRUE(tom_.Query(r).value().verification.ok());
    }
  }
  SaeCacheStats sae0 = sae_.cache_stats();
  TomCacheStats tom0 = tom_.cache_stats();
  for (int pass = 0; pass < 3; ++pass) {
    for (const dbms::QueryRequest& r : pool) {
      ASSERT_TRUE(sae_.Query(r).value().verification.ok());
      ASSERT_TRUE(tom_.Query(r).value().verification.ok());
    }
  }
  AnswerCacheStats sae_delta =
      sae_.cache_stats().client_memo - sae0.client_memo;
  AnswerCacheStats tom_delta =
      tom_.cache_stats().client_memo - tom0.client_memo;
  EXPECT_EQ(sae_delta.hits, 3 * pool.size());
  EXPECT_EQ(sae_delta.HitRate(), 1.0);
  EXPECT_EQ(tom_delta.hits, 3 * pool.size());
  EXPECT_EQ(tom_delta.HitRate(), 1.0);
}

// The SAE memo outlives an epoch bump that leaves the range untouched: the
// SP re-encodes the answer under the new epoch, and the bytes outside the
// epoch stamp still match. The TOM memo expires with the epoch.
TEST_F(ClientMemoTest, EpochBumpOnAnUntouchedRange) {
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sae_.Query(request_).value().verification.ok());
    ASSERT_TRUE(tom_.Query(request_).value().verification.ok());
  }
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(sae_.Insert(codec.MakeRecord(999999, 15000)).ok());
  ASSERT_TRUE(tom_.Insert(codec.MakeRecord(999999, 15000)).ok());
  SaeCacheStats sae0 = sae_.cache_stats();
  TomCacheStats tom0 = tom_.cache_stats();
  auto sae_out = sae_.Query(request_).value();
  auto tom_out = tom_.Query(request_).value();
  EXPECT_TRUE(sae_out.verification.ok());
  EXPECT_TRUE(tom_out.verification.ok());
  EXPECT_EQ(sae_out.claimed_epoch, 2u);
  EXPECT_EQ((sae_.cache_stats().client_memo - sae0.client_memo).hits, 1u);
  EXPECT_EQ((tom_.cache_stats().client_memo - tom0.client_memo).misses, 1u);
}

// The client check runs off the parties' lock, so a query that read epoch
// e can finish after another query has seen e+1 and expired the TOM memo.
// Its answer still verifies against e, but it cannot take a memo slot.
TEST_F(ClientMemoTest, TomAnswerCheckedAgainstAnExpiredEpochIsNotKept) {
  auto old_served = tom_.sp().ServeQuery(request_).value();
  uint64_t old_epoch = tom_.epoch();
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(tom_.Insert(codec.MakeRecord(999999, 15000)).ok());
  auto new_served = tom_.sp().ServeQuery(request_).value();
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, new_served).ok());
  ASSERT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, new_served).ok());
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, old_served,
                            old_epoch)
                  .ok());
  AnswerCacheStats stats = tom_memo_.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.declined, 2u);
  EXPECT_EQ(tom_memo_.size(), 1u);
  EXPECT_TRUE(TomMemoVerify(tom_, &tom_memo_, request_, new_served).ok());
  EXPECT_EQ(tom_memo_.stats().hits, 1u);
}

// --- Second-miss admission ---------------------------------------------------

// Looks `request` up in `cache` at `epoch` as ServiceProvider::ServeQuery
// does and inserts only an admitted miss. True on a hit.
bool ServeThrough(AnswerCache* cache, const dbms::QueryRequest& request,
                  uint64_t epoch) {
  AnswerCache::Key key = AnswerCache::Key::For(request, epoch);
  bool admit = false;
  if (cache->Lookup(key, &admit) != nullptr) return true;
  if (admit) cache->Insert(key, Blob(uint8_t(request.lo)));
  return false;
}

// The memo counterpart, as the client memos' Verify paths do.
bool VerifyThrough(ServedAnswerMemo* memo, const dbms::QueryRequest& request,
                   const std::shared_ptr<const CachedAnswer>& served,
                   uint64_t published_epoch) {
  ServedAnswerMemo::Verdict verdict;
  bool admit = false;
  if (memo->Lookup(request, served, &verdict, &admit)) return true;
  if (admit) memo->Insert(request, served, {}, published_epoch);
  return false;
}

TEST(AdmissionTest, DistinctRequestsAreNeverKept) {
  AnswerCache cache{AnswerCacheOptions{}};
  ServedAnswerMemo memo{AnswerCacheOptions{}};
  auto served = Blob(0x5A);
  for (Key lo = 0; lo < 4096; ++lo) {
    dbms::QueryRequest request = dbms::QueryRequest::Scan(lo, lo + 10);
    EXPECT_FALSE(ServeThrough(&cache, request, 1));
    EXPECT_FALSE(VerifyThrough(&memo, request, served, 1));
  }
  for (const AnswerCacheStats& stats : {cache.stats(), memo.stats()}) {
    EXPECT_EQ(stats.misses, 4096u);
    EXPECT_EQ(stats.declined, 4096u);
    EXPECT_EQ(stats.insertions, 0u);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(AdmissionTest, SecondMissInsertsAndThirdLookupHits) {
  AnswerCache cache{AnswerCacheOptions{}};
  ServedAnswerMemo memo{AnswerCacheOptions{}};
  auto served = Blob(0x5A);
  const dbms::QueryRequest request = dbms::QueryRequest::TopK(3, 90, 5);
  EXPECT_FALSE(ServeThrough(&cache, request, 1));
  EXPECT_FALSE(VerifyThrough(&memo, request, served, 1));
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(memo.stats().insertions, 0u);
  EXPECT_FALSE(ServeThrough(&cache, request, 1));
  EXPECT_FALSE(VerifyThrough(&memo, request, served, 1));
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(memo.stats().insertions, 1u);
  EXPECT_TRUE(ServeThrough(&cache, request, 1));
  EXPECT_TRUE(VerifyThrough(&memo, request, served, 1));
  for (const AnswerCacheStats& stats : {cache.stats(), memo.stats()}) {
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.declined, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.hits, 1u);
  }
}

// The seen set keys on the request, not the epoch: a hot request whose
// entry an epoch bump dropped is kept again on its first miss after it.
TEST(AdmissionTest, HotRequestIsAdmittedOnItsFirstMissAfterAnEpochBump) {
  AnswerCache cache{AnswerCacheOptions{}};
  ServedAnswerMemo memo{AnswerCacheOptions{}};
  const dbms::QueryRequest request = dbms::QueryRequest::Sum(40, 400);
  for (int i = 0; i < 3; ++i) ServeThrough(&cache, request, 1);
  ASSERT_EQ(cache.stats().hits, 1u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(ServeThrough(&cache, request, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(ServeThrough(&cache, request, 2));
  EXPECT_EQ(cache.stats().declined, 1u);

  auto at1 = Blob(1);
  auto at2 = Blob(2);
  for (int i = 0; i < 3; ++i) VerifyThrough(&memo, request, at1, 1);
  ASSERT_EQ(memo.stats().hits, 1u);
  memo.DropAllIfEpochMoved(2);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(VerifyThrough(&memo, request, at2, 2));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(VerifyThrough(&memo, request, at2, 2));
  EXPECT_EQ(memo.stats().declined, 1u);

  // The same at system level: an update bumps the epoch and drops the SP
  // and TE entries; the next query refills both.
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(16);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  const dbms::QueryRequest hot = dbms::QueryRequest::Scan(2000, 9000);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(system.ExecuteQuery(hot).value().verification.ok());
  }
  storage::RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(999999, 15000)).ok());
  SaeCacheStats before = system.cache_stats();
  ASSERT_TRUE(system.ExecuteQuery(hot).value().verification.ok());
  SaeCacheStats delta = system.cache_stats();
  EXPECT_EQ(delta.sp_answer.insertions - before.sp_answer.insertions, 1u);
  EXPECT_EQ(delta.sp_answer.declined, before.sp_answer.declined);
  EXPECT_EQ(delta.te_vt.insertions - before.te_vt.insertions, 1u);
  EXPECT_EQ(delta.client_memo.hits - before.client_memo.hits, 1u);
  EXPECT_EQ(system.sp().answer_cache().size(), 1u);
}

// The seen set holds the last max_entries distinct requests to miss: one
// whose last miss is older than that is declined again.
TEST(AdmissionTest, SeenSetIsBoundedByMaxEntries) {
  constexpr size_t kMax = 8;
  AnswerCache cache({kMax});
  ServedAnswerMemo memo({kMax});
  auto served = Blob(0x5A);
  const dbms::QueryRequest old = dbms::QueryRequest::Count(1, 2);
  auto others = [&](Key base, size_t n) {
    for (Key i = 0; i < n; ++i) {
      dbms::QueryRequest request = dbms::QueryRequest::Scan(base + i, 9999);
      ServeThrough(&cache, request, 1);
      VerifyThrough(&memo, request, served, 1);
    }
  };
  // kMax - 1 distinct misses in between: `old` is still remembered.
  ServeThrough(&cache, old, 1);
  VerifyThrough(&memo, old, served, 1);
  others(100, kMax - 1);
  AnswerCacheStats cache0 = cache.stats();
  AnswerCacheStats memo0 = memo.stats();
  EXPECT_FALSE(ServeThrough(&cache, old, 1));
  EXPECT_FALSE(VerifyThrough(&memo, old, served, 1));
  EXPECT_EQ((cache.stats() - cache0).insertions, 1u);
  EXPECT_EQ((memo.stats() - memo0).insertions, 1u);

  // kMax distinct misses in between: `old` was forgotten.
  const dbms::QueryRequest forgotten = dbms::QueryRequest::Count(3, 4);
  ServeThrough(&cache, forgotten, 1);
  VerifyThrough(&memo, forgotten, served, 1);
  others(200, kMax);
  cache0 = cache.stats();
  memo0 = memo.stats();
  EXPECT_FALSE(ServeThrough(&cache, forgotten, 1));
  EXPECT_FALSE(VerifyThrough(&memo, forgotten, served, 1));
  EXPECT_EQ((cache.stats() - cache0).declined, 1u);
  EXPECT_EQ((memo.stats() - memo0).declined, 1u);
  EXPECT_EQ((cache.stats() - cache0).insertions, 0u);
  EXPECT_EQ((memo.stats() - memo0).insertions, 0u);
}

// Distinct requests per operator and range: no two calls repeat.
dbms::QueryRequest ColdRequest(size_t i) {
  Key lo = Key(i % 1000) * 10;
  Key hi = lo + 2000 + Key(i / 1000) * 10;
  return EveryOperator(lo, hi)[i % 7];
}

void ExpectReconciled(const AnswerCacheStats& stats, uint64_t lookups,
                      const char* cache) {
  EXPECT_EQ(stats.hits + stats.misses, lookups) << cache;
  EXPECT_EQ(stats.insertions + stats.declined, stats.misses) << cache;
}

// Cold traffic leaves every cache of a default-cache system empty; a pool
// of repeated requests then hits everywhere on its third pass.
TEST(AdmissionTest, ColdQueriesLeaveSaeCachesEmptyAndRepeatsStillHit) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(17);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  constexpr size_t kCold = 2000;
  for (size_t i = 0; i < kCold; ++i) {
    ASSERT_TRUE(system.ExecuteQuery(ColdRequest(i)).value().verification.ok());
  }
  SaeCacheStats cold = system.cache_stats();
  EXPECT_EQ(system.sp().answer_cache().size(), 0u);
  EXPECT_EQ(cold.sp_answer.insertions, 0u);
  EXPECT_EQ(cold.te_vt.insertions, 0u);
  EXPECT_EQ(cold.client_memo.insertions, 0u);
  EXPECT_EQ(cold.sp_answer.declined, kCold);
  ExpectReconciled(cold.sp_answer, kCold, "sp");
  ExpectReconciled(cold.te_vt, kCold, "te");
  ExpectReconciled(cold.client_memo, kCold, "memo");

  std::vector<dbms::QueryRequest> pool;
  for (size_t i = 0; i < 64; ++i) {
    pool.push_back(dbms::QueryRequest::TopK(Key(i) * 100, 15000, 3));
  }
  for (int pass = 0; pass < 3; ++pass) {
    SaeCacheStats before = system.cache_stats();
    for (const dbms::QueryRequest& request : pool) {
      ASSERT_TRUE(system.ExecuteQuery(request).value().verification.ok());
    }
    SaeCacheStats delta = system.cache_stats();
    double expected = pass == 2 ? 1.0 : 0.0;
    EXPECT_EQ((delta.sp_answer - before.sp_answer).HitRate(), expected);
    EXPECT_EQ((delta.te_vt - before.te_vt).HitRate(), expected);
    EXPECT_EQ((delta.client_memo - before.client_memo).HitRate(), expected);
  }
  SaeCacheStats total = system.cache_stats();
  const uint64_t lookups = kCold + 3 * pool.size();
  ExpectReconciled(total.sp_answer, lookups, "sp");
  ExpectReconciled(total.te_vt, lookups, "te");
  ExpectReconciled(total.client_memo, lookups, "memo");
  EXPECT_EQ(system.sp().answer_cache().size(), pool.size());
}

TEST(AdmissionTest, ColdQueriesLeaveTomCachesEmptyAndRepeatsStillHit) {
  TomSystem system(SmallTomOptions(crypto::HashScheme::kSha1));
  Rng rng(18);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  constexpr size_t kCold = 2000;
  for (size_t i = 0; i < kCold; ++i) {
    ASSERT_TRUE(system.ExecuteQuery(ColdRequest(i)).value().verification.ok());
  }
  TomCacheStats cold = system.cache_stats();
  EXPECT_EQ(system.sp().answer_cache().size(), 0u);
  EXPECT_EQ(cold.sp_answer.insertions, 0u);
  EXPECT_EQ(cold.client_memo.insertions, 0u);
  ExpectReconciled(cold.sp_answer, kCold, "sp");
  ExpectReconciled(cold.client_memo, kCold, "memo");

  std::vector<dbms::QueryRequest> pool;
  for (size_t i = 0; i < 64; ++i) {
    pool.push_back(dbms::QueryRequest::TopK(Key(i) * 100, 15000, 3));
  }
  for (int pass = 0; pass < 3; ++pass) {
    TomCacheStats before = system.cache_stats();
    for (const dbms::QueryRequest& request : pool) {
      ASSERT_TRUE(system.ExecuteQuery(request).value().verification.ok());
    }
    TomCacheStats delta = system.cache_stats();
    double expected = pass == 2 ? 1.0 : 0.0;
    EXPECT_EQ((delta.sp_answer - before.sp_answer).HitRate(), expected);
    EXPECT_EQ((delta.client_memo - before.client_memo).HitRate(), expected);
  }
  TomCacheStats total = system.cache_stats();
  const uint64_t lookups = kCold + 3 * pool.size();
  ExpectReconciled(total.sp_answer, lookups, "sp");
  ExpectReconciled(total.client_memo, lookups, "memo");
}

// Eight threads send the same cold request at once. Exactly one miss is
// the first and is declined; whoever misses next is admitted, so the
// answer is kept once and every count still reconciles.
TEST(AdmissionTest, EightThreadsRacingOneColdRequest) {
  SaeSystem system(SmallSaeOptions(crypto::HashScheme::kSha1));
  Rng rng(19);
  uint64_t next_id = 1;
  ASSERT_TRUE(system.Load(MakeDataset(400, &rng, &next_id)).ok());
  constexpr size_t kThreads = 8;
  const dbms::QueryRequest request = dbms::QueryRequest::Scan(1000, 12000);
  std::atomic<size_t> ready{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto outcome = system.ExecuteQuery(request);
      if (!outcome.ok() || !outcome.value().verification.ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  SaeCacheStats stats = system.cache_stats();
  for (const AnswerCacheStats* cache :
       {&stats.sp_answer, &stats.te_vt, &stats.client_memo}) {
    ExpectReconciled(*cache, kThreads, "raced");
    EXPECT_EQ(cache->declined, 1u);
    EXPECT_GE(cache->insertions, 1u);
  }
  EXPECT_EQ(system.sp().answer_cache().size(), 1u);
  // Once the race is over the request hits everywhere.
  SaeCacheStats before = system.cache_stats();
  ASSERT_TRUE(system.ExecuteQuery(request).value().verification.ok());
  SaeCacheStats after = system.cache_stats();
  EXPECT_EQ(after.sp_answer.hits - before.sp_answer.hits, 1u);
  EXPECT_EQ(after.te_vt.hits - before.te_vt.hits, 1u);
  EXPECT_EQ(after.client_memo.hits - before.client_memo.hits, 1u);
}

// --- The differential parity harness -----------------------------------------

// Attacks eligible for random schedules: every mode whose observable
// behavior is a pure function of (system state, request, seed) — which is
// all of them except kPoisonedCache (persistent cache damage, see header
// comment) and kNone (drawn separately).
constexpr AttackMode kParityAttacks[] = {
    AttackMode::kDropOne,         AttackMode::kDropAll,
    AttackMode::kInjectFake,      AttackMode::kTamperPayload,
    AttackMode::kTamperKey,       AttackMode::kDuplicateOne,
    AttackMode::kReplayStaleRoot, AttackMode::kStaleVt,
    AttackMode::kStaleCacheReplay, AttackMode::kWrongCount,
    AttackMode::kWrongSum,        AttackMode::kTruncatedTopK,
};

// One randomized operation: either an update or an (operator, range,
// attack) query. Drawing is shared by the SAE and TOM schedules so both
// models face the same distribution.
struct ScheduleOp {
  bool is_insert = false;
  bool is_delete = false;
  Record record;                // for inserts
  RecordId delete_id = 0;       // for deletes
  dbms::QueryRequest request;   // for queries
  AttackMode attack = AttackMode::kNone;
};

class ScheduleGen {
 public:
  ScheduleGen(uint64_t seed, uint64_t* next_id)
      : rng_(seed), codec_(kRecSize), next_id_(next_id) {}

  ScheduleOp Next(std::vector<RecordId>* live_ids) {
    ScheduleOp op;
    uint64_t roll = rng_.NextBounded(100);
    if (roll < 10) {  // insert
      op.is_insert = true;
      op.record =
          codec_.MakeRecord((*next_id_)++, Key(rng_.NextBounded(kDomain)));
      live_ids->push_back(op.record.id);
      return op;
    }
    if (roll < 18 && !live_ids->empty()) {  // delete
      op.is_delete = true;
      size_t pick = rng_.NextBounded(live_ids->size());
      op.delete_id = (*live_ids)[pick];
      live_ids->erase(live_ids->begin() + ptrdiff_t(pick));
      return op;
    }
    // Query: half the time replay a previously issued request so answer
    // caches actually hit; otherwise draw a fresh one.
    if (!issued_.empty() && rng_.NextBounded(2) == 0) {
      op.request = issued_[rng_.NextBounded(issued_.size())];
    } else {
      op.request = FreshRequest();
      issued_.push_back(op.request);
    }
    if (rng_.NextBounded(100) < 15) {
      op.attack = kParityAttacks[rng_.NextBounded(
          sizeof(kParityAttacks) / sizeof(kParityAttacks[0]))];
    }
    return op;
  }

 private:
  dbms::QueryRequest FreshRequest() {
    Key lo = Key(rng_.NextBounded(kDomain));
    Key hi = lo + Key(rng_.NextBounded(kDomain / 4)) + 1;
    switch (rng_.NextBounded(7)) {
      case 0: return dbms::QueryRequest::Scan(lo, hi);
      case 1: return dbms::QueryRequest::Point(lo);
      case 2: return dbms::QueryRequest::Count(lo, hi);
      case 3: return dbms::QueryRequest::Sum(lo, hi);
      case 4: return dbms::QueryRequest::Min(lo, hi);
      case 5: return dbms::QueryRequest::Max(lo, hi);
      default:
        return dbms::QueryRequest::TopK(lo, hi,
                                        uint32_t(rng_.NextBounded(10)) + 1);
    }
  }

  Rng rng_;
  storage::RecordCodec codec_;
  uint64_t* next_id_;
  std::vector<dbms::QueryRequest> issued_;
};

// Runs one schedule against a cached/uncached SAE pair; every outcome must
// be observably identical down to the serialized bytes.
void RunSaeSchedule(crypto::HashScheme scheme, uint64_t seed,
                    AnswerCacheStats* answer_hits_acc,
                    storage::NodeCacheStats* digest_hits_acc) {
  Rng setup(seed);
  uint64_t next_id = 1;
  size_t n = 160 + setup.NextBounded(240);
  std::vector<Record> dataset;
  {
    Rng data_rng(seed ^ 0x9E3779B97F4A7C15ull);
    dataset = MakeDataset(n, &data_rng, &next_id);
  }
  SaeSystem cached(SmallSaeOptions(scheme));
  SaeSystem uncached(SmallSaeOptions(scheme).DisableCaches());
  ASSERT_TRUE(cached.Load(dataset).ok());
  ASSERT_TRUE(uncached.Load(dataset).ok());
  adversary::SaeAdversary cached_sp(&cached);
  adversary::SaeAdversary uncached_sp(&uncached);

  ScheduleGen gen(seed * 2654435761u + 1, &next_id);
  std::vector<RecordId> live_ids;
  for (const Record& r : dataset) live_ids.push_back(r.id);

  const RecordCodec& codec = cached.codec();
  for (int step = 0; step < 16; ++step) {
    ScheduleOp op = gen.Next(&live_ids);
    if (op.is_insert) {
      auto a = cached.InsertVersioned(op.record);
      auto b = uncached.InsertVersioned(op.record);
      ASSERT_EQ(a.status().code(), b.status().code());
      if (a.ok()) {
      ASSERT_EQ(a.value(), b.value());
    }
      continue;
    }
    if (op.is_delete) {
      auto a = cached.DeleteVersioned(op.delete_id);
      auto b = uncached.DeleteVersioned(op.delete_id);
      ASSERT_EQ(a.status().code(), b.status().code());
      if (a.ok()) {
      ASSERT_EQ(a.value(), b.value());
    }
      continue;
    }
    auto a = cached_sp.Query(op.request, op.attack);
    auto b = uncached_sp.Query(op.request, op.attack);
    ASSERT_EQ(a.status().code(), b.status().code());
    if (!a.ok()) continue;
    const auto& ca = a.value();
    const auto& cb = b.value();
    ASSERT_EQ(ca.verification.code(), cb.verification.code())
        << "attack=" << int(op.attack) << " step=" << step << " seed=" << seed;
    ASSERT_EQ(ca.claimed_epoch, cb.claimed_epoch);
    ASSERT_EQ(ca.answer, cb.answer);
    ASSERT_EQ(ca.results, cb.results);
    // Bit-level: the exact wire bytes of answer+witness and of the token.
    ASSERT_EQ(SerializeQueryAnswer(ca.answer, ca.results, ca.claimed_epoch,
                                   codec),
              SerializeQueryAnswer(cb.answer, cb.results, cb.claimed_epoch,
                                   codec));
    ASSERT_EQ(SerializeVt(ca.vt), SerializeVt(cb.vt));
  }
  SaeCacheStats stats = cached.cache_stats();
  *answer_hits_acc += stats.sp_answer;
  *digest_hits_acc += stats.te_digest;
  SaeCacheStats off = uncached.cache_stats();
  ASSERT_EQ(off.sp_answer.insertions, 0u);
  ASSERT_EQ(off.te_digest.hits, 0u);
}

void RunTomSchedule(crypto::HashScheme scheme, uint64_t seed,
                    AnswerCacheStats* answer_hits_acc,
                    storage::NodeCacheStats* digest_hits_acc) {
  Rng setup(seed);
  uint64_t next_id = 1;
  size_t n = 160 + setup.NextBounded(240);
  std::vector<Record> dataset;
  {
    Rng data_rng(seed ^ 0x9E3779B97F4A7C15ull);
    dataset = MakeDataset(n, &data_rng, &next_id);
  }
  TomSystem cached(SmallTomOptions(scheme));
  TomSystem uncached(SmallTomOptions(scheme).DisableCaches());
  ASSERT_TRUE(cached.Load(dataset).ok());
  ASSERT_TRUE(uncached.Load(dataset).ok());
  adversary::TomAdversary cached_sp(&cached);
  adversary::TomAdversary uncached_sp(&uncached);

  ScheduleGen gen(seed * 2654435761u + 1, &next_id);
  std::vector<RecordId> live_ids;
  for (const Record& r : dataset) live_ids.push_back(r.id);

  const RecordCodec& codec = cached.codec();
  for (int step = 0; step < 16; ++step) {
    ScheduleOp op = gen.Next(&live_ids);
    if (op.is_insert) {
      auto a = cached.InsertVersioned(op.record);
      auto b = uncached.InsertVersioned(op.record);
      ASSERT_EQ(a.status().code(), b.status().code());
      if (a.ok()) {
      ASSERT_EQ(a.value(), b.value());
    }
      continue;
    }
    if (op.is_delete) {
      auto a = cached.DeleteVersioned(op.delete_id);
      auto b = uncached.DeleteVersioned(op.delete_id);
      ASSERT_EQ(a.status().code(), b.status().code());
      if (a.ok()) {
      ASSERT_EQ(a.value(), b.value());
    }
      continue;
    }
    auto a = cached_sp.Query(op.request, op.attack);
    auto b = uncached_sp.Query(op.request, op.attack);
    ASSERT_EQ(a.status().code(), b.status().code());
    if (!a.ok()) continue;
    const auto& ca = a.value();
    const auto& cb = b.value();
    ASSERT_EQ(ca.verification.code(), cb.verification.code())
        << "attack=" << int(op.attack) << " step=" << step << " seed=" << seed;
    ASSERT_EQ(ca.answer, cb.answer);
    ASSERT_EQ(ca.results, cb.results);
    ASSERT_EQ(SerializeQueryAnswer(ca.answer, ca.results, ca.vo.epoch, codec),
              SerializeQueryAnswer(cb.answer, cb.results, cb.vo.epoch, codec));
    ASSERT_EQ(ca.vo.Serialize(), cb.vo.Serialize());
  }
  TomCacheStats stats = cached.cache_stats();
  *answer_hits_acc += stats.sp_answer;
  *digest_hits_acc += stats.sp_digest;
  TomCacheStats off = uncached.cache_stats();
  ASSERT_EQ(off.sp_answer.insertions, 0u);
  ASSERT_EQ(off.sp_digest.hits, 0u);
}

// 2 schemes x 400 SAE schedules + 2 schemes x 110 TOM schedules = 1020
// randomized differential schedules, each ~16 operations.

class SaeParityTest
    : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(SaeParityTest, FourHundredRandomSchedulesBitIdentical) {
  AnswerCacheStats answer_acc;
  storage::NodeCacheStats digest_acc;
  for (uint64_t s = 0; s < 400; ++s) {
    RunSaeSchedule(GetParam(), s + 1, &answer_acc, &digest_acc);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The schedules must actually exercise the caches, or parity is vacuous.
  EXPECT_GT(answer_acc.hits, 100u);
  EXPECT_GT(digest_acc.hits, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    BothSchemes, SaeParityTest,
    ::testing::Values(crypto::HashScheme::kSha1, crypto::HashScheme::kSha256Trunc),
    [](const ::testing::TestParamInfo<crypto::HashScheme>& info) {
      return info.param == crypto::HashScheme::kSha1 ? "Sha1" : "Sha256Trunc";
    });

class TomParityTest
    : public ::testing::TestWithParam<crypto::HashScheme> {};

TEST_P(TomParityTest, HundredTenRandomSchedulesBitIdentical) {
  AnswerCacheStats answer_acc;
  storage::NodeCacheStats digest_acc;
  for (uint64_t s = 0; s < 110; ++s) {
    RunTomSchedule(GetParam(), s + 1, &answer_acc, &digest_acc);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(answer_acc.hits, 50u);
  EXPECT_GT(digest_acc.hits, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    BothSchemes, TomParityTest,
    ::testing::Values(crypto::HashScheme::kSha1, crypto::HashScheme::kSha256Trunc),
    [](const ::testing::TestParamInfo<crypto::HashScheme>& info) {
      return info.param == crypto::HashScheme::kSha1 ? "Sha1" : "Sha256Trunc";
    });

}  // namespace
}  // namespace sae::core
