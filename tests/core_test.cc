// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for src/core: message codecs, SAE entities, TOM entities, the
// client verifier, and the adversary toolbox.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <unordered_map>

#include "adversary/malicious_sp.h"
#include "core/answer_cache.h"
#include "core/client.h"
#include "core/client_memo.h"
#include "core/data_owner.h"
#include "core/messages.h"
#include "core/service_provider.h"
#include "core/system.h"
#include "core/tom.h"
#include "core/trusted_entity.h"
#include "util/random.h"

namespace sae::core {
namespace {

using adversary::ApplyAttack;
using adversary::AttackMode;

constexpr size_t kRecSize = 64;

std::vector<Record> SmallDataset(size_t n, uint32_t key_stride = 10) {
  RecordCodec codec(kRecSize);
  std::vector<Record> out;
  for (uint64_t id = 1; id <= n; ++id) {
    out.push_back(codec.MakeRecord(id, uint32_t(id * key_stride)));
  }
  return out;
}

// --- messages -----------------------------------------------------------------

TEST(MessagesTest, RecordsRoundTrip) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records = SmallDataset(20);
  std::vector<uint8_t> bytes = SerializeRecords(records, codec);
  auto back = DeserializeRecords(bytes, codec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), records);
}

TEST(MessagesTest, RecordsSizeIsPredictable) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records = SmallDataset(10);
  // 13-byte header + n * record_size.
  EXPECT_EQ(SerializeRecords(records, codec).size(), 13 + 10 * kRecSize);
}

TEST(MessagesTest, RecordsMessageSizeMatchesTheSerializedMessage) {
  for (size_t record_size : {12u, 500u}) {
    RecordCodec codec(record_size);
    for (size_t n : {0u, 1u, 1000u}) {
      std::vector<Record> records;
      for (size_t i = 0; i < n; ++i) {
        records.push_back(codec.MakeRecord(i + 1, uint32_t(i * 7)));
      }
      EXPECT_EQ(RecordsMessageSize(n, codec),
                SerializeRecords(records, codec).size())
          << "record size " << record_size << ", n " << n;
    }
  }
}

// Load meters the dataset shipment by its size alone. The totals are the
// ones the serialized shipment gave: dataset plus epoch notice (SAE, on
// both owner channels) or plus the signed root (TOM).
TEST(MessagesTest, LoadMetersTheDatasetShipmentByteForByte) {
  std::vector<Record> dataset = SmallDataset(1000);
  SaeSystem::Options sae_options;
  sae_options.record_size = kRecSize;
  SaeSystem sae(sae_options);
  ASSERT_TRUE(sae.Load(dataset).ok());
  EXPECT_EQ(sae.do_sp_channel().total_bytes(), 64022u);
  EXPECT_EQ(sae.do_te_channel().total_bytes(), 64022u);
  EXPECT_EQ(sae.do_sp_channel().messages(), 2u);
  EXPECT_EQ(sae.do_te_channel().messages(), 2u);

  TomSystem::Options tom_options;
  tom_options.record_size = kRecSize;
  tom_options.rsa_modulus_bits = 512;
  TomSystem tom(tom_options);
  ASSERT_TRUE(tom.Load(dataset).ok());
  EXPECT_EQ(tom.do_sp_channel().total_bytes(), 64088u);
  EXPECT_EQ(tom.do_sp_channel().messages(), 2u);
}

TEST(MessagesTest, QueryRoundTrip) {
  auto bytes = SerializeQuery(123, 456);
  auto q = DeserializeQuery(bytes);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().first, 123u);
  EXPECT_EQ(q.value().second, 456u);
}

TEST(MessagesTest, VtRoundTripAndSize) {
  VerificationToken vt;
  vt.epoch = 42;
  vt.digest = crypto::ComputeDigest("x", 1);
  auto bytes = SerializeVt(vt);
  // 1 tag + 8 epoch + 20 digest — still constant, still "a few bytes".
  EXPECT_EQ(bytes.size(), 29u);
  auto back = DeserializeVt(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), vt);
}

TEST(MessagesTest, ResultsRoundTripCarriesEpoch) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records = SmallDataset(7);
  auto bytes = SerializeResults(records, 99, codec);
  auto back = DeserializeResults(bytes, codec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().first, records);
  EXPECT_EQ(back.value().second, 99u);
  // Epoch stamp costs exactly 8 bytes over the plain records message.
  EXPECT_EQ(bytes.size(), SerializeRecords(records, codec).size() + 8);
}

TEST(MessagesTest, EpochNoticeRoundTrip) {
  auto bytes = SerializeEpochNotice(0xDEADBEEFu);
  EXPECT_EQ(bytes.size(), 9u);  // tag + u64
  auto back = DeserializeEpochNotice(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), 0xDEADBEEFu);
}

TEST(MessagesTest, DeleteRoundTrip) {
  auto bytes = SerializeDelete(987654321, 42);
  auto back = DeserializeDelete(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().first, 987654321u);
  EXPECT_EQ(back.value().second, 42u);
}

TEST(MessagesTest, SignatureRoundTrip) {
  crypto::RsaSignature sig{1, 2, 3, 4, 5};
  auto back = DeserializeSignature(SerializeSignature(sig, 17));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().first, sig);
  EXPECT_EQ(back.value().second, 17u);
}

TEST(MessagesTest, MistaggedMessagesRejected) {
  auto vt_bytes = SerializeVt(VerificationToken{});
  EXPECT_FALSE(DeserializeQuery(vt_bytes).ok());
  EXPECT_FALSE(DeserializeSignature(vt_bytes).ok());
  EXPECT_FALSE(DeserializeEpochNotice(vt_bytes).ok());
  RecordCodec codec(kRecSize);
  EXPECT_FALSE(DeserializeRecords(vt_bytes, codec).ok());
  EXPECT_FALSE(DeserializeResults(vt_bytes, codec).ok());
}

// --- SAE client ----------------------------------------------------------------

TEST(ClientTest, XorMatchesManualComputation) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records = SmallDataset(5);
  crypto::Digest manual;
  for (const Record& r : records) {
    std::vector<uint8_t> bytes = codec.Serialize(r);
    manual ^= crypto::ComputeDigest(bytes.data(), bytes.size());
  }
  EXPECT_EQ(Client::ResultXor(records, codec), manual);
  EXPECT_TRUE(
      Client::CompareXor(Client::ResultXor(records, codec), manual).ok());
}

TEST(ClientTest, OrderInvariance) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records = SmallDataset(8);
  crypto::Digest vt = Client::ResultXor(records, codec);
  std::reverse(records.begin(), records.end());
  EXPECT_TRUE(Client::CompareXor(Client::ResultXor(records, codec), vt).ok());
}

TEST(ClientTest, EmptyResultHasZeroXor) {
  RecordCodec codec(kRecSize);
  EXPECT_TRUE(Client::ResultXor({}, codec).IsZero());
}

// --- adversary -------------------------------------------------------------------

class AttackTest : public ::testing::TestWithParam<AttackMode> {};

TEST_P(AttackTest, AttackChangesResultXor) {
  RecordCodec codec(kRecSize);
  std::vector<Record> honest = SmallDataset(12);
  std::vector<Record> tampered = ApplyAttack(honest, GetParam(), codec, 7);
  crypto::Digest honest_xor = Client::ResultXor(honest, codec);
  if (GetParam() == AttackMode::kNone) {
    EXPECT_EQ(Client::ResultXor(tampered, codec), honest_xor);
  } else {
    EXPECT_NE(Client::ResultXor(tampered, codec), honest_xor)
        << "attack escaped the XOR check";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, AttackTest,
    ::testing::Values(AttackMode::kNone, AttackMode::kDropOne,
                      AttackMode::kDropAll, AttackMode::kInjectFake,
                      AttackMode::kTamperPayload, AttackMode::kTamperKey,
                      AttackMode::kDuplicateOne));

TEST(AttackTest, EmptyHonestResultStillAttacked) {
  RecordCodec codec(kRecSize);
  std::vector<Record> tampered =
      ApplyAttack({}, AttackMode::kDropOne, codec, 3);
  EXPECT_FALSE(tampered.empty());  // degrades to injection
}

// --- SAE entities -----------------------------------------------------------------

class SaeEntitiesTest : public ::testing::Test {
 protected:
  SaeEntitiesTest()
      : sp_(ServiceProvider::Options{kRecSize, 256, 256, {}}),
        te_(TrustedEntity::Options{kRecSize, crypto::HashScheme::kSha1, 256,
                                   {}, {}}),
        owner_(kRecSize) {}

  void Outsource(size_t n) {
    ASSERT_TRUE(
        owner_.Outsource(SmallDataset(n), &sp_, &te_, &do_sp_, &do_te_).ok());
  }

  ServiceProvider sp_;
  TrustedEntity te_;
  DataOwner owner_;
  sim::Channel do_sp_{"DO->SP"};
  sim::Channel do_te_{"DO->TE"};
};

TEST_F(SaeEntitiesTest, OutsourceShipsDatasetToBothParties) {
  Outsource(100);
  EXPECT_EQ(do_sp_.total_bytes(), do_te_.total_bytes());
  EXPECT_GT(do_sp_.total_bytes(), 100 * kRecSize);
  EXPECT_EQ(sp_.table().size(), 100u);
  EXPECT_EQ(te_.xb_tree().size(), 100u);
}

TEST_F(SaeEntitiesTest, HonestQueryVerifies) {
  Outsource(200);
  auto results = sp_.ExecuteRange(500, 1500);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 101u);
  auto vt = te_.GenerateVt(500, 1500);
  ASSERT_TRUE(vt.ok());
  EXPECT_TRUE(
      Client::CompareXor(Client::ResultXor(results.value(), owner_.codec()),
                         vt.value().digest)
          .ok());
}

TEST_F(SaeEntitiesTest, UpdatesPropagate) {
  Outsource(50);
  RecordCodec codec(kRecSize);
  Record fresh = codec.MakeRecord(1000, 105);
  ASSERT_TRUE(
      owner_.InsertRecord(fresh, &sp_, &te_, &do_sp_, &do_te_).ok());
  ASSERT_TRUE(owner_.DeleteRecord(3, &sp_, &te_, &do_sp_, &do_te_).ok());

  auto results = sp_.ExecuteRange(0, 10000);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 50u);  // +1 insert, -1 delete
  auto vt = te_.GenerateVt(0, 10000);
  ASSERT_TRUE(vt.ok());
  EXPECT_TRUE(
      Client::CompareXor(Client::ResultXor(results.value(), owner_.codec()),
                         vt.value().digest)
          .ok());
}

TEST_F(SaeEntitiesTest, EpochPublishedToBothParties) {
  Outsource(30);
  // Outsourcing publishes epoch 1 to SP and TE; every update bumps it.
  EXPECT_EQ(owner_.epoch(), 1u);
  EXPECT_EQ(sp_.epoch(), 1u);
  EXPECT_EQ(te_.epoch(), 1u);

  RecordCodec codec(kRecSize);
  ASSERT_TRUE(owner_
                  .InsertRecord(codec.MakeRecord(1000, 105), &sp_, &te_,
                                &do_sp_, &do_te_)
                  .ok());
  EXPECT_EQ(owner_.epoch(), 2u);
  EXPECT_EQ(sp_.epoch(), 2u);
  EXPECT_EQ(te_.epoch(), 2u);
  // The TE stamps its epoch into every token.
  EXPECT_EQ(te_.GenerateVt(0, 1000).value().epoch, 2u);

  // A failed update must not advance the epoch.
  EXPECT_EQ(owner_.DeleteRecord(9999, &sp_, &te_, &do_sp_, &do_te_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(owner_.epoch(), 2u);

  // The full client check accepts only the published epoch.
  auto results = sp_.ExecuteRange(0, 10000).ValueOrDie();
  auto vt = te_.GenerateVt(0, 10000).ValueOrDie();
  dbms::QueryRequest scan = dbms::QueryRequest::Scan(0, 10000);
  dbms::QueryAnswer answer = dbms::EvaluateAnswer(scan, results);
  EXPECT_TRUE(Client::VerifyAnswer(scan, answer, results, vt, sp_.epoch(),
                                   owner_.epoch(), owner_.codec())
                  .ok());
  // Stale token (older epoch) -> distinct freshness failure.
  VerificationToken stale = vt;
  stale.epoch = 1;
  EXPECT_EQ(Client::VerifyAnswer(scan, answer, results, stale, sp_.epoch(),
                                 owner_.epoch(), owner_.codec())
                .code(),
            StatusCode::kStaleEpoch);
  // Stale SP claim -> distinct freshness failure.
  EXPECT_EQ(Client::VerifyAnswer(scan, answer, results, vt, /*claimed=*/1,
                                 owner_.epoch(), owner_.codec())
                .code(),
            StatusCode::kStaleEpoch);
}

TEST(TeStorageTest, SmallFractionOfSpAtPaperRecordSize) {
  // With the paper's 500-byte records the TE keeps ~68 bytes per record
  // (36-byte tuple chunk + amortized XB-tree entry) versus the SP's 500-byte
  // record + index posting.
  constexpr size_t kPaperRecSize = 500;
  RecordCodec codec(kPaperRecSize);
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 2000; ++id) {
    records.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  ServiceProvider sp(ServiceProvider::Options{kPaperRecSize, 256, 256, {}});
  TrustedEntity te(TrustedEntity::Options{
      kPaperRecSize, crypto::HashScheme::kSha1, 256, {}, {}});
  ASSERT_TRUE(sp.LoadDataset(records).ok());
  ASSERT_TRUE(te.LoadDataset(records).ok());
  EXPECT_LT(te.StorageBytes(), sp.StorageBytes() / 4);
}

TEST_F(SaeEntitiesTest, VtCostIndependentOfResultSize) {
  Outsource(4000);
  auto before = te_.pool_stats();
  ASSERT_TRUE(te_.GenerateVt(0, 40000 / 2).ok());  // half the dataset
  uint64_t wide = (te_.pool_stats() - before).accesses;
  before = te_.pool_stats();
  ASSERT_TRUE(te_.GenerateVt(1000, 1100).ok());  // tiny range
  uint64_t narrow = (te_.pool_stats() - before).accesses;
  // Both are O(height); the wide query must not scale with result size.
  EXPECT_LT(wide, narrow + 12 * te_.xb_tree().height());
}

// --- TOM entities -----------------------------------------------------------------

class TomEntitiesTest : public ::testing::Test {
 protected:
  static TomDataOwner::Options OwnerOptions() {
    TomDataOwner::Options o;
    o.record_size = kRecSize;
    o.rsa_modulus_bits = 512;  // fast for tests
    o.pool_pages = 256;
    return o;
  }
  static TomServiceProvider::Options SpOptions() {
    TomServiceProvider::Options o;
    o.record_size = kRecSize;
    o.index_pool_pages = 256;
    o.heap_pool_pages = 256;
    return o;
  }

  TomEntitiesTest() : owner_(OwnerOptions()), sp_(SpOptions()) {}

  void Load(size_t n) {
    auto records = SmallDataset(n);
    ASSERT_TRUE(owner_.LoadDataset(records).ok());
    ASSERT_TRUE(
        sp_.LoadDataset(records, owner_.signature(), owner_.epoch()).ok());
  }

  Status Verify(Key lo, Key hi, const std::vector<Record>& results,
                const mbtree::VerificationObject& vo) {
    return TomClient::Verify(lo, hi, results, vo, owner_.public_key(),
                             codec_, crypto::HashScheme::kSha1,
                             owner_.epoch());
  }

  TomDataOwner owner_;
  TomServiceProvider sp_;
  RecordCodec codec_{kRecSize};
};

TEST_F(TomEntitiesTest, HonestQueryVerifies) {
  Load(300);
  auto response = sp_.ExecuteRange(500, 1500);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().results.size(), 101u);
  EXPECT_EQ(response.value().vo.epoch, 1u);
  EXPECT_TRUE(
      Verify(500, 1500, response.value().results, response.value().vo).ok());
}

TEST_F(TomEntitiesTest, DoAndSpAdsStayInSync) {
  Load(100);
  EXPECT_EQ(owner_.ads().root_digest(), sp_.ads().root_digest());
  EXPECT_EQ(owner_.epoch(), 1u);
  RecordCodec codec(kRecSize);
  Record fresh = codec.MakeRecord(500, 333);
  ASSERT_TRUE(owner_.InsertRecord(fresh).ok());
  ASSERT_TRUE(
      sp_.ApplyInsert(fresh, owner_.signature(), owner_.epoch()).ok());
  EXPECT_EQ(owner_.ads().root_digest(), sp_.ads().root_digest());
  EXPECT_EQ(owner_.epoch(), 2u);
  EXPECT_EQ(sp_.epoch(), 2u);
  ASSERT_TRUE(owner_.DeleteRecord(7).ok());
  ASSERT_TRUE(sp_.ApplyDelete(7, owner_.signature(), owner_.epoch()).ok());
  EXPECT_EQ(owner_.ads().root_digest(), sp_.ads().root_digest());
  EXPECT_EQ(owner_.epoch(), 3u);
}

TEST_F(TomEntitiesTest, QueryAfterUpdatesVerifies) {
  Load(150);
  RecordCodec codec(kRecSize);
  for (uint64_t id = 500; id < 520; ++id) {
    Record fresh = codec.MakeRecord(id, uint32_t(id * 3));
    ASSERT_TRUE(owner_.InsertRecord(fresh).ok());
    ASSERT_TRUE(
        sp_.ApplyInsert(fresh, owner_.signature(), owner_.epoch()).ok());
  }
  for (uint64_t id = 10; id < 20; ++id) {
    ASSERT_TRUE(owner_.DeleteRecord(id).ok());
    ASSERT_TRUE(sp_.ApplyDelete(id, owner_.signature(), owner_.epoch()).ok());
  }
  auto response = sp_.ExecuteRange(0, 5000);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(
      Verify(0, 5000, response.value().results, response.value().vo).ok());
}

TEST_F(TomEntitiesTest, TamperedResultsRejected) {
  Load(200);
  auto response = sp_.ExecuteRange(100, 900);
  ASSERT_TRUE(response.ok());
  for (AttackMode mode :
       {AttackMode::kDropOne, AttackMode::kInjectFake,
        AttackMode::kTamperPayload, AttackMode::kDropAll}) {
    std::vector<Record> tampered =
        ApplyAttack(response.value().results, mode, codec_, 13);
    EXPECT_FALSE(
        Verify(100, 900, tampered, response.value().vo).ok())
        << "mode " << int(mode);
  }
}

TEST_F(TomEntitiesTest, MbTreeFanoutBelowBPlusTree) {
  Load(100);
  // The ADS digests shrink fanout: 127 vs 340 at the leaf level — the
  // mechanism behind TOM's higher SP cost in Fig. 6.
  EXPECT_LT(sp_.ads().max_leaf_entries(), 340u / 2);
}

// --- one-pass Load -----------------------------------------------------------

// A dataset with many records per key, so the (key, id) order within a key
// is exercised, and a copy of it in a seeded random order.
std::vector<Record> RunsOfKeys(size_t n) {
  RecordCodec codec(kRecSize);
  std::vector<Record> out;
  for (uint64_t id = 1; id <= n; ++id) {
    out.push_back(codec.MakeRecord(id, uint32_t((id * 7) % 53 * 10)));
  }
  std::sort(out.begin(), out.end(), storage::ByKeyId);
  return out;
}

std::vector<Record> Shuffled(std::vector<Record> records, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.NextBounded(i)]);
  }
  return records;
}

// Every byte the loaded parties serve for a fixed set of plans — the SP's
// answer message, and the TE's token (SAE) or the SP's VO (TOM) — plus the
// SP table's records and index shape, from one walk of its index.
template <typename Sp>
std::vector<std::vector<uint8_t>> ServedBytes(const Sp& sp,
                                              const TrustedEntity* te) {
  const std::vector<dbms::QueryRequest> plans = {
      dbms::QueryRequest::Scan(0, 1000),   dbms::QueryRequest::Scan(95, 255),
      dbms::QueryRequest::Point(250),      dbms::QueryRequest::Count(20, 400),
      dbms::QueryRequest::Sum(0, 530),     dbms::QueryRequest::Min(31, 300),
      dbms::QueryRequest::Max(31, 300),    dbms::QueryRequest::TopK(0, 520, 5)};
  std::vector<std::vector<uint8_t>> out;
  for (const dbms::QueryRequest& plan : plans) {
    auto served = sp.ServeQuery(plan);
    EXPECT_TRUE(served.ok());
    if (!served.ok()) return out;
    out.push_back(served.value()->answer_msg);
    if (te != nullptr) {
      out.push_back(SerializeVt(te->GenerateVt(plan).ValueOrDie()));
    } else {
      out.push_back(served.value()->proof_msg);
    }
  }
  std::vector<Record> records;
  btree::TreeShape shape;
  EXPECT_TRUE(sp.table().Dump(&records, &shape).ok());
  RecordCodec codec(kRecSize);
  out.push_back(SerializeRecords(records, codec));
  for (const std::vector<uint32_t>& level : shape) {
    out.push_back(std::vector<uint8_t>(
        reinterpret_cast<const uint8_t*>(level.data()),
        reinterpret_cast<const uint8_t*>(level.data() + level.size())));
  }
  return out;
}

TEST_F(SaeEntitiesTest, OutsourceRejectsADuplicateIdBeforeAnyChange) {
  Outsource(20);
  std::vector<Record> dup = SmallDataset(5);
  dup.push_back(dup[2]);
  DataOwner fresh(kRecSize);
  EXPECT_EQ(fresh.Outsource(dup, &sp_, &te_, &do_sp_, &do_te_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.epoch(), 0u);
  EXPECT_FALSE(fresh.HasRecord(1));

  // A loaded owner keeps its master copy and epoch, and the parties
  // receive nothing.
  const uint64_t shipped = do_sp_.total_bytes() + do_te_.total_bytes();
  EXPECT_EQ(owner_.Outsource(dup, &sp_, &te_, &do_sp_, &do_te_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(owner_.epoch(), 1u);
  EXPECT_EQ(owner_.SortedDataset(), SmallDataset(20));
  EXPECT_EQ(do_sp_.total_bytes() + do_te_.total_bytes(), shipped);
  EXPECT_EQ(sp_.table().size(), 20u);
}

TEST(SystemLoadTest, SaeLoadsAShuffledCopyToTheSameBytes) {
  const std::vector<Record> sorted = RunsOfKeys(500);
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem from_sorted(options), from_shuffled(options);
  ASSERT_TRUE(from_sorted.Load(sorted).ok());
  ASSERT_TRUE(from_shuffled.Load(Shuffled(sorted, 7)).ok());
  EXPECT_EQ(ServedBytes(from_shuffled.sp(), &from_shuffled.te()),
            ServedBytes(from_sorted.sp(), &from_sorted.te()));
  EXPECT_EQ(from_shuffled.do_sp_channel().total_bytes(),
            from_sorted.do_sp_channel().total_bytes());
  auto a = from_sorted.Query(dbms::QueryRequest::Sum(0, 300));
  auto b = from_shuffled.Query(dbms::QueryRequest::Sum(0, 300));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(b.value().verification.ok());
  EXPECT_EQ(b.value().answer.sum, a.value().answer.sum);
  EXPECT_EQ(SerializeVt(b.value().vt), SerializeVt(a.value().vt));
  EXPECT_EQ(b.value().results, a.value().results);
}

TEST(SystemLoadTest, TomLoadsAShuffledCopyToTheSameBytes) {
  const std::vector<Record> sorted = RunsOfKeys(500);
  TomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;
  TomSystem from_sorted(options), from_shuffled(options);
  ASSERT_TRUE(from_sorted.Load(sorted).ok());
  ASSERT_TRUE(from_shuffled.Load(Shuffled(sorted, 7)).ok());
  EXPECT_EQ(ServedBytes(from_shuffled.sp(), nullptr),
            ServedBytes(from_sorted.sp(), nullptr));
  EXPECT_EQ(from_shuffled.owner().signature(), from_sorted.owner().signature());
  auto a = from_sorted.Query(dbms::QueryRequest::Sum(0, 300));
  auto b = from_shuffled.Query(dbms::QueryRequest::Sum(0, 300));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(b.value().verification.ok());
  EXPECT_EQ(b.value().answer.sum, a.value().answer.sum);
  EXPECT_EQ(b.value().results, a.value().results);
}

// --- verified-path caches -----------------------------------------------------

// The TE token depends on the range alone, so the memo keys on (range,
// epoch): three operators over one range share one entry, while the SP
// answer cache keys on the operator too.
TEST(TokenMemoTest, KeyedByRangeAndEpochAlone) {
  SaeSystem::Options options;
  options.record_size = kRecSize;
  SaeSystem system(options);
  ASSERT_TRUE(system.Load(SmallDataset(200)).ok());

  SaeCacheStats before = system.cache_stats();
  for (const dbms::QueryRequest& request :
       {dbms::QueryRequest::Scan(500, 1500),
        dbms::QueryRequest::Count(500, 1500),
        dbms::QueryRequest::TopK(500, 1500, 3)}) {
    auto outcome = system.Query(request);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().verification.ok());
  }
  SaeCacheStats after = system.cache_stats();
  AnswerCacheStats te = after.te_vt - before.te_vt;
  EXPECT_EQ(te.misses, 2u);
  EXPECT_EQ(te.declined, 1u);    // the scan: the range's first miss
  EXPECT_EQ(te.insertions, 1u);  // the count: its second miss
  EXPECT_EQ(te.hits, 1u);        // the top-k
  AnswerCacheStats sp = after.sp_answer - before.sp_answer;
  EXPECT_EQ(sp.misses, 3u);
  EXPECT_EQ(sp.declined, 3u);
  EXPECT_EQ(sp.hits, 0u);

  // An update moves the epoch: the same range misses again.
  RecordCodec codec(kRecSize);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(1000, 105)).ok());
  before = system.cache_stats();
  ASSERT_TRUE(system.Query(dbms::QueryRequest::Scan(500, 1500)).ok());
  te = system.cache_stats().te_vt - before.te_vt;
  EXPECT_EQ(te.misses, 1u);
  EXPECT_EQ(te.hits, 0u);
}

// A lying aggregate over the honest witness matches the token, so only the
// answer check rejects it. The memo keeps accepted answers alone: every
// repeat is rejected afresh, none holds a slot, and each rejected miss that
// was admitted counts as declined, so insertions + declined == misses.
TEST(ClientMemoTest, TokenMatchedLyingAggregateIsNeverKept) {
  RecordCodec codec(kRecSize);
  const dbms::QueryRequest request = dbms::QueryRequest::Count(100, 400);
  std::vector<Record> witness;
  for (const Record& r : SmallDataset(100)) {
    if (r.key >= request.lo && r.key <= request.hi) witness.push_back(r);
  }
  VerificationToken vt;
  vt.digest = Client::ResultXor(witness, codec);
  vt.epoch = 1;
  const dbms::QueryAnswer honest = dbms::EvaluateAnswer(request, witness);
  dbms::QueryAnswer lying = honest;
  ++lying.count;

  SaeClientMemo memo{AnswerCacheOptions{}};
  for (int i = 0; i < 4; ++i) {
    Status verdict =
        memo.VerifyAnswer(request, lying, witness, vt, 1, 1, codec,
                          crypto::HashScheme::kSha1);
    EXPECT_EQ(verdict.code(), StatusCode::kVerificationFailure)
        << "repeat " << i << ": " << verdict.ToString();
    EXPECT_EQ(memo.size(), 0u) << "repeat " << i;
  }
  AnswerCacheStats stats = memo.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.insertions + stats.declined, stats.misses);

  // The honest answer for the same request is kept and then hits.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(memo.VerifyAnswer(request, honest, witness, vt, 1, 1, codec,
                                  crypto::HashScheme::kSha1)
                    .ok());
  }
  stats = memo.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions + stats.declined, stats.misses);
  EXPECT_EQ(memo.size(), 1u);
}

// The list + map LRUs the answer cache, the client memo and the seen set
// each carried before they shared util/lru_table.h, copied as references.
// The answer cache evicted before inserting, the memo after.
struct ReferenceSeen {
  explicit ReferenceSeen(size_t capacity) : capacity(capacity) {}

  bool RecordMiss(const dbms::QueryRequest& request) {
    auto it = index.find(request);
    if (it != index.end()) {
      order.splice(order.begin(), order, it->second);
      return true;
    }
    if (capacity == 0) return false;
    if (index.size() >= capacity) {
      index.erase(order.back());
      order.pop_back();
    }
    order.push_front(request);
    index.emplace(request, order.begin());
    return false;
  }

  size_t capacity;
  std::list<dbms::QueryRequest> order;
  std::unordered_map<dbms::QueryRequest,
                     std::list<dbms::QueryRequest>::iterator, RequestHash>
      index;
};

struct ReferenceAnswerCache {
  using Value = std::shared_ptr<const CachedAnswer>;

  explicit ReferenceAnswerCache(size_t max) : max(max), seen(max) {}

  Value Lookup(const AnswerCache::Key& key, bool* admit) {
    *admit = false;
    auto it = map.find(key);
    if (it == map.end()) {
      ++stats.misses;
      bool again = seen.RecordMiss(
          dbms::QueryRequest{key.op, key.lo, key.hi, key.limit});
      if (!again) ++stats.declined;
      *admit = again;
      return nullptr;
    }
    ++stats.hits;
    lru.splice(lru.begin(), lru, it->second.second);
    return it->second.first;
  }

  void Insert(const AnswerCache::Key& key, Value value) {
    ++stats.insertions;
    auto it = map.find(key);
    if (it != map.end()) {
      it->second.first = std::move(value);
      lru.splice(lru.begin(), lru, it->second.second);
      return;
    }
    if (map.size() >= max) {
      map.erase(lru.back());
      lru.pop_back();
      ++stats.evictions;
    }
    lru.push_front(key);
    map[key] = {std::move(value), lru.begin()};
  }

  void InvalidateAll() {
    stats.invalidations += map.size();
    map.clear();
    lru.clear();
  }

  size_t max;
  std::list<AnswerCache::Key> lru;
  std::unordered_map<AnswerCache::Key,
                     std::pair<Value, std::list<AnswerCache::Key>::iterator>,
                     RequestHash>
      map;
  ReferenceSeen seen;
  AnswerCacheStats stats;
};

struct ReferenceMemo {
  struct Slot {
    std::shared_ptr<const CachedAnswer> served;
    ServedAnswerMemo::Verdict verdict;
    std::list<dbms::QueryRequest>::iterator lru_pos;
  };

  explicit ReferenceMemo(size_t max) : max(max), seen(max) {}

  static bool Same(const CachedAnswer& a, const CachedAnswer& b) {
    return &a == &b || (a.proof_msg == b.proof_msg &&
                        SameAnswerUpToEpoch(a.answer_msg, b.answer_msg));
  }

  bool Lookup(const dbms::QueryRequest& request,
              const std::shared_ptr<const CachedAnswer>& served,
              ServedAnswerMemo::Verdict* verdict, bool* admit) {
    auto it = map.find(request);
    if (it == map.end() || !Same(*it->second.served, *served)) {
      ++stats.misses;
      *admit = seen.RecordMiss(request);
      if (!*admit) ++stats.declined;
      return false;
    }
    ++stats.hits;
    it->second.served = served;
    lru.splice(lru.begin(), lru, it->second.lru_pos);
    *verdict = it->second.verdict;
    return true;
  }

  void Insert(const dbms::QueryRequest& request,
              std::shared_ptr<const CachedAnswer> served,
              ServedAnswerMemo::Verdict verdict, uint64_t published_epoch) {
    if (published_epoch < seen_epoch) {
      ++stats.declined;
      return;
    }
    ++stats.insertions;
    auto it = map.find(request);
    if (it != map.end()) {
      it->second.served = std::move(served);
      it->second.verdict = std::move(verdict);
      lru.splice(lru.begin(), lru, it->second.lru_pos);
      return;
    }
    lru.push_front(request);
    map.emplace(request,
                Slot{std::move(served), std::move(verdict), lru.begin()});
    while (map.size() > max) {
      map.erase(lru.back());
      lru.pop_back();
      ++stats.evictions;
    }
  }

  void DropAllIfEpochMoved(uint64_t published_epoch) {
    if (published_epoch <= seen_epoch) return;
    seen_epoch = published_epoch;
    stats.invalidations += map.size();
    map.clear();
    lru.clear();
  }

  size_t max;
  std::list<dbms::QueryRequest> lru;
  std::unordered_map<dbms::QueryRequest, Slot, RequestHash> map;
  ReferenceSeen seen;
  AnswerCacheStats stats;
  uint64_t seen_epoch = 0;
};

void ExpectSameStats(const AnswerCacheStats& got, const AnswerCacheStats& want,
                     size_t capacity, int step) {
  ASSERT_EQ(got.hits, want.hits) << "cap " << capacity << " step " << step;
  ASSERT_EQ(got.misses, want.misses) << "cap " << capacity << " step " << step;
  ASSERT_EQ(got.declined, want.declined)
      << "cap " << capacity << " step " << step;
  ASSERT_EQ(got.insertions, want.insertions)
      << "cap " << capacity << " step " << step;
  ASSERT_EQ(got.evictions, want.evictions)
      << "cap " << capacity << " step " << step;
  ASSERT_EQ(got.invalidations, want.invalidations)
      << "cap " << capacity << " step " << step;
}

// Twelve requests over three ranges: more than any capacity below, so
// every trace evicts.
dbms::QueryRequest TraceRequest(uint64_t i) {
  Key lo = Key(i % 3) * 100;
  switch (i / 3 % 4) {
    case 0:
      return dbms::QueryRequest::Scan(lo, lo + 50);
    case 1:
      return dbms::QueryRequest::Count(lo, lo + 50);
    case 2:
      return dbms::QueryRequest::TopK(lo, lo + 50, 3);
    default:
      return dbms::QueryRequest::TopK(lo, lo + 50, 5);
  }
}

constexpr int kTraceSteps = 3000;  // per capacity: 24K steps per cache

// Every trace must reach each counter, or a defect there could hide.
void ExpectEveryCounterMoved(const AnswerCacheStats& total) {
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.declined, 0u);
  EXPECT_GT(total.insertions, 0u);
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.invalidations, 0u);
}

TEST(VerifiedPathCacheTest, AnswerCacheTraceMatchesReferenceLru) {
  AnswerCacheStats total;
  for (size_t capacity = 1; capacity <= 8; ++capacity) {
    AnswerCache cache({capacity});
    ReferenceAnswerCache ref(capacity);
    Rng rng(1000 + capacity);
    for (int step = 0; step < kTraceSteps; ++step) {
      AnswerCache::Key key = AnswerCache::Key::For(
          TraceRequest(rng.NextBounded(12)), 1 + rng.NextBounded(2));
      uint64_t roll = rng.NextBounded(100);
      if (roll < 55) {
        bool admit = false;
        bool ref_admit = false;
        auto got = cache.Lookup(key, &admit);
        auto want = ref.Lookup(key, &ref_admit);
        ASSERT_EQ(got, want) << "cap " << capacity << " step " << step;
        ASSERT_EQ(admit, ref_admit) << "cap " << capacity << " step " << step;
      } else if (roll < 97) {
        auto value = std::make_shared<const CachedAnswer>(
            CachedAnswer{{uint8_t(step), uint8_t(step >> 8)}, {}});
        cache.Insert(key, value);
        ref.Insert(key, value);
      } else {
        cache.InvalidateAll();
        ref.InvalidateAll();
      }
      ASSERT_EQ(cache.size(), ref.map.size())
          << "cap " << capacity << " step " << step;
      ExpectSameStats(cache.stats(), ref.stats, capacity, step);
    }
    total += cache.stats();
  }
  ExpectEveryCounterMoved(total);
}

TEST(VerifiedPathCacheTest, ServedAnswerMemoTraceMatchesReferenceLru) {
  // Per request: two distinct buffers with equal bytes, one byte-equal up
  // to the answer's epoch stamp, and one that differs.
  constexpr size_t kEpochAt = 2;  // after the tag and operator bytes
  auto buffer = [](uint64_t request, uint8_t fill, uint8_t epoch) {
    std::vector<uint8_t> bytes(kEpochAt + 12, uint8_t(request));
    bytes[kEpochAt] = epoch;
    bytes.back() = fill;
    return std::make_shared<const CachedAnswer>(
        CachedAnswer{std::move(bytes), {}});
  };
  std::vector<std::vector<std::shared_ptr<const CachedAnswer>>> served(12);
  for (uint64_t r = 0; r < 12; ++r) {
    served[r] = {buffer(r, 1, 1), buffer(r, 1, 1), buffer(r, 1, 2),
                 buffer(r, 2, 1)};
  }
  AnswerCacheStats total;
  for (size_t capacity = 1; capacity <= 8; ++capacity) {
    ServedAnswerMemo memo({capacity});
    ReferenceMemo ref(capacity);
    Rng rng(2000 + capacity);
    uint64_t epoch = 1;
    for (int step = 0; step < kTraceSteps; ++step) {
      uint64_t r = rng.NextBounded(12);
      dbms::QueryRequest request = TraceRequest(r);
      const auto& buf = served[r][rng.NextBounded(4)];
      uint64_t roll = rng.NextBounded(100);
      if (roll < 55) {
        ServedAnswerMemo::Verdict got, want;
        bool admit = false;
        bool ref_admit = false;
        bool hit = memo.Lookup(request, buf, &got, &admit);
        ASSERT_EQ(hit, ref.Lookup(request, buf, &want, &ref_admit))
            << "cap " << capacity << " step " << step;
        ASSERT_EQ(admit, ref_admit) << "cap " << capacity << " step " << step;
        if (hit) {
          ASSERT_EQ(got.token_digest, want.token_digest)
              << "cap " << capacity << " step " << step;
        }
      } else if (roll < 95) {
        // Sometimes checked against an epoch a drop already expired.
        uint64_t checked = epoch - rng.NextBounded(2);
        crypto::Digest digest;
        digest.bytes[0] = uint8_t(step);
        digest.bytes[1] = uint8_t(step >> 8);
        memo.Insert(request, buf, {digest}, checked);
        ref.Insert(request, buf, {digest}, checked);
      } else {
        // Mostly a new epoch, sometimes one already seen.
        epoch += rng.NextBounded(3) == 0 ? 0 : 1;
        memo.DropAllIfEpochMoved(epoch);
        ref.DropAllIfEpochMoved(epoch);
      }
      ASSERT_EQ(memo.size(), ref.map.size())
          << "cap " << capacity << " step " << step;
      ExpectSameStats(memo.stats(), ref.stats, capacity, step);
    }
    total += memo.stats();
  }
  ExpectEveryCounterMoved(total);
}

TEST(VerifiedPathCacheTest, SeenRequestsTraceMatchesReferenceLru) {
  size_t remembered = 0;
  for (size_t capacity = 1; capacity <= 8; ++capacity) {
    SeenRequests seen(capacity);
    ReferenceSeen ref(capacity);
    Rng rng(3000 + capacity);
    for (int step = 0; step < kTraceSteps; ++step) {
      dbms::QueryRequest request = TraceRequest(rng.NextBounded(12));
      bool again = seen.RecordMiss(request);
      ASSERT_EQ(again, ref.RecordMiss(request))
          << "cap " << capacity << " step " << step;
      remembered += again;
    }
  }
  EXPECT_GT(remembered, 0u);
  EXPECT_LT(remembered, 8u * kTraceSteps);
}

}  // namespace
}  // namespace sae::core
