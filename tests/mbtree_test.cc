// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit + property tests for the MB-tree and its VO machinery: digest
// maintenance across splits/merges, VO round trips, client verification of
// honest results, and detection of every tampering mode.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "crypto/rsa.h"
#include "mbtree/mb_tree.h"
#include "mbtree/vo.h"
#include "storage/page_store.h"
#include "util/random.h"

namespace sae::mbtree {
namespace {

using storage::BufferPool;
using storage::InMemoryPageStore;
using storage::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;

// Shared RSA key (512-bit, generated once — keygen is the slow part).
crypto::RsaPrivateKey* SharedKey() {
  static crypto::RsaPrivateKey* key = [] {
    Rng rng(0xFEED);
    return new crypto::RsaPrivateKey(crypto::RsaGenerateKey(&rng, 512));
  }();
  return key;
}

// A miniature TOM stack: records in a map, MB-tree over digests, a fetcher
// resolving rids to record bytes. Rids are record ids for simplicity.
class MbFixture : public ::testing::Test {
 protected:
  MbFixture() : pool_(&store_, 512), codec_(kRecSize) {}

  void MakeTree(size_t max_leaf = 5, size_t max_internal = 4) {
    MbTreeOptions options;
    options.max_leaf_entries = max_leaf;
    options.max_internal_keys = max_internal;
    auto r = MbTree::Create(&pool_, options);
    ASSERT_TRUE(r.ok());
    tree_ = std::move(r).ValueOrDie();
  }

  MbEntry EntryFor(const Record& record) {
    std::vector<uint8_t> bytes = codec_.Serialize(record);
    return MbEntry{record.key, storage::Rid(record.id),
                   crypto::ComputeDigest(bytes.data(), bytes.size())};
  }

  void InsertRecord(uint64_t id, uint32_t key) {
    Record r = codec_.MakeRecord(id, key);
    records_[id] = r;
    ASSERT_TRUE(tree_->Insert(EntryFor(r)).ok());
  }

  void DeleteRecord(uint64_t id) {
    auto it = records_.find(id);
    ASSERT_NE(it, records_.end());
    ASSERT_TRUE(tree_->Delete(it->second.key, storage::Rid(id)).ok());
    records_.erase(it);
  }

  MbTree::RecordFetcher Fetcher() {
    return [this](storage::Rid rid) -> Result<std::vector<uint8_t>> {
      auto it = records_.find(rid);
      if (it == records_.end()) return Status::NotFound("no such record");
      return codec_.Serialize(it->second);
    };
  }

  // Expected result records for [lo, hi], in key order.
  std::vector<Record> Expected(uint32_t lo, uint32_t hi) const {
    std::vector<Record> out;
    for (const auto& [id, r] : records_) {
      if (r.key >= lo && r.key <= hi) out.push_back(r);
    }
    std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
      return a.key != b.key ? a.key < b.key : a.id < b.id;
    });
    return out;
  }

  // Runs the full SP+client path for [lo, hi] and returns the client status.
  Status QueryAndVerify(uint32_t lo, uint32_t hi,
                        std::vector<Record>* results_out = nullptr) {
    std::vector<Record> results = Expected(lo, hi);
    auto vo = tree_->BuildVo(lo, hi, Fetcher());
    if (!vo.ok()) return vo.status();
    vo.value().signature =
        crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
    // Exercise the wire format every time.
    auto reparsed =
        VerificationObject::Deserialize(vo.value().Serialize());
    if (!reparsed.ok()) return reparsed.status();
    if (results_out) *results_out = results;
    return VerifyVO(reparsed.value(), lo, hi, results,
                    SharedKey()->PublicKey(), codec_);
  }

  InMemoryPageStore store_;
  BufferPool pool_;
  RecordCodec codec_;
  std::unique_ptr<MbTree> tree_;
  std::map<uint64_t, Record> records_;  // rid/id -> record
};

TEST_F(MbFixture, EmptyTreeValidates) {
  MakeTree();
  EXPECT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_F(MbFixture, InsertMaintainsDigests) {
  MakeTree();
  for (uint64_t i = 0; i < 100; ++i) {
    InsertRecord(i + 1, uint32_t((i * 37) % 1000));
    ASSERT_TRUE(tree_->Validate().ok()) << "after insert " << i;
  }
  EXPECT_GT(tree_->height(), 1u);
}

TEST_F(MbFixture, DeleteMaintainsDigests) {
  MakeTree();
  for (uint64_t i = 0; i < 80; ++i) InsertRecord(i + 1, uint32_t(i * 5));
  for (uint64_t i = 0; i < 80; ++i) {
    DeleteRecord(i + 1);
    ASSERT_TRUE(tree_->Validate().ok()) << "after delete " << i;
  }
  EXPECT_EQ(tree_->size(), 0u);
  EXPECT_EQ(tree_->height(), 1u);
}

TEST_F(MbFixture, RootDigestChangesOnUpdate) {
  MakeTree();
  InsertRecord(1, 10);
  crypto::Digest before = tree_->root_digest();
  InsertRecord(2, 20);
  EXPECT_NE(tree_->root_digest(), before);
  crypto::Digest with_two = tree_->root_digest();
  DeleteRecord(2);
  EXPECT_EQ(tree_->root_digest(), before);
  EXPECT_NE(tree_->root_digest(), with_two);
}

TEST_F(MbFixture, BulkLoadMatchesIncrementalDigest) {
  MakeTree(5, 4);
  for (uint64_t i = 0; i < 60; ++i) InsertRecord(i + 1, uint32_t(i * 3));
  crypto::Digest incremental = tree_->root_digest();

  // Fresh tree, same data, bulk loaded (full leaves change node grouping, so
  // only compare *after* rebuilding with the same structure is not possible;
  // instead verify bulk-load digests validate internally and queries verify).
  InMemoryPageStore store2;
  BufferPool pool2(&store2, 512);
  MbTreeOptions options;
  options.max_leaf_entries = 5;
  options.max_internal_keys = 4;
  auto bulk = MbTree::Create(&pool2, options).ValueOrDie();
  std::vector<MbEntry> entries;
  for (const auto& [id, r] : records_) entries.push_back(EntryFor(r));
  std::sort(entries.begin(), entries.end(),
            [](const MbEntry& a, const MbEntry& b) { return a.key < b.key; });
  ASSERT_TRUE(bulk->BulkLoad(entries).ok());
  ASSERT_TRUE(bulk->Validate().ok());
  EXPECT_EQ(bulk->size(), tree_->size());
  (void)incremental;
}

TEST_F(MbFixture, RangeSearchReturnsPostingsInOrder) {
  MakeTree();
  for (uint64_t i = 0; i < 50; ++i) InsertRecord(i + 1, uint32_t(i * 2));
  std::vector<MbEntry> out;
  ASSERT_TRUE(tree_->RangeSearch(10, 30, &out).ok());
  ASSERT_EQ(out.size(), 11u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, 10 + 2 * i);
  }
}

TEST_F(MbFixture, HonestQueryVerifies) {
  MakeTree();
  for (uint64_t i = 0; i < 200; ++i) InsertRecord(i + 1, uint32_t(i * 7));
  for (auto [lo, hi] : std::vector<std::pair<uint32_t, uint32_t>>{
           {100, 300}, {0, 50}, {1200, 1400}, {0, 2000}, {700, 700}}) {
    EXPECT_TRUE(QueryAndVerify(lo, hi).ok()) << lo << ".." << hi;
  }
}

TEST_F(MbFixture, EmptyResultVerifies) {
  MakeTree();
  for (uint64_t i = 0; i < 50; ++i) InsertRecord(i + 1, uint32_t(i * 100));
  // Gap between 100*i values.
  EXPECT_TRUE(QueryAndVerify(101, 199).ok());
}

TEST_F(MbFixture, RangeTouchingDomainEdgesVerifies) {
  MakeTree();
  for (uint64_t i = 0; i < 60; ++i) InsertRecord(i + 1, uint32_t(i * 9 + 5));
  // No left boundary exists for lo=0; no right boundary for a huge hi.
  EXPECT_TRUE(QueryAndVerify(0, 50).ok());
  EXPECT_TRUE(QueryAndVerify(400, 4000000).ok());
  EXPECT_TRUE(QueryAndVerify(0, 4000000).ok());
}

// A range below the smallest key has one (right) boundary and no results:
// the VO protects [start, boundary], and everything after it is digests.
TEST_F(MbFixture, EmptyResultBelowMinimumVerifies) {
  MakeTree();
  for (uint64_t i = 1; i <= 50; ++i) InsertRecord(i, uint32_t(i * 1000));
  EXPECT_TRUE(QueryAndVerify(5, 5).ok());
  EXPECT_TRUE(QueryAndVerify(0, 999).ok());
  EXPECT_TRUE(QueryAndVerify(1, 500).ok());
  // The mirror case, above the largest key, keeps verifying too.
  EXPECT_TRUE(QueryAndVerify(50001, 60000).ok());
}

TEST_F(MbFixture, EmptyResultBelowMinimumVerifiesAfterDeletingSmallest) {
  MakeTree();
  for (uint64_t i = 1; i <= 50; ++i) InsertRecord(i, uint32_t(i * 1000));
  DeleteRecord(1);  // key 1000; 2000 is the new minimum
  EXPECT_TRUE(QueryAndVerify(5, 5).ok());
  EXPECT_TRUE(QueryAndVerify(1000, 1000).ok());
  EXPECT_TRUE(QueryAndVerify(0, 1999).ok());
}

// Points the first result slot of `node` (depth first) at a sibling digest;
// false when the VO has no result slot.
bool HideFirstResult(VoNode* node, const crypto::Digest& digest) {
  for (VoItem& item : node->items) {
    if (item.type == VoItem::Type::kResultEntry) {
      item.type = VoItem::Type::kDigest;
      item.digest = digest;
      return true;
    }
    if (item.type == VoItem::Type::kChild &&
        HideFirstResult(item.child.get(), digest)) {
      return true;
    }
  }
  return false;
}

// Forgery: the SP hides the only result (key 1000) of [0, 1500] behind its
// genuine digest and claims an empty answer, leaving 2000 as a lone right
// boundary. The root digest and signature still match; the digest sitting
// before the right boundary must give the lie away.
TEST_F(MbFixture, DetectsDigestBeforeLoneRightBoundary) {
  MakeTree();
  for (uint64_t i = 1; i <= 50; ++i) InsertRecord(i, uint32_t(i * 1000));
  ASSERT_EQ(Expected(0, 1500).size(), 1u);
  auto vo = tree_->BuildVo(0, 1500, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
      *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
  ASSERT_TRUE(HideFirstResult(&vo.root, EntryFor(records_[1]).digest));
  Status st = VerifyVO(vo, 0, 1500, {}, SharedKey()->PublicKey(), codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure) << st.ToString();
}

TEST_F(MbFixture, DetectsDroppedRecord) {
  MakeTree();
  for (uint64_t i = 0; i < 100; ++i) InsertRecord(i + 1, uint32_t(i * 11));
  std::vector<Record> results = Expected(100, 500);
  ASSERT_GE(results.size(), 3u);
  auto vo = tree_->BuildVo(100, 500, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));

  std::vector<Record> tampered = results;
  tampered.erase(tampered.begin() + 1);
  Status st = VerifyVO(vo, 100, 500, tampered, SharedKey()->PublicKey(),
                       codec_);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailure);
}

TEST_F(MbFixture, DetectsInjectedRecord) {
  MakeTree();
  for (uint64_t i = 0; i < 100; ++i) InsertRecord(i + 1, uint32_t(i * 11));
  std::vector<Record> results = Expected(100, 500);
  auto vo = tree_->BuildVo(100, 500, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));

  std::vector<Record> tampered = results;
  tampered.insert(tampered.begin() + 1, codec_.MakeRecord(9999, 150));
  EXPECT_FALSE(
      VerifyVO(vo, 100, 500, tampered, SharedKey()->PublicKey(), codec_)
          .ok());
}

TEST_F(MbFixture, DetectsModifiedRecord) {
  MakeTree();
  for (uint64_t i = 0; i < 100; ++i) InsertRecord(i + 1, uint32_t(i * 11));
  std::vector<Record> results = Expected(100, 500);
  ASSERT_FALSE(results.empty());
  auto vo = tree_->BuildVo(100, 500, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));

  std::vector<Record> tampered = results;
  tampered[0].payload[0] ^= 0xFF;
  EXPECT_FALSE(
      VerifyVO(vo, 100, 500, tampered, SharedKey()->PublicKey(), codec_)
          .ok());
}

TEST_F(MbFixture, DetectsStaleSignature) {
  MakeTree();
  for (uint64_t i = 0; i < 50; ++i) InsertRecord(i + 1, uint32_t(i * 13));
  crypto::RsaSignature stale =
      crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
  InsertRecord(1000, 333);  // root digest moves on

  std::vector<Record> results = Expected(0, 10000);
  auto vo = tree_->BuildVo(0, 10000, Fetcher()).ValueOrDie();
  vo.signature = stale;
  EXPECT_FALSE(
      VerifyVO(vo, 0, 10000, results, SharedKey()->PublicKey(), codec_).ok());
}

TEST_F(MbFixture, DetectsWrongQueryRangeClaim) {
  MakeTree();
  for (uint64_t i = 0; i < 100; ++i) InsertRecord(i + 1, uint32_t(i * 11));
  // VO constructed for [100, 500] cannot verify for [100, 600].
  std::vector<Record> results = Expected(100, 500);
  auto vo = tree_->BuildVo(100, 500, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
  EXPECT_FALSE(
      VerifyVO(vo, 100, 600, results, SharedKey()->PublicKey(), codec_).ok());
}

TEST_F(MbFixture, VoSerializationRoundTrip) {
  MakeTree();
  for (uint64_t i = 0; i < 150; ++i) InsertRecord(i + 1, uint32_t(i * 4));
  auto vo = tree_->BuildVo(40, 360, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
  std::vector<uint8_t> bytes = vo.Serialize();
  auto back = VerificationObject::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST_F(MbFixture, VoDeserializeRejectsGarbage) {
  std::vector<uint8_t> junk{0x00, 0x01, 0x02};
  EXPECT_FALSE(VerificationObject::Deserialize(junk).ok());
  std::vector<uint8_t> empty;
  EXPECT_FALSE(VerificationObject::Deserialize(empty).ok());
}

TEST_F(MbFixture, VoDeserializeRejectsTruncation) {
  MakeTree();
  for (uint64_t i = 0; i < 60; ++i) InsertRecord(i + 1, uint32_t(i * 4));
  auto vo = tree_->BuildVo(40, 120, Fetcher()).ValueOrDie();
  vo.signature = crypto::RsaSignDigest(
        *SharedKey(), crypto::EpochStampedDigest(tree_->root_digest(), 0));
  std::vector<uint8_t> bytes = vo.Serialize();
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(VerificationObject::Deserialize(truncated).ok()) << cut;
  }
}

TEST_F(MbFixture, DefaultFanoutsMatchPageMath) {
  MbTreeOptions options;  // defaults
  auto tree = MbTree::Create(&pool_, options).ValueOrDie();
  // (4096-16)/32 = 127 leaf entries; (4096-40)/28 = 144 internal keys.
  EXPECT_EQ(tree->max_leaf_entries(), 127u);
  EXPECT_EQ(tree->max_internal_keys(), 144u);
}

// Property test: random updates with validation plus verified queries.
class MbRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbRandomizedTest, UpdatesAndQueriesStayVerifiable) {
  InMemoryPageStore store;
  BufferPool pool(&store, 1024);
  RecordCodec codec(kRecSize);
  MbTreeOptions options;
  options.max_leaf_entries = 6;
  options.max_internal_keys = 5;
  auto tree = MbTree::Create(&pool, options).ValueOrDie();

  std::map<uint64_t, Record> records;
  auto fetch = [&](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    auto it = records.find(rid);
    if (it == records.end()) return Status::NotFound("no record");
    return codec.Serialize(it->second);
  };

  Rng rng(GetParam());
  uint64_t next_id = 1;
  for (int step = 0; step < 800; ++step) {
    if (records.empty() || rng.NextBool(0.65)) {
      Record r =
          codec.MakeRecord(next_id++, uint32_t(rng.NextBounded(3000)));
      std::vector<uint8_t> bytes = codec.Serialize(r);
      ASSERT_TRUE(tree->Insert(MbEntry{r.key, storage::Rid(r.id),
                                       crypto::ComputeDigest(bytes.data(),
                                                             bytes.size())})
                      .ok());
      records[r.id] = r;
    } else {
      auto it = records.begin();
      std::advance(it, rng.NextBounded(records.size()));
      ASSERT_TRUE(tree->Delete(it->second.key, storage::Rid(it->first)).ok());
      records.erase(it);
    }

    if (step % 100 == 99) {
      ASSERT_TRUE(tree->Validate().ok()) << "step " << step;
      uint32_t lo = uint32_t(rng.NextBounded(3000));
      uint32_t hi = lo + uint32_t(rng.NextBounded(500));
      std::vector<Record> results;
      for (const auto& [id, r] : records) {
        if (r.key >= lo && r.key <= hi) results.push_back(r);
      }
      std::sort(results.begin(), results.end(),
                [](const Record& a, const Record& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
      auto vo = tree->BuildVo(lo, hi, fetch);
      ASSERT_TRUE(vo.ok());
      vo.value().signature =
          crypto::RsaSignDigest(
          *SharedKey(), crypto::EpochStampedDigest(tree->root_digest(), 0));
      ASSERT_TRUE(VerifyVO(vo.value(), lo, hi, results,
                           SharedKey()->PublicKey(), codec)
                      .ok())
          << "step " << step << " range [" << lo << "," << hi << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbRandomizedTest, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace sae::mbtree
