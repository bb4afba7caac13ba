// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Cross-cutting property suites: fanout sweeps for all three trees, a
// plain-versus-digest-mode shape check of the one B+-tree under churn,
// an exhaustive VT check over every (lo, hi) pair of a small domain,
// deserializer robustness under random byte corruption, and a buffer-pool
// stress test against a direct-store reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "btree/bplus_tree.h"
#include "core/messages.h"
#include "mbtree/mb_tree.h"
#include "mbtree/vo.h"
#include "storage/page_store.h"
#include "util/random.h"
#include "xbtree/xb_tree.h"

namespace sae {
namespace {

using storage::BufferPool;
using storage::InMemoryPageStore;

crypto::Digest DigestFor(uint64_t id) {
  return crypto::ComputeDigest(&id, sizeof(id));
}

// --- fanout sweeps ---------------------------------------------------------------
// Every structure must behave identically across fanout configurations;
// small fanouts force deep trees and frequent splits/merges.

using Fanout = std::tuple<size_t, size_t>;  // (leaf-ish, internal-ish)

class BTreeFanoutSweep : public ::testing::TestWithParam<Fanout> {};

TEST_P(BTreeFanoutSweep, InsertDeleteQueryBattery) {
  auto [max_leaf, max_internal] = GetParam();
  InMemoryPageStore store;
  BufferPool pool(&store, 512);
  btree::BPlusTreeOptions options;
  options.max_leaf_entries = max_leaf;
  options.max_internal_keys = max_internal;
  auto tree = btree::BPlusTree::Create(&pool, options).ValueOrDie();

  std::multimap<uint32_t, uint64_t> model;
  Rng rng(uint64_t(max_leaf * 131 + max_internal));
  for (uint64_t id = 1; id <= 400; ++id) {
    uint32_t key = uint32_t(rng.NextBounded(300));
    ASSERT_TRUE(tree->Insert(key, id).ok());
    model.emplace(key, id);
  }
  ASSERT_TRUE(tree->Validate().ok());

  // Delete half.
  size_t removed = 0;
  for (auto it = model.begin(); it != model.end() && removed < 200;) {
    ASSERT_TRUE(tree->Delete(it->first, it->second).ok());
    it = model.erase(it);
    ++removed;
    if (removed % 2 == 0 && it != model.end()) ++it;  // vary victims
  }
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->size(), model.size());

  for (int q = 0; q < 20; ++q) {
    uint32_t lo = uint32_t(rng.NextBounded(300));
    uint32_t hi = lo + uint32_t(rng.NextBounded(60));
    std::vector<btree::BTreeEntry> got;
    ASSERT_TRUE(tree->RangeSearch(lo, hi, &got).ok());
    size_t expect = 0;
    for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
         ++it) {
      ++expect;
    }
    ASSERT_EQ(got.size(), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutSweep,
                         ::testing::Values(Fanout{2, 2}, Fanout{3, 2},
                                           Fanout{2, 5}, Fanout{7, 3},
                                           Fanout{16, 16}, Fanout{64, 8}));

class MbFanoutSweep : public ::testing::TestWithParam<Fanout> {};

TEST_P(MbFanoutSweep, DigestsSurviveChurn) {
  auto [max_leaf, max_internal] = GetParam();
  InMemoryPageStore store;
  BufferPool pool(&store, 512);
  mbtree::MbTreeOptions options;
  options.max_leaf_entries = max_leaf;
  options.max_internal_keys = max_internal;
  auto tree = mbtree::MbTree::Create(&pool, options).ValueOrDie();

  Rng rng(uint64_t(max_leaf * 173 + max_internal));
  std::vector<std::pair<uint32_t, uint64_t>> live;
  for (uint64_t id = 1; id <= 250; ++id) {
    uint32_t key = uint32_t(rng.NextBounded(1000));
    ASSERT_TRUE(
        tree->Insert(mbtree::MbEntry{key, id, DigestFor(id)}).ok());
    live.emplace_back(key, id);
  }
  ASSERT_TRUE(tree->Validate().ok());
  crypto::Digest mid_digest = tree->root_digest();

  for (int i = 0; i < 100; ++i) {
    size_t victim = rng.NextBounded(live.size());
    ASSERT_TRUE(tree->Delete(live[victim].first, live[victim].second).ok());
    live.erase(live.begin() + victim);
  }
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_NE(tree->root_digest(), mid_digest);
  EXPECT_EQ(tree->size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Fanouts, MbFanoutSweep,
                         ::testing::Values(Fanout{2, 2}, Fanout{4, 3},
                                           Fanout{3, 6}, Fanout{12, 12},
                                           Fanout{40, 5}));

// The MB-tree is the B+-tree with a digest column: one seeded script of
// inserts, deletes and refused re-inserts over duplicate keys must leave a
// plain tree and an MB-tree with the same fanouts in the same shape after
// every step.
TEST(DigestColumnTest, PlainAndMbTreesShareOneStructure) {
  for (auto [max_leaf, max_internal] :
       {Fanout{2, 2}, Fanout{3, 2}, Fanout{5, 4}, Fanout{8, 4}}) {
    SCOPED_TRACE(testing::Message() << "fanout " << max_leaf << "/"
                                    << max_internal);
    InMemoryPageStore plain_store, mb_store;
    BufferPool plain_pool(&plain_store, 512), mb_pool(&mb_store, 512);
    btree::BPlusTreeOptions plain_options;
    plain_options.max_leaf_entries = max_leaf;
    plain_options.max_internal_keys = max_internal;
    mbtree::MbTreeOptions mb_options;
    mb_options.max_leaf_entries = max_leaf;
    mb_options.max_internal_keys = max_internal;
    auto plain = btree::BPlusTree::Create(&plain_pool, plain_options)
                     .ValueOrDie();
    auto mb = mbtree::MbTree::Create(&mb_pool, mb_options).ValueOrDie();

    Rng rng(uint64_t(max_leaf * 977 + max_internal));
    std::vector<std::pair<uint32_t, uint64_t>> live;
    uint64_t next_id = 1;
    size_t max_height = 0;
    for (int step = 0; step < 500; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      if (live.empty() || rng.NextDouble() < 0.6) {
        uint32_t key = uint32_t(rng.NextBounded(40));  // many duplicates
        uint64_t id = next_id++;
        ASSERT_TRUE(plain->Insert(key, id).ok());
        ASSERT_TRUE(mb->Insert(mbtree::MbEntry{key, id, DigestFor(id)}).ok());
        live.emplace_back(key, id);
      } else {
        size_t victim = rng.NextBounded(live.size());
        auto [key, id] = live[victim];
        ASSERT_TRUE(plain->Delete(key, id).ok());
        ASSERT_TRUE(mb->Delete(key, id).ok());
        live.erase(live.begin() + victim);
      }
      if (!live.empty() && step % 4 == 0) {  // re-inserting is refused
        auto [key, id] = live[rng.NextBounded(live.size())];
        ASSERT_EQ(plain->Insert(key, id).code(), StatusCode::kAlreadyExists);
        ASSERT_EQ(mb->Insert(mbtree::MbEntry{key, id, DigestFor(id)}).code(),
                  StatusCode::kAlreadyExists);
      }

      std::vector<btree::BTreeEntry> plain_leaves;
      std::vector<mbtree::MbEntry> mb_leaves;
      ASSERT_TRUE(plain->RangeSearch(0, UINT32_MAX, &plain_leaves).ok());
      ASSERT_TRUE(mb->RangeSearch(0, UINT32_MAX, &mb_leaves).ok());
      ASSERT_EQ(plain_leaves.size(), mb_leaves.size());
      for (size_t i = 0; i < plain_leaves.size(); ++i) {
        ASSERT_EQ(plain_leaves[i].key, mb_leaves[i].key) << "entry " << i;
        ASSERT_EQ(plain_leaves[i].rid, mb_leaves[i].rid) << "entry " << i;
      }
      ASSERT_EQ(plain_leaves.size(), live.size());
      ASSERT_EQ(plain->height(), mb->height());
      ASSERT_EQ(plain->node_count(), mb->node_count());
      ASSERT_TRUE(plain->Validate().ok());
      ASSERT_TRUE(mb->Validate().ok());
      max_height = std::max(max_height, plain->height());
    }
    EXPECT_GT(max_height, 2u);  // the script split internal nodes
  }
}

// (fanout, hot digest-cache levels): churn at every depth the hot-node
// cache reaches must leave no stale cached node behind.
class XbFanoutSweep : public ::testing::TestWithParam<Fanout> {};

TEST_P(XbFanoutSweep, VtMatchesModelUnderChurn) {
  auto [max_entries, hot_levels] = GetParam();
  InMemoryPageStore store;
  BufferPool pool(&store, 1024);
  xbtree::XbTreeOptions options;
  options.max_entries = max_entries;
  options.hot_cache_levels = hot_levels;
  auto tree = xbtree::XbTree::Create(&pool, options).ValueOrDie();

  std::multimap<uint32_t, uint64_t> model;
  Rng rng(uint64_t(max_entries * 271 + hot_levels));
  for (int step = 0; step < 600; ++step) {
    if (model.empty() || rng.NextBool(0.62)) {
      uint32_t key = uint32_t(rng.NextBounded(200));
      uint64_t id = uint64_t(step) + 1;
      ASSERT_TRUE(tree->Insert(key, id, DigestFor(id)).ok());
      model.emplace(key, id);
    } else {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(tree->Delete(it->first, it->second).ok());
      model.erase(it);
    }
    if (step % 60 == 59) {
      uint32_t lo = uint32_t(rng.NextBounded(200));
      uint32_t hi = lo + uint32_t(rng.NextBounded(80));
      crypto::Digest expect;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect ^= DigestFor(it->second);
      }
      ASSERT_EQ(tree->GenerateVT(lo, hi).ValueOrDie(), expect)
          << "step " << step;
    }
  }
  ASSERT_TRUE(tree->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Fanouts, XbFanoutSweep,
                         ::testing::Values(Fanout{2, 1}, Fanout{3, 1},
                                           Fanout{4, 2}, Fanout{9, 3},
                                           Fanout{30, 1}, Fanout{126, 4}));

// --- exhaustive VT ----------------------------------------------------------------
// Every (lo, hi) pair over a small key domain, compared against brute force.
// This nails the off-by-one surface of GenerateVT's boundary conditions.

TEST(XbExhaustiveTest, AllRangesOverSmallDomain) {
  InMemoryPageStore store;
  BufferPool pool(&store, 1024);
  xbtree::XbTreeOptions options;
  options.max_entries = 3;  // deep tree for 60 keys
  auto tree = xbtree::XbTree::Create(&pool, options).ValueOrDie();

  constexpr uint32_t kDomain = 30;
  std::multimap<uint32_t, uint64_t> model;
  Rng rng(99);
  for (uint64_t id = 1; id <= 60; ++id) {
    uint32_t key = uint32_t(rng.NextBounded(kDomain));
    ASSERT_TRUE(tree->Insert(key, id, DigestFor(id)).ok());
    model.emplace(key, id);
  }
  ASSERT_TRUE(tree->Validate().ok());

  for (uint32_t lo = 0; lo <= kDomain; ++lo) {
    for (uint32_t hi = lo; hi <= kDomain; ++hi) {
      crypto::Digest expect;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect ^= DigestFor(it->second);
      }
      ASSERT_EQ(tree->GenerateVT(lo, hi).ValueOrDie(), expect)
          << "[" << lo << ", " << hi << "]";
    }
  }
}

TEST(XbExhaustiveTest, DomainEdgeRanges) {
  InMemoryPageStore store;
  BufferPool pool(&store, 1024);
  auto tree = xbtree::XbTree::Create(&pool).ValueOrDie();
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  // Keys at the extreme ends of the 32-bit domain.
  ASSERT_TRUE(tree->Insert(0, 1, DigestFor(1)).ok());
  ASSERT_TRUE(tree->Insert(kMax, 2, DigestFor(2)).ok());
  ASSERT_TRUE(tree->Insert(kMax - 1, 3, DigestFor(3)).ok());

  EXPECT_EQ(tree->GenerateVT(0, 0).ValueOrDie(), DigestFor(1));
  EXPECT_EQ(tree->GenerateVT(kMax, kMax).ValueOrDie(), DigestFor(2));
  EXPECT_EQ(tree->GenerateVT(0, kMax).ValueOrDie(),
            DigestFor(1) ^ DigestFor(2) ^ DigestFor(3));
  EXPECT_EQ(tree->GenerateVT(1, kMax - 2).ValueOrDie(), crypto::Digest::Zero());
}

// Exhaustive VO verification: every (lo, hi) pair over a small domain must
// produce a VO that verifies against the honest result — the MB-tree twin
// of the XB-tree exhaustive sweep above, nailing boundary-path edge cases
// (range before all keys, after all keys, between duplicates, full table).
TEST(MbExhaustiveTest, AllRangesVerify) {
  InMemoryPageStore store;
  BufferPool pool(&store, 1024);
  storage::RecordCodec codec(40);
  mbtree::MbTreeOptions options;
  options.max_leaf_entries = 3;
  options.max_internal_keys = 3;
  auto tree = mbtree::MbTree::Create(&pool, options).ValueOrDie();

  constexpr uint32_t kDomain = 25;
  std::map<uint64_t, storage::Record> records;
  Rng rng(123);
  for (uint64_t id = 1; id <= 40; ++id) {
    storage::Record r =
        codec.MakeRecord(id, uint32_t(rng.NextBounded(kDomain)));
    records[id] = r;
    auto bytes = codec.Serialize(r);
    ASSERT_TRUE(tree->Insert(mbtree::MbEntry{
                        r.key, id,
                        crypto::ComputeDigest(bytes.data(), bytes.size())})
                    .ok());
  }
  auto fetch = [&](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    return codec.Serialize(records.at(rid));
  };
  Rng key_rng(7);
  crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&key_rng, 512);
  // Static set-up at epoch 0: sign the epoch-stamped root commitment.
  crypto::RsaSignature sig = crypto::RsaSignDigest(
      key, crypto::EpochStampedDigest(tree->root_digest(), 0));

  for (uint32_t lo = 0; lo <= kDomain; ++lo) {
    for (uint32_t hi = lo; hi <= kDomain; ++hi) {
      std::vector<storage::Record> results;
      for (auto& [id, r] : records) {
        if (r.key >= lo && r.key <= hi) results.push_back(r);
      }
      std::sort(results.begin(), results.end(),
                [](const storage::Record& a, const storage::Record& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
      auto vo = tree->BuildVo(lo, hi, fetch);
      ASSERT_TRUE(vo.ok()) << "[" << lo << ", " << hi << "]";
      vo.value().signature = sig;
      ASSERT_TRUE(mbtree::VerifyVO(vo.value(), lo, hi, results,
                                   key.PublicKey(), codec)
                      .ok())
          << "[" << lo << ", " << hi << "]";
    }
  }
}

// --- deserializer robustness --------------------------------------------------------
// Randomly corrupted wire bytes must never crash a parser; they must either
// fail cleanly or (for VOs) fail verification.

TEST(FuzzTest, CorruptedVoNeverCrashes) {
  InMemoryPageStore store;
  BufferPool pool(&store, 512);
  storage::RecordCodec codec(64);
  mbtree::MbTreeOptions options;
  options.max_leaf_entries = 5;
  options.max_internal_keys = 4;
  auto tree = mbtree::MbTree::Create(&pool, options).ValueOrDie();
  std::map<uint64_t, storage::Record> records;
  for (uint64_t id = 1; id <= 80; ++id) {
    storage::Record r = codec.MakeRecord(id, uint32_t(id * 5));
    records[id] = r;
    auto bytes = codec.Serialize(r);
    ASSERT_TRUE(tree->Insert(mbtree::MbEntry{
                        r.key, id,
                        crypto::ComputeDigest(bytes.data(), bytes.size())})
                    .ok());
  }
  auto fetch = [&](storage::Rid rid) -> Result<std::vector<uint8_t>> {
    return codec.Serialize(records.at(rid));
  };
  auto vo = tree->BuildVo(100, 300, fetch).ValueOrDie();
  vo.signature.assign(64, 0xAB);  // placeholder; signature checked last
  std::vector<uint8_t> honest = vo.Serialize();

  Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = honest;
    int flips = 1 + int(rng.NextBounded(5));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] ^= uint8_t(1 + rng.NextBounded(255));
    }
    auto parsed = mbtree::VerificationObject::Deserialize(bytes);
    if (!parsed.ok()) continue;  // clean parse failure
    // If it parses, verification must not crash (and almost surely fails).
    std::vector<storage::Record> results;
    for (auto& [id, r] : records) {
      if (r.key >= 100 && r.key <= 300) results.push_back(r);
    }
    Rng key_rng(1);
    crypto::RsaPrivateKey key = crypto::RsaGenerateKey(&key_rng, 512);
    (void)mbtree::VerifyVO(parsed.value(), 100, 300, results,
                           key.PublicKey(), codec);
  }
}

TEST(FuzzTest, CorruptedMessagesNeverCrash) {
  storage::RecordCodec codec(64);
  std::vector<storage::Record> records;
  for (uint64_t id = 1; id <= 10; ++id) {
    records.push_back(codec.MakeRecord(id, uint32_t(id)));
  }
  core::VerificationToken vt;
  vt.epoch = 3;
  vt.digest = crypto::ComputeDigest("x", 1);
  dbms::QueryRequest topk = dbms::QueryRequest::TopK(5, 500, 3);
  std::vector<std::vector<uint8_t>> messages = {
      core::SerializeRecords(records, codec),
      core::SerializeResults(records, 5, codec),
      core::SerializeQuery(5, 10),
      core::SerializeVt(vt),
      core::SerializeDelete(42, 7),
      core::SerializeSignature(crypto::RsaSignature(64, 0x5A), 9),
      core::SerializeEpochNotice(11),
      core::SerializeShardEpochs({1, 2, 3}),
      core::SerializeQueryRequest(topk),
      core::SerializeQueryAnswer(dbms::EvaluateAnswer(topk, records),
                                 records, 5, codec),
      core::SerializeQueryAnswer(
          dbms::EvaluateAnswer(dbms::QueryRequest::Sum(0, 50), records),
          records, 5, codec),
  };

  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = messages[rng.NextBounded(messages.size())];
    // Corrupt and/or truncate.
    if (rng.NextBool(0.5) && !bytes.empty()) {
      bytes.resize(rng.NextBounded(bytes.size()));
    }
    for (int f = 0; f < 3; ++f) {
      if (bytes.empty()) break;
      bytes[rng.NextBounded(bytes.size())] ^= uint8_t(rng.Next());
    }
    (void)core::DeserializeRecords(bytes, codec);
    (void)core::DeserializeResults(bytes, codec);
    (void)core::DeserializeQuery(bytes);
    (void)core::DeserializeVt(bytes);
    (void)core::DeserializeDelete(bytes);
    (void)core::DeserializeSignature(bytes);
    (void)core::DeserializeEpochNotice(bytes);
    (void)core::DeserializeShardEpochs(bytes);
    (void)core::DeserializeQueryRequest(bytes);
    (void)core::DeserializeQueryAnswer(bytes, codec);
  }
}

// --- buffer pool stress ---------------------------------------------------------------

TEST(BufferPoolStressTest, RandomWorkloadMatchesDirectStore) {
  InMemoryPageStore pooled_store;
  InMemoryPageStore direct_store;
  BufferPool pool(&pooled_store, 8);  // tiny pool: constant eviction
  Rng rng(2024);

  std::vector<storage::PageId> pooled_ids, direct_ids;
  for (int step = 0; step < 2000; ++step) {
    double dice = rng.NextDouble();
    if (pooled_ids.empty() || dice < 0.3) {
      auto ref = pool.New().ValueOrDie();
      pooled_ids.push_back(ref.id());
      direct_ids.push_back(direct_store.Allocate().ValueOrDie());
    } else if (dice < 0.8) {
      size_t i = rng.NextBounded(pooled_ids.size());
      uint8_t value = uint8_t(rng.Next());
      size_t offset = rng.NextBounded(storage::kPageSize);
      {
        auto ref = pool.Fetch(pooled_ids[i]).ValueOrDie();
        ref.Mutable().bytes()[offset] = value;
      }
      direct_store.PageAt(direct_ids[i])->bytes()[offset] = value;
    } else {
      size_t i = rng.NextBounded(pooled_ids.size());
      auto ref = pool.Fetch(pooled_ids[i]).ValueOrDie();
      const storage::Page* expect = direct_store.PageAt(direct_ids[i]);
      ASSERT_EQ(std::memcmp(ref.Get().bytes(), expect->bytes(),
                            storage::kPageSize),
                0)
          << "step " << step;
    }
  }
  // The pool writes its store's pages in place: nothing is left to flush.
  for (size_t i = 0; i < pooled_ids.size(); ++i) {
    const storage::Page* a = pooled_store.PageAt(pooled_ids[i]);
    const storage::Page* b = direct_store.PageAt(direct_ids[i]);
    ASSERT_EQ(std::memcmp(a->bytes(), b->bytes(), storage::kPageSize), 0);
  }
}

}  // namespace
}  // namespace sae
