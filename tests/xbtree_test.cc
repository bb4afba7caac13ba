// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit + property tests for the XB-Tree: GenerateVT against a brute-force
// XOR model, X-value maintenance across inserts/deletes (splits, borrows,
// merges, internal-key replacement), duplicate chains, and bulk load.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "storage/page_store.h"
#include "util/random.h"
#include "xbtree/xb_tree.h"

namespace sae::xbtree {
namespace {

using storage::BufferPool;
using storage::InMemoryPageStore;

crypto::Digest DigestFor(uint64_t id) {
  return crypto::ComputeDigest(&id, sizeof(id));
}

// Reference model: multimap key -> (id, digest).
class XbFixture : public ::testing::Test {
 protected:
  XbFixture() : pool_(&store_, 1024) {}

  void MakeTree(size_t max_entries = 4) {
    XbTreeOptions options;
    options.max_entries = max_entries;
    auto r = XbTree::Create(&pool_, options);
    ASSERT_TRUE(r.ok());
    tree_ = std::move(r).ValueOrDie();
  }

  void Insert(uint32_t key, uint64_t id) {
    ASSERT_TRUE(tree_->Insert(key, id, DigestFor(id)).ok());
    model_.emplace(key, id);
  }

  void Delete(uint32_t key, uint64_t id) {
    ASSERT_TRUE(tree_->Delete(key, id).ok());
    auto range = model_.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        model_.erase(it);
        break;
      }
    }
  }

  crypto::Digest BruteForceVt(uint32_t lo, uint32_t hi) const {
    crypto::Digest vt;
    for (auto it = model_.lower_bound(lo);
         it != model_.end() && it->first <= hi; ++it) {
      vt ^= DigestFor(it->second);
    }
    return vt;
  }

  void ExpectVtMatches(uint32_t lo, uint32_t hi) {
    auto vt = tree_->GenerateVT(lo, hi);
    ASSERT_TRUE(vt.ok());
    EXPECT_EQ(vt.value(), BruteForceVt(lo, hi))
        << "range [" << lo << ", " << hi << "]";
  }

  InMemoryPageStore store_;
  BufferPool pool_;
  std::unique_ptr<XbTree> tree_;
  std::multimap<uint32_t, uint64_t> model_;
};

TEST_F(XbFixture, EmptyTreeVtIsZero) {
  MakeTree();
  auto vt = tree_->GenerateVT(0, 100);
  ASSERT_TRUE(vt.ok());
  EXPECT_TRUE(vt.value().IsZero());
  EXPECT_TRUE(tree_->Validate().ok());
}

TEST_F(XbFixture, SingleTupleVt) {
  MakeTree();
  Insert(50, 1);
  ExpectVtMatches(0, 100);
  ExpectVtMatches(50, 50);
  ExpectVtMatches(0, 49);   // empty
  ExpectVtMatches(51, 99);  // empty
  ASSERT_TRUE(tree_->Validate().ok());
}

TEST_F(XbFixture, RejectsInvertedRange) {
  MakeTree();
  EXPECT_FALSE(tree_->GenerateVT(10, 5).ok());
}

TEST_F(XbFixture, PaperFigure3Example) {
  // Search keys {1,3,3,6,6,12,13,15,18,18,20,23,23,25} for tuples t1..t14,
  // query [5, 17] -> VT = t4 ^ t5 ^ t6 ^ t7 ^ t8 (paper §III).
  MakeTree(2);  // tiny fanout to force a multi-level tree
  const uint32_t keys[] = {1, 3, 3, 6, 6, 12, 13, 15, 18, 18, 20, 23, 23, 25};
  for (uint64_t i = 0; i < 14; ++i) Insert(keys[i], i + 1);
  ASSERT_TRUE(tree_->Validate().ok());

  crypto::Digest expect = DigestFor(4) ^ DigestFor(5) ^ DigestFor(6) ^
                          DigestFor(7) ^ DigestFor(8);
  auto vt = tree_->GenerateVT(5, 17);
  ASSERT_TRUE(vt.ok());
  EXPECT_EQ(vt.value(), expect);
  ExpectVtMatches(5, 17);
  // A few more ranges over the same dataset.
  ExpectVtMatches(0, 30);
  ExpectVtMatches(3, 3);
  ExpectVtMatches(18, 23);
  ExpectVtMatches(26, 100);
}

TEST_F(XbFixture, DuplicateChainsAcrossPages) {
  MakeTree(4);  // one tuple per duplicate chunk -> a 20-chunk chain
  for (uint64_t id = 1; id <= 20; ++id) Insert(7, id);
  EXPECT_EQ(tree_->distinct_keys(), 1u);
  EXPECT_EQ(tree_->size(), 20u);
  EXPECT_GE(tree_->dup_chunk_count(), 10u);
  ASSERT_TRUE(tree_->Validate().ok());
  ExpectVtMatches(7, 7);
  ExpectVtMatches(0, 100);
  ExpectVtMatches(8, 100);  // empty

  // Remove from the middle of the chain.
  for (uint64_t id : {5ull, 1ull, 20ull, 13ull}) {
    Delete(7, id);
    ASSERT_TRUE(tree_->Validate().ok());
    ExpectVtMatches(7, 7);
  }
}

TEST_F(XbFixture, DeleteMissingTupleReportsNotFound) {
  MakeTree();
  Insert(5, 1);
  EXPECT_EQ(tree_->Delete(5, 99).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->Delete(6, 1).code(), StatusCode::kNotFound);
}

TEST_F(XbFixture, InsertSplitsKeepXConsistent) {
  MakeTree(4);
  Rng rng(77);
  for (uint64_t id = 1; id <= 300; ++id) {
    Insert(uint32_t(rng.NextBounded(10000)), id);
    if (id % 25 == 0) {
      ASSERT_TRUE(tree_->Validate().ok()) << "after insert " << id;
    }
  }
  EXPECT_GT(tree_->height(), 2u);
  for (int i = 0; i < 50; ++i) {
    uint32_t lo = uint32_t(rng.NextBounded(10000));
    uint32_t hi = lo + uint32_t(rng.NextBounded(2000));
    ExpectVtMatches(lo, hi);
  }
}

TEST_F(XbFixture, DeleteRebalancesKeepXConsistent) {
  MakeTree(4);
  Rng rng(78);
  std::vector<std::pair<uint32_t, uint64_t>> tuples;
  for (uint64_t id = 1; id <= 300; ++id) {
    uint32_t key = uint32_t(rng.NextBounded(5000));
    Insert(key, id);
    tuples.emplace_back(key, id);
  }
  // Shuffle deletion order.
  for (size_t i = tuples.size(); i > 1; --i) {
    std::swap(tuples[i - 1], tuples[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i < tuples.size(); ++i) {
    Delete(tuples[i].first, tuples[i].second);
    if (i % 20 == 0) {
      ASSERT_TRUE(tree_->Validate().ok()) << "after delete " << i;
      uint32_t lo = uint32_t(rng.NextBounded(5000));
      ExpectVtMatches(lo, lo + 500);
    }
  }
  EXPECT_EQ(tree_->size(), 0u);
  EXPECT_EQ(tree_->height(), 1u);
  EXPECT_EQ(tree_->dup_chunk_count(), 0u);
}

TEST_F(XbFixture, InternalKeyDeletionPullsSuccessor) {
  MakeTree(2);  // tiny fanout: most keys live in internal nodes
  for (uint64_t id = 1; id <= 40; ++id) Insert(uint32_t(id * 10), id);
  ASSERT_TRUE(tree_->Validate().ok());
  ASSERT_GT(tree_->height(), 2u);
  // Delete keys in an order that hits internal entries.
  for (uint64_t id : {20ull, 10ull, 30ull, 25ull, 15ull, 35ull, 5ull}) {
    Delete(uint32_t(id * 10), id);
    ASSERT_TRUE(tree_->Validate().ok()) << "after deleting key " << id * 10;
    ExpectVtMatches(0, 1000);
    ExpectVtMatches(100, 300);
  }
}

TEST_F(XbFixture, BulkLoadMatchesModel) {
  MakeTree(4);
  Rng rng(79);
  std::vector<XbTuple> tuples;
  for (uint64_t id = 1; id <= 500; ++id) {
    uint32_t key = uint32_t(rng.NextBounded(800));  // dense -> duplicates
    tuples.push_back(XbTuple{key, id, DigestFor(id)});
    model_.emplace(key, id);
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const XbTuple& a, const XbTuple& b) { return a.key < b.key; });
  ASSERT_TRUE(tree_->BulkLoad(tuples).ok());
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->size(), 500u);

  for (int i = 0; i < 80; ++i) {
    uint32_t lo = uint32_t(rng.NextBounded(800));
    uint32_t hi = lo + uint32_t(rng.NextBounded(200));
    ExpectVtMatches(lo, hi);
  }
  ExpectVtMatches(0, 799);
}

TEST_F(XbFixture, BulkLoadedTreeSupportsUpdates) {
  MakeTree(4);
  std::vector<XbTuple> tuples;
  for (uint64_t id = 1; id <= 200; ++id) {
    tuples.push_back(XbTuple{uint32_t(id * 2), id, DigestFor(id)});
    model_.emplace(uint32_t(id * 2), id);
  }
  ASSERT_TRUE(tree_->BulkLoad(tuples).ok());
  for (uint64_t id = 201; id <= 260; ++id) Insert(uint32_t(id * 2 + 1), id);
  for (uint64_t id = 1; id <= 60; ++id) Delete(uint32_t(id * 2), id);
  ASSERT_TRUE(tree_->Validate().ok());
  Rng rng(80);
  for (int i = 0; i < 50; ++i) {
    uint32_t lo = uint32_t(rng.NextBounded(520));
    ExpectVtMatches(lo, lo + 60);
  }
}

TEST_F(XbFixture, BulkLoadRejectsUnsortedOrNonEmpty) {
  MakeTree();
  std::vector<XbTuple> unsorted{{5, 1, DigestFor(1)}, {3, 2, DigestFor(2)}};
  EXPECT_EQ(tree_->BulkLoad(unsorted).code(), StatusCode::kInvalidArgument);
  Insert(1, 1);
  std::vector<XbTuple> one{{5, 2, DigestFor(2)}};
  EXPECT_EQ(tree_->BulkLoad(one).code(), StatusCode::kInvalidArgument);
}

TEST_F(XbFixture, DefaultFanoutMatchesPageMath) {
  XbTreeOptions options;  // defaults
  auto tree = XbTree::Create(&pool_, options).ValueOrDie();
  // (4096 - 16 - 24) / 32 = 126 keyed entries per node.
  EXPECT_EQ(tree->max_entries(), 126u);
}

TEST_F(XbFixture, VtGenerationTouchesLogarithmicNodes) {
  MakeTree(8);
  for (uint64_t id = 1; id <= 4000; ++id) {
    ASSERT_TRUE(tree_->Insert(uint32_t(id), id, DigestFor(id)).ok());
  }
  pool_.ResetStats();
  auto vt = tree_->GenerateVT(1000, 3000);  // covers half the tree
  ASSERT_TRUE(vt.ok());
  // Two boundary paths + a handful of chain/child probes; far below the
  // 2000-tuple result size.
  EXPECT_LT(pool_.stats().accesses, 12 * tree_->height());
}

// Property test: random interleavings, VT equality on random ranges.
class XbRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XbRandomizedTest, VtAlwaysMatchesBruteForce) {
  InMemoryPageStore store;
  BufferPool pool(&store, 2048);
  XbTreeOptions options;
  options.max_entries = 5;
  auto tree = XbTree::Create(&pool, options).ValueOrDie();

  std::multimap<uint32_t, uint64_t> model;
  Rng rng(GetParam());
  uint64_t next_id = 1;

  for (int step = 0; step < 1500; ++step) {
    if (model.empty() || rng.NextBool(0.6)) {
      uint32_t key = uint32_t(rng.NextBounded(400));  // dense key space
      uint64_t id = next_id++;
      ASSERT_TRUE(tree->Insert(key, id, DigestFor(id)).ok());
      model.emplace(key, id);
    } else {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(tree->Delete(it->first, it->second).ok());
      model.erase(it);
    }

    if (step % 50 == 0) {
      uint32_t lo = uint32_t(rng.NextBounded(400));
      uint32_t hi = lo + uint32_t(rng.NextBounded(100));
      crypto::Digest expect;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect ^= DigestFor(it->second);
      }
      auto vt = tree->GenerateVT(lo, hi);
      ASSERT_TRUE(vt.ok());
      ASSERT_EQ(vt.value(), expect) << "step " << step;
    }
    if (step % 300 == 299) {
      ASSERT_TRUE(tree->Validate().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE(tree->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XbRandomizedTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace sae::xbtree
