// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit + property tests for the B+-tree: ordered operations, duplicates,
// splits/merges with small fanouts, bulk load, and a randomized workload
// cross-checked against a std::multimap reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "btree/bplus_tree.h"
#include "storage/page_store.h"
#include "util/random.h"

namespace sae::btree {
namespace {

using storage::BufferPool;
using storage::InMemoryPageStore;

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&store_, 256) {}

  std::unique_ptr<BPlusTree> MakeTree(size_t max_leaf = 0,
                                      size_t max_internal = 0) {
    BPlusTreeOptions options;
    options.max_leaf_entries = max_leaf;
    options.max_internal_keys = max_internal;
    auto r = BPlusTree::Create(&pool_, options);
    EXPECT_TRUE(r.ok());
    return std::move(r).ValueOrDie();
  }

  InMemoryPageStore store_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTreeRangeIsEmpty) {
  auto tree = MakeTree();
  std::vector<BTreeEntry> out;
  ASSERT_TRUE(tree->RangeSearch(0, 1000, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  ASSERT_TRUE(tree->Validate().ok());
}

TEST_F(BTreeTest, InsertAndPointLookup) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(5, 500).ok());
  ASSERT_TRUE(tree->Insert(3, 300).ok());
  ASSERT_TRUE(tree->Insert(9, 900).ok());
  EXPECT_TRUE(tree->Contains(5, 500).value());
  EXPECT_TRUE(tree->Contains(3, 300).value());
  EXPECT_FALSE(tree->Contains(5, 501).value());
  EXPECT_FALSE(tree->Contains(4, 400).value());
  ASSERT_TRUE(tree->Validate().ok());
}

TEST_F(BTreeTest, DuplicateExactPairRejected) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(5, 500).ok());
  EXPECT_EQ(tree->Insert(5, 500).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(tree->Insert(5, 501).ok());  // same key, new rid is fine
}

TEST_F(BTreeTest, RangeSearchOrderedInclusive) {
  auto tree = MakeTree();
  for (uint32_t k : {50u, 10u, 30u, 20u, 40u}) {
    ASSERT_TRUE(tree->Insert(k, k * 10).ok());
  }
  std::vector<BTreeEntry> out;
  ASSERT_TRUE(tree->RangeSearch(20, 40, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, 20u);
  EXPECT_EQ(out[1].key, 30u);
  EXPECT_EQ(out[2].key, 40u);
}

TEST_F(BTreeTest, RangeRejectsInvertedBounds) {
  auto tree = MakeTree();
  std::vector<BTreeEntry> out;
  EXPECT_EQ(tree->RangeSearch(10, 5, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  auto tree = MakeTree(4, 4);
  for (uint32_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
    ASSERT_TRUE(tree->Validate().ok()) << "after insert " << k;
  }
  EXPECT_GT(tree->height(), 2u);
  EXPECT_EQ(tree->size(), 100u);
  std::vector<BTreeEntry> out;
  ASSERT_TRUE(tree->RangeSearch(0, 99, &out).ok());
  EXPECT_EQ(out.size(), 100u);
}

TEST_F(BTreeTest, ReverseAndRandomInsertOrders) {
  for (int order = 0; order < 2; ++order) {
    auto tree = MakeTree(4, 4);
    std::vector<uint32_t> keys(200);
    for (uint32_t i = 0; i < 200; ++i) keys[i] = i;
    if (order == 0) {
      std::reverse(keys.begin(), keys.end());
    } else {
      Rng rng(17);
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
      }
    }
    for (uint32_t k : keys) ASSERT_TRUE(tree->Insert(k, k).ok());
    ASSERT_TRUE(tree->Validate().ok());
    std::vector<BTreeEntry> out;
    ASSERT_TRUE(tree->RangeSearch(0, 1u << 30, &out).ok());
    ASSERT_EQ(out.size(), 200u);
    for (uint32_t i = 0; i < 200; ++i) EXPECT_EQ(out[i].key, i);
  }
}

TEST_F(BTreeTest, HeavyDuplicateKeysSpanLeaves) {
  auto tree = MakeTree(4, 4);
  // 50 postings under one key forces duplicates across many leaves.
  for (uint64_t rid = 0; rid < 50; ++rid) {
    ASSERT_TRUE(tree->Insert(7, rid).ok());
  }
  ASSERT_TRUE(tree->Insert(6, 1).ok());
  ASSERT_TRUE(tree->Insert(8, 1).ok());
  ASSERT_TRUE(tree->Validate().ok());

  std::vector<BTreeEntry> out;
  ASSERT_TRUE(tree->RangeSearch(7, 7, &out).ok());
  EXPECT_EQ(out.size(), 50u);
  for (uint64_t rid = 0; rid < 50; ++rid) {
    EXPECT_TRUE(tree->Contains(7, rid).value()) << rid;
  }
  // Delete each duplicate individually.
  for (uint64_t rid = 0; rid < 50; ++rid) {
    ASSERT_TRUE(tree->Delete(7, rid).ok()) << rid;
    ASSERT_TRUE(tree->Validate().ok());
  }
  out.clear();
  ASSERT_TRUE(tree->RangeSearch(7, 7, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(BTreeTest, DeleteMissingReportsNotFound) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(1, 1).ok());
  EXPECT_EQ(tree->Delete(2, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Delete(1, 99).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, DeleteShrinksHeightToLeaf) {
  auto tree = MakeTree(4, 4);
  for (uint32_t k = 0; k < 64; ++k) ASSERT_TRUE(tree->Insert(k, k).ok());
  EXPECT_GT(tree->height(), 1u);
  for (uint32_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(tree->Delete(k, k).ok()) << k;
    ASSERT_TRUE(tree->Validate().ok()) << "after delete " << k;
  }
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_EQ(tree->node_count(), 1u);
}

TEST_F(BTreeTest, BulkLoadMatchesIncremental) {
  std::vector<BTreeEntry> entries;
  for (uint32_t k = 0; k < 500; ++k) {
    entries.push_back(BTreeEntry{k * 2, k});
  }
  auto bulk = MakeTree(8, 8);
  ASSERT_TRUE(bulk->BulkLoad(entries).ok());
  ASSERT_TRUE(bulk->Validate().ok());
  EXPECT_EQ(bulk->size(), 500u);

  std::vector<BTreeEntry> out;
  ASSERT_TRUE(bulk->RangeSearch(0, 2000, &out).ok());
  ASSERT_EQ(out.size(), 500u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), entries.begin(),
                         [](const BTreeEntry& a, const BTreeEntry& b) {
                           return a.key == b.key && a.rid == b.rid;
                         }));
}

TEST_F(BTreeTest, BulkLoadRejectsUnsorted) {
  auto tree = MakeTree();
  std::vector<BTreeEntry> entries{{5, 1}, {3, 2}};
  EXPECT_EQ(tree->BulkLoad(entries).code(), StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, BulkLoadRejectsNonEmptyTree) {
  auto tree = MakeTree();
  ASSERT_TRUE(tree->Insert(1, 1).ok());
  std::vector<BTreeEntry> entries{{5, 1}};
  EXPECT_EQ(tree->BulkLoad(entries).code(), StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, BulkLoadedTreeSupportsUpdates) {
  std::vector<BTreeEntry> entries;
  for (uint32_t k = 0; k < 300; ++k) entries.push_back(BTreeEntry{k * 3, k});
  auto tree = MakeTree(8, 8);
  ASSERT_TRUE(tree->BulkLoad(entries).ok());
  for (uint32_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k * 3 + 1, 1000 + k).ok());
  }
  for (uint32_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Delete(k * 3, k).ok());
  }
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->size(), 300u);
}

TEST_F(BTreeTest, BulkLoadFollowsShape) {
  std::vector<BTreeEntry> entries;
  for (uint32_t k = 0; k < 400; ++k) entries.push_back(BTreeEntry{k, k});
  auto full = MakeTree(8, 8);
  ASSERT_TRUE(full->BulkLoad(entries).ok());
  // Five-entry leaves, eight leaves per parent, then a two-way root.
  TreeShape shape{std::vector<uint32_t>(80, 5), std::vector<uint32_t>(10, 8),
                  {5, 5}, {2}};
  auto slim = MakeTree(8, 8);
  ASSERT_TRUE(slim->BulkLoad(entries, {}, shape).ok());
  ASSERT_TRUE(full->Validate().ok());
  ASSERT_TRUE(slim->Validate().ok());
  EXPECT_GT(slim->node_count(), full->node_count());
  EXPECT_EQ(slim->height(), 4u);

  // Walk reads back the shape and the postings' order.
  TreeShape walked;
  std::vector<storage::Rid> rids;
  ASSERT_TRUE(slim->Walk(&walked, &rids).ok());
  EXPECT_EQ(walked, shape);
  ASSERT_EQ(rids.size(), 400u);
  for (uint32_t k = 0; k < 400; ++k) EXPECT_EQ(rids[k], k);
  ASSERT_TRUE(full->Walk(&walked, nullptr).ok());
  EXPECT_EQ(walked, full->PlanShape(400));
}

TEST_F(BTreeTest, BulkLoadRejectsShapesThatDoNotFit) {
  std::vector<BTreeEntry> entries;
  for (uint32_t k = 0; k < 20; ++k) entries.push_back(BTreeEntry{k, k});
  const TreeShape bad[] = {
      {},                  // no root
      {{10, 10}},          // two roots
      {{10, 9}, {2}},      // 19 entries, not 20
      {{12, 8}, {2}},      // a leaf over max_leaf_entries
      {{5, 5, 5, 5}, {4}, {1}},  // a one-child internal node
  };
  for (const TreeShape& shape : bad) {
    auto tree = MakeTree(8, 8);
    EXPECT_EQ(tree->BulkLoad(entries, {}, shape).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(BTreeTest, DefaultFanoutsMatchPageMath) {
  auto tree = MakeTree();
  // (4096 - 16) / 12 = 340 leaf entries; (4096 - 20) / 8 = 509 internal keys.
  EXPECT_EQ(tree->max_leaf_entries(), 340u);
  EXPECT_EQ(tree->max_internal_keys(), 509u);
}

// Property test: random interleaved inserts/deletes/range queries against a
// std::multimap model, with structural validation along the way.
class BTreeRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRandomizedTest, MatchesReferenceModel) {
  InMemoryPageStore store;
  BufferPool pool(&store, 512);
  BPlusTreeOptions options;
  options.max_leaf_entries = 6;
  options.max_internal_keys = 5;
  auto tree = BPlusTree::Create(&pool, options).ValueOrDie();

  Rng rng(GetParam());
  std::multimap<uint32_t, uint64_t> model;
  uint64_t next_rid = 1;

  for (int step = 0; step < 2500; ++step) {
    double dice = rng.NextDouble();
    if (model.empty() || dice < 0.55) {
      uint32_t key = uint32_t(rng.NextBounded(200));  // few keys -> many dups
      uint64_t rid = next_rid++;
      ASSERT_TRUE(tree->Insert(key, rid).ok());
      model.emplace(key, rid);
    } else if (dice < 0.85) {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(tree->Delete(it->first, it->second).ok());
      model.erase(it);
    } else {
      uint32_t lo = uint32_t(rng.NextBounded(200));
      uint32_t hi = lo + uint32_t(rng.NextBounded(40));
      std::vector<BTreeEntry> got;
      ASSERT_TRUE(tree->RangeSearch(lo, hi, &got).ok());
      std::multiset<std::pair<uint32_t, uint64_t>> expect, actual;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        expect.emplace(it->first, it->second);
      }
      for (const auto& e : got) actual.emplace(e.key, e.rid);
      ASSERT_EQ(actual, expect) << "range [" << lo << "," << hi << "]";
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(tree->Validate().ok()) << "step " << step;
      ASSERT_EQ(tree->size(), model.size());
    }
  }
  ASSERT_TRUE(tree->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomizedTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sae::btree
