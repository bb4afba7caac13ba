// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for the Table facade: insert/delete, range execution, bulk load,
// separate index/heap access accounting, and the digest-mode index with
// its shape-preserving dump and reload.

#include <gtest/gtest.h>

#include <map>

#include "dbms/table.h"
#include "mbtree/mb_tree.h"
#include "storage/page_store.h"
#include "util/random.h"

namespace sae::dbms {
namespace {

using storage::InMemoryPageStore;

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : index_pool_(&index_store_, 256), heap_pool_(&heap_store_, 256) {
    table_ = Table::Create(btree::BPlusTree::Create(&index_pool_).ValueOrDie(),
                           &heap_pool_, 100);
  }

  Record Make(uint64_t id, uint32_t key) {
    return table_->codec().MakeRecord(id, key);
  }

  InMemoryPageStore index_store_;
  InMemoryPageStore heap_store_;
  BufferPool index_pool_;
  BufferPool heap_pool_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertGetRoundTrip) {
  Record r = Make(1, 100);
  ASSERT_TRUE(table_->Insert(r).ok());
  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(100, 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], r);
  EXPECT_EQ(table_->size(), 1u);
}

TEST_F(TableTest, DuplicateIdRejected) {
  ASSERT_TRUE(table_->Insert(Make(1, 100)).ok());
  EXPECT_EQ(table_->Insert(Make(1, 200)).code(), StatusCode::kAlreadyExists);
}

TEST_F(TableTest, DuplicateKeysAllowed) {
  ASSERT_TRUE(table_->Insert(Make(1, 100)).ok());
  ASSERT_TRUE(table_->Insert(Make(2, 100)).ok());
  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(100, 100, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(TableTest, DeleteRemovesFromIndexAndHeap) {
  ASSERT_TRUE(table_->Insert(Make(1, 100)).ok());
  ASSERT_TRUE(table_->Delete(1).ok());
  EXPECT_EQ(table_->size(), 0u);
  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(0, 1000, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(table_->Delete(1).code(), StatusCode::kNotFound);
}

// No party updates a record in place: a key change is a delete of the id
// followed by an insert under the new key.
TEST_F(TableTest, UpdateChangesKey) {
  ASSERT_TRUE(table_->Insert(Make(1, 100)).ok());
  Record moved = Make(1, 900);
  ASSERT_TRUE(table_->Delete(1).ok());
  ASSERT_TRUE(table_->Insert(moved).ok());
  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(100, 100, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(table_->RangeQuery(900, 900, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], moved);
}

TEST_F(TableTest, RangeQueryReturnsKeyOrder) {
  Rng rng(5);
  std::multimap<uint32_t, Record> model;
  for (uint64_t id = 1; id <= 400; ++id) {
    Record r = Make(id, uint32_t(rng.NextBounded(2000)));
    ASSERT_TRUE(table_->Insert(r).ok());
    model.emplace(r.key, r);
  }
  for (int q = 0; q < 25; ++q) {
    uint32_t lo = uint32_t(rng.NextBounded(2000));
    uint32_t hi = lo + uint32_t(rng.NextBounded(400));
    std::vector<Record> out;
    ASSERT_TRUE(table_->RangeQuery(lo, hi, &out).ok());
    size_t expect = 0;
    for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
         ++it) {
      ++expect;
    }
    ASSERT_EQ(out.size(), expect);
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1].key, out[i].key);
    }
  }
}

TEST_F(TableTest, BulkLoadThenQuery) {
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 1000; ++id) {
    records.push_back(Make(id, uint32_t(id * 3)));
  }
  ASSERT_TRUE(table_->BulkLoad(records).ok());
  EXPECT_EQ(table_->size(), 1000u);
  ASSERT_TRUE(table_->index().Validate().ok());

  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(300, 600, &out).ok());
  EXPECT_EQ(out.size(), 101u);  // keys 300, 303, ..., 600
}

TEST_F(TableTest, BulkLoadRejectsUnsortedAndDuplicates) {
  std::vector<Record> unsorted{Make(1, 10), Make(2, 5)};
  EXPECT_FALSE(table_->BulkLoad(unsorted).ok());

  auto t2 = Table::Create(btree::BPlusTree::Create(&index_pool_).ValueOrDie(),
                          &heap_pool_, 100);
  std::vector<Record> dup_id{Make(1, 5), Make(1, 10)};
  EXPECT_FALSE(t2->BulkLoad(dup_id).ok());
}

TEST_F(TableTest, BulkLoadRejectedForDuplicateIdLeavesTableEmpty) {
  // The duplicate comes last: every id is checked before the heap is
  // written, so nothing of the rejected load stays behind.
  std::vector<Record> dup_id{Make(1, 5), Make(2, 7), Make(1, 10)};
  Status st = table_->BulkLoad(dup_id);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table_->size(), 0u);
  EXPECT_EQ(table_->heap().PageCount(), 0u);
  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(0, 100, &out).ok());
  EXPECT_TRUE(out.empty());

  // The same table takes a valid load afterwards.
  std::vector<Record> records{Make(1, 5), Make(2, 7), Make(3, 10)};
  ASSERT_TRUE(table_->BulkLoad(records).ok());
  EXPECT_EQ(table_->size(), 3u);
  ASSERT_TRUE(table_->index().Validate().ok());
  ASSERT_TRUE(table_->RangeQuery(0, 100, &out).ok());
  EXPECT_EQ(out, records);
}

TEST_F(TableTest, IndexAndHeapAccessesAreSeparated) {
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 2000; ++id) {
    records.push_back(Make(id, uint32_t(id)));
  }
  ASSERT_TRUE(table_->BulkLoad(records).ok());
  index_pool_.ResetStats();
  heap_pool_.ResetStats();

  std::vector<Record> out;
  ASSERT_TRUE(table_->RangeQuery(500, 700, &out).ok());
  ASSERT_EQ(out.size(), 201u);
  EXPECT_GT(index_pool_.stats().accesses, 0u);
  EXPECT_GT(heap_pool_.stats().accesses, 0u);
}

TEST_F(TableTest, StorageAccountingGrowsWithData) {
  size_t heap0 = table_->HeapSizeBytes();
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 500; ++id) {
    records.push_back(Make(id, uint32_t(id)));
  }
  ASSERT_TRUE(table_->BulkLoad(records).ok());
  EXPECT_GT(table_->HeapSizeBytes(), heap0);
  EXPECT_GT(table_->IndexSizeBytes(), 0u);
}

// In digest mode (TOM's MB-tree) every posting carries H(record bytes), and
// Dump + the shaped BulkLoad rebuild a grown index node for node: the same
// shape, the same records in the same order, the same root digest.
TEST(DigestTableTest, DumpRebuildsTheSameIndex) {
  InMemoryPageStore stores[4];
  BufferPool pools[4] = {{&stores[0], 64}, {&stores[1], 64},
                         {&stores[2], 64}, {&stores[3], 64}};
  mbtree::MbTreeOptions fanouts;
  fanouts.max_leaf_entries = 4;
  fanouts.max_internal_keys = 3;
  auto make = [&](int i) {
    return Table::Create(mbtree::MbTree::Create(&pools[2 * i], fanouts,
                                                crypto::HashScheme::kSha1)
                             .ValueOrDie(),
                         &pools[2 * i + 1], 100);
  };
  std::unique_ptr<Table> live = make(0);
  std::vector<Record> seed;
  for (uint64_t id = 1; id <= 20; ++id) {
    seed.push_back(live->codec().MakeRecord(id, uint32_t(id * 10)));
  }
  ASSERT_TRUE(live->BulkLoad(seed).ok());
  // Splits, and a run of equal keys inserted in descending id order.
  for (uint64_t id = 60; id > 40; --id) {
    ASSERT_TRUE(live->Insert(live->codec().MakeRecord(id, 55)).ok());
  }
  ASSERT_TRUE(live->Delete(3).ok());

  std::vector<btree::DigestEntry> postings;
  const auto& index = static_cast<const mbtree::MbTree&>(live->index());
  ASSERT_TRUE(index.RangeSearch(0, 1000, &postings).ok());
  for (const btree::DigestEntry& posting : postings) {
    std::vector<uint8_t> bytes(100);
    ASSERT_TRUE(live->heap().Get(posting.rid, bytes.data()).ok());
    EXPECT_EQ(posting.digest, crypto::ComputeDigest(bytes.data(), bytes.size(),
                                                    crypto::HashScheme::kSha1));
  }

  std::vector<Record> records;
  btree::TreeShape shape;
  ASSERT_TRUE(live->Dump(&records, &shape).ok());
  EXPECT_GT(shape.size(), 2u);
  std::unique_ptr<Table> rebuilt = make(1);
  ASSERT_TRUE(rebuilt->BulkLoad(records, shape).ok());
  const auto& copy = static_cast<const mbtree::MbTree&>(rebuilt->index());
  EXPECT_EQ(copy.root_digest(), index.root_digest());
  ASSERT_TRUE(copy.Validate().ok());
  std::vector<Record> again;
  btree::TreeShape again_shape;
  ASSERT_TRUE(rebuilt->Dump(&again, &again_shape).ok());
  EXPECT_EQ(again, records);
  EXPECT_EQ(again_shape, shape);
}

}  // namespace
}  // namespace sae::dbms
