// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for src/storage: page stores (memory + file), buffer pool
// pin/evict/flush semantics and access accounting, record codec, heap file.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "util/random.h"

namespace sae::storage {
namespace {

// --- page stores (parameterized over both implementations) --------------------

enum class StoreKind { kMemory, kFile };

class PageStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kMemory) {
      store_ = std::make_unique<InMemoryPageStore>();
    } else {
      path_ = ::testing::TempDir() + "/saedb_pagestore_test.bin";
      auto r = FilePageStore::Create(path_);
      ASSERT_TRUE(r.ok());
      store_ = std::move(r).ValueOrDie();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::unique_ptr<PageStore> store_;
  std::string path_;
};

TEST_P(PageStoreTest, AllocateReadWrite) {
  auto id = store_->Allocate();
  ASSERT_TRUE(id.ok());
  Page page;
  page.bytes()[0] = 0xAB;
  page.bytes()[kPageSize - 1] = 0xCD;
  ASSERT_TRUE(store_->Write(id.value(), page).ok());
  Page read;
  ASSERT_TRUE(store_->Read(id.value(), &read).ok());
  EXPECT_EQ(read.bytes()[0], 0xAB);
  EXPECT_EQ(read.bytes()[kPageSize - 1], 0xCD);
}

TEST_P(PageStoreTest, FreshPagesAreZeroed) {
  auto id = store_->Allocate();
  ASSERT_TRUE(id.ok());
  Page read;
  ASSERT_TRUE(store_->Read(id.value(), &read).ok());
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(read.bytes()[i], 0);
}

TEST_P(PageStoreTest, FreeAndReuse) {
  auto a = store_->Allocate();
  auto b = store_->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(store_->LivePageCount(), 2u);
  ASSERT_TRUE(store_->Free(a.value()).ok());
  EXPECT_EQ(store_->LivePageCount(), 1u);
  auto c = store_->Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());  // freed id is recycled
  EXPECT_EQ(store_->LivePageCount(), 2u);
}

TEST_P(PageStoreTest, AccessAfterFreeFails) {
  auto id = store_->Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->Free(id.value()).ok());
  Page page;
  EXPECT_FALSE(store_->Read(id.value(), &page).ok());
  EXPECT_FALSE(store_->Write(id.value(), page).ok());
  EXPECT_FALSE(store_->Free(id.value()).ok());
}

TEST_P(PageStoreTest, ReadUnallocatedFails) {
  Page page;
  EXPECT_FALSE(store_->Read(1234, &page).ok());
}

TEST_P(PageStoreTest, ManyPagesKeepDistinctContent) {
  constexpr int kPages = 64;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto id = store_->Allocate();
    ASSERT_TRUE(id.ok());
    Page page;
    page.bytes()[7] = uint8_t(i);
    ASSERT_TRUE(store_->Write(id.value(), page).ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < kPages; ++i) {
    Page page;
    ASSERT_TRUE(store_->Read(ids[i], &page).ok());
    EXPECT_EQ(page.bytes()[7], uint8_t(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, PageStoreTest,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kFile),
                         [](const auto& info) {
                           return info.param == StoreKind::kMemory ? "Memory"
                                                                   : "File";
                         });

// --- buffer pool ---------------------------------------------------------------

TEST(BufferPoolTest, FetchCountsAccessesAndMisses) {
  InMemoryPageStore store;
  BufferPool pool(&store, 8);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  PageId id = page.value().id();
  page.value().Release();

  pool.ResetStats();
  for (int i = 0; i < 5; ++i) {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool.stats().accesses, 5u);
  EXPECT_EQ(pool.stats().misses, 0u);  // stayed cached
}

TEST(BufferPoolTest, WritesSurviveEviction) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ref.value().Mutable().bytes()[3] = uint8_t(i);
    ids.push_back(ref.value().id());
  }
  // Only 4 frames: most pages were evicted (written back).
  EXPECT_GT(pool.stats().evictions, 0u);
  for (int i = 0; i < 16; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().Get().bytes()[3], uint8_t(i));
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  auto pinned = pool.New();
  ASSERT_TRUE(pinned.ok());
  pinned.value().Mutable().bytes()[0] = 0x77;

  // Exhaust remaining frames repeatedly; the pinned frame must survive.
  for (int i = 0; i < 12; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pinned.value().Get().bytes()[0], 0x77);
}

TEST(BufferPoolTest, AllPinnedReportsError) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    refs.push_back(std::move(ref).ValueOrDie());
  }
  auto overflow = pool.New();
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  InMemoryPageStore store;
  PageId id;
  {
    BufferPool pool(&store, 4);
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref.value().id();
    ref.value().Mutable().bytes()[9] = 0x42;
    ref.value().Release();
    ASSERT_TRUE(pool.FlushAll().ok());
    Page direct;
    ASSERT_TRUE(store.Read(id, &direct).ok());
    EXPECT_EQ(direct.bytes()[9], 0x42);
  }
  // Destructor also flushes.
  Page direct;
  ASSERT_TRUE(store.Read(id, &direct).ok());
  EXPECT_EQ(direct.bytes()[9], 0x42);
}

TEST(BufferPoolTest, FreeDropsCachedFrame) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref.value().id();
  ref.value().Release();
  ASSERT_TRUE(pool.Free(id).ok());
  EXPECT_FALSE(pool.Fetch(id).ok());
  EXPECT_EQ(store.LivePageCount(), 0u);
}

TEST(BufferPoolTest, FreePinnedPageFails) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pool.Free(ref.value().id()).ok());
}

// --- record codec -----------------------------------------------------------------

TEST(RecordCodecTest, RoundTrip) {
  RecordCodec codec(500);
  Record r = codec.MakeRecord(123, 456);
  std::vector<uint8_t> bytes = codec.Serialize(r);
  EXPECT_EQ(bytes.size(), 500u);
  Record back = codec.Deserialize(bytes.data());
  EXPECT_EQ(back, r);
}

TEST(RecordCodecTest, MakeRecordIsDeterministic) {
  RecordCodec codec(500);
  EXPECT_EQ(codec.MakeRecord(9, 1), codec.MakeRecord(9, 1));
  EXPECT_NE(codec.MakeRecord(9, 1).payload, codec.MakeRecord(10, 1).payload);
}

TEST(RecordCodecTest, ShortPayloadIsZeroPadded) {
  RecordCodec codec(64);
  Record r{1, 2, {0xAA, 0xBB}};
  std::vector<uint8_t> bytes = codec.Serialize(r);
  EXPECT_EQ(bytes[12], 0xAA);
  EXPECT_EQ(bytes[13], 0xBB);
  for (size_t i = 14; i < 64; ++i) EXPECT_EQ(bytes[i], 0);
}

TEST(RecordCodecTest, MinimalRecordSize) {
  RecordCodec codec(kRecordHeaderSize);
  Record r{42, 7, {}};
  std::vector<uint8_t> bytes = codec.Serialize(r);
  Record back = codec.Deserialize(bytes.data());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.key, 7u);
  EXPECT_TRUE(back.payload.empty());
}

// --- shared payloads ---------------------------------------------------------------

TEST(PayloadTest, CopiesShareBytes) {
  RecordCodec codec(500);
  Record a = codec.MakeRecord(5, 6);
  Record b = a;
  Payload c;
  c = b.payload;
  EXPECT_EQ(b.payload.data(), a.payload.data());
  EXPECT_EQ(c.data(), a.payload.data());
  EXPECT_EQ(b, a);
}

TEST(PayloadTest, MutableDataDetachesASharedPayload) {
  RecordCodec codec(64);
  Record original = codec.MakeRecord(7, 8);
  Record copy = original;
  const Payload before = original.payload;
  uint8_t* bytes = copy.payload.MutableData();
  ASSERT_NE(bytes, nullptr);
  EXPECT_NE(copy.payload.data(), original.payload.data());
  bytes[0] ^= 0xFF;
  EXPECT_EQ(original.payload, before);
  EXPECT_EQ(original, codec.MakeRecord(7, 8));
  EXPECT_NE(copy.payload, original.payload);
  EXPECT_EQ(copy.payload[0], uint8_t(original.payload[0] ^ 0xFF));
  // The detached copy is private now: a second write stays in place.
  EXPECT_EQ(copy.payload.MutableData(), bytes);
}

TEST(PayloadTest, MutableDataOnASliceDetachesOnlyThatSlice) {
  RecordCodec codec(20);
  std::vector<uint8_t> images;
  for (RecordId id = 1; id <= 3; ++id) {
    std::vector<uint8_t> image = codec.Serialize(codec.MakeRecord(id, 1));
    images.insert(images.end(), image.begin(), image.end());
  }
  std::vector<Record> decoded;
  codec.DeserializeMany(images.data(), 3, &decoded);
  const Record copy = decoded[1];
  decoded[1].payload.MutableData()[0] ^= 0x01;
  EXPECT_EQ(copy, codec.MakeRecord(2, 1));
  EXPECT_EQ(decoded[0], codec.MakeRecord(1, 1));
  EXPECT_EQ(decoded[2], codec.MakeRecord(3, 1));
  EXPECT_FALSE(decoded[1] == copy);
}

// Copies handed between threads share one reference count; a writer that
// detaches leaves every other copy reading the original bytes.
TEST(PayloadTest, CopiesAcrossThreads) {
  RecordCodec codec(500);
  std::vector<Record> shared;
  std::vector<uint8_t> images;
  for (RecordId id = 1; id <= 8; ++id) {
    std::vector<uint8_t> image = codec.Serialize(codec.MakeRecord(id, 1));
    images.insert(images.end(), image.begin(), image.end());
  }
  codec.DeserializeMany(images.data(), 8, &shared);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        std::vector<Record> mine = shared;
        if (t == 0) mine[round % 8].payload.MutableData()[0] ^= 0xFF;
        for (size_t i = 0; i < mine.size(); ++i) {
          bool expect_same = !(t == 0 && i == size_t(round % 8));
          if ((mine[i] == shared[i]) != expect_same) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (RecordId id = 1; id <= 8; ++id) {
    EXPECT_EQ(shared[id - 1], codec.MakeRecord(id, 1));
  }
}

TEST(PayloadTest, EmptyPayloadHasNoBytes) {
  Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.MutableData(), nullptr);
  EXPECT_EQ(empty, Payload(std::vector<uint8_t>{}));
  EXPECT_EQ(empty.begin(), empty.end());
}

TEST(PayloadTest, DeserializeManyMatchesPerRecordDeserialize) {
  for (size_t record_size : {size_t(12), size_t(20), size_t(500)}) {
    RecordCodec codec(record_size);
    for (size_t n : {size_t(0), size_t(1), size_t(37)}) {
      std::vector<uint8_t> images(n * record_size);
      for (size_t i = 0; i < n; ++i) {
        codec.Serialize(codec.MakeRecord(100 + i, Key(3 * i)),
                        images.data() + i * record_size);
      }
      std::vector<Record> expected;
      for (size_t i = 0; i < n; ++i) {
        expected.push_back(codec.Deserialize(images.data() + i * record_size));
      }
      std::vector<Record> many;
      codec.DeserializeMany(images.data(), n, &many);
      EXPECT_EQ(many, expected) << "record_size " << record_size << " n " << n;
      // Appends after what the vector already holds.
      codec.DeserializeMany(images.data(), n, &many);
      EXPECT_EQ(many.size(), 2 * n);
      if (n > 1 && record_size > kRecordHeaderSize) {
        // One block: consecutive payloads sit one record apart.
        EXPECT_EQ(many[1].payload.data(),
                  many[0].payload.data() + record_size);
      }
    }
  }
}

TEST(PayloadTest, ShortPayloadKeepsItsZeroPaddedImage) {
  RecordCodec codec(20);
  Record r{0x0102030405060708ull, 0x0A0B0C0Du, {0xAA, 0xBB}};
  std::vector<uint8_t> image = codec.Serialize(r);
  const std::vector<uint8_t> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x0d, 0x0c,
      0x0b, 0x0a, 0xaa, 0xbb, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(image, golden);
  std::vector<Record> decoded;
  codec.DeserializeMany(image.data(), 1, &decoded);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].payload.size(), codec.payload_size());
  EXPECT_EQ(codec.Serialize(decoded[0]), golden);
}

// --- heap file ---------------------------------------------------------------------

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&store_, 64), heap_(&pool_, 500) {}

  InMemoryPageStore store_;
  BufferPool pool_;
  HeapFile heap_;
  RecordCodec codec_{500};
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  Record r = codec_.MakeRecord(1, 100);
  std::vector<uint8_t> bytes = codec_.Serialize(r);
  auto rid = heap_.Insert(bytes.data());
  ASSERT_TRUE(rid.ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(heap_.Get(rid.value(), out.data()).ok());
  EXPECT_EQ(codec_.Deserialize(out.data()), r);
}

TEST_F(HeapFileTest, SlotsPerPageMatchesRecordSize) {
  // (4096 - 32) / 500 = 8 records per page, the paper's configuration.
  EXPECT_EQ(heap_.slots_per_page(), 8u);
}

TEST_F(HeapFileTest, FillsPagesBeforeAllocating) {
  std::vector<uint8_t> bytes(500);
  for (int i = 0; i < 8; ++i) {
    codec_.Serialize(codec_.MakeRecord(i + 1, i), bytes.data());
    ASSERT_TRUE(heap_.Insert(bytes.data()).ok());
  }
  EXPECT_EQ(heap_.PageCount(), 1u);
  codec_.Serialize(codec_.MakeRecord(9, 9), bytes.data());
  ASSERT_TRUE(heap_.Insert(bytes.data()).ok());
  EXPECT_EQ(heap_.PageCount(), 2u);
}

TEST_F(HeapFileTest, DeleteMakesSlotReusable) {
  std::vector<uint8_t> bytes(500);
  std::vector<Rid> rids;
  for (int i = 0; i < 8; ++i) {
    codec_.Serialize(codec_.MakeRecord(i + 1, i), bytes.data());
    rids.push_back(heap_.Insert(bytes.data()).value());
  }
  ASSERT_TRUE(heap_.Delete(rids[3]).ok());
  EXPECT_EQ(heap_.size(), 7u);
  codec_.Serialize(codec_.MakeRecord(100, 100), bytes.data());
  auto rid = heap_.Insert(bytes.data());
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid.value(), rids[3]);  // hole is refilled
  EXPECT_EQ(heap_.PageCount(), 1u);
}

TEST_F(HeapFileTest, GetDeletedFails) {
  std::vector<uint8_t> bytes(500);
  codec_.Serialize(codec_.MakeRecord(1, 1), bytes.data());
  Rid rid = heap_.Insert(bytes.data()).value();
  ASSERT_TRUE(heap_.Delete(rid).ok());
  std::vector<uint8_t> out(500);
  EXPECT_EQ(heap_.Get(rid, out.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(heap_.Delete(rid).code(), StatusCode::kNotFound);
}

TEST_F(HeapFileTest, UpdateInPlace) {
  std::vector<uint8_t> bytes(500);
  codec_.Serialize(codec_.MakeRecord(1, 1), bytes.data());
  Rid rid = heap_.Insert(bytes.data()).value();
  Record changed = codec_.MakeRecord(1, 999);
  codec_.Serialize(changed, bytes.data());
  ASSERT_TRUE(heap_.Update(rid, bytes.data()).ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(heap_.Get(rid, out.data()).ok());
  EXPECT_EQ(codec_.Deserialize(out.data()), changed);
}

TEST_F(HeapFileTest, ScanVisitsExactlyLiveRecords) {
  std::vector<uint8_t> bytes(500);
  std::map<Rid, Record> expected;
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    Record r = codec_.MakeRecord(i + 1, i * 10);
    codec_.Serialize(r, bytes.data());
    Rid rid = heap_.Insert(bytes.data()).value();
    expected[rid] = r;
    rids.push_back(rid);
  }
  for (int i = 0; i < 30; i += 3) {
    ASSERT_TRUE(heap_.Delete(rids[i]).ok());
    expected.erase(rids[i]);
  }

  std::map<Rid, Record> seen;
  ASSERT_TRUE(heap_
                  .Scan([&](Rid rid, const uint8_t* data) {
                    seen[rid] = codec_.Deserialize(data);
                  })
                  .ok());
  EXPECT_EQ(seen, expected);
}

TEST(HeapFileSmallRecordTest, BitmapLimitsSlots) {
  InMemoryPageStore store;
  BufferPool pool(&store, 16);
  HeapFile heap(&pool, 22);  // smallest supported record
  // Slots are capped by the 24-byte bitmap (192 slots).
  EXPECT_LE(heap.slots_per_page(), 192u);
  EXPECT_GE(heap.slots_per_page(), 128u);
}

TEST(HeapFileStressTest, RandomInsertDeleteAgainstModel) {
  InMemoryPageStore store;
  BufferPool pool(&store, 64);
  RecordCodec codec(100);
  HeapFile heap(&pool, 100);
  Rng rng(31337);

  std::map<Rid, Record> model;
  uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    if (model.empty() || rng.NextBool(0.6)) {
      Record r = codec.MakeRecord(next_id++, uint32_t(rng.NextBounded(1000)));
      std::vector<uint8_t> bytes = codec.Serialize(r);
      Rid rid = heap.Insert(bytes.data()).value();
      ASSERT_EQ(model.count(rid), 0u);
      model[rid] = r;
    } else {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(heap.Delete(it->first).ok());
      model.erase(it);
    }
    ASSERT_EQ(heap.size(), model.size());
  }
  // Final consistency check.
  std::vector<uint8_t> out(100);
  for (const auto& [rid, record] : model) {
    ASSERT_TRUE(heap.Get(rid, out.data()).ok());
    EXPECT_EQ(codec.Deserialize(out.data()), record);
  }
}

}  // namespace
}  // namespace sae::storage
