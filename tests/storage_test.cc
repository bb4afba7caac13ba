// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Unit tests for src/storage: the in-memory page store, buffer pool
// pin/evict semantics and access accounting, record codec, heap file, and
// the CRC-32 behind the WAL and snapshot files.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page_store.h"
#include "storage/record.h"
#include "storage/wal.h"
#include "util/random.h"

namespace sae::storage {
namespace {

// --- page store ------------------------------------------------------------------

class InMemoryPageStoreTest : public ::testing::Test {
 protected:
  InMemoryPageStore store_;
};

TEST_F(InMemoryPageStoreTest, AllocateReadWrite) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  Page* page = store_.PageAt(id.value());
  ASSERT_NE(page, nullptr);
  page->bytes()[0] = 0xAB;
  page->bytes()[kPageSize - 1] = 0xCD;
  // The same page, not a copy: growing the store does not move it.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(store_.Allocate().ok());
  ASSERT_EQ(store_.PageAt(id.value()), page);
  EXPECT_EQ(page->bytes()[0], 0xAB);
  EXPECT_EQ(page->bytes()[kPageSize - 1], 0xCD);
}

TEST_F(InMemoryPageStoreTest, FreshPagesAreZeroed) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  const Page* read = store_.PageAt(id.value());
  ASSERT_NE(read, nullptr);
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(read->bytes()[i], 0);
}

TEST_F(InMemoryPageStoreTest, FreeAndReuse) {
  auto a = store_.Allocate();
  auto b = store_.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(store_.LivePageCount(), 2u);
  ASSERT_TRUE(store_.Free(a.value()).ok());
  EXPECT_EQ(store_.LivePageCount(), 1u);
  auto c = store_.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());  // freed id is recycled
  EXPECT_EQ(store_.LivePageCount(), 2u);
}

TEST_F(InMemoryPageStoreTest, AccessAfterFreeFails) {
  auto id = store_.Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_.Free(id.value()).ok());
  EXPECT_EQ(store_.PageAt(id.value()), nullptr);
  EXPECT_FALSE(store_.Free(id.value()).ok());
}

TEST_F(InMemoryPageStoreTest, ReadUnallocatedFails) {
  EXPECT_EQ(store_.PageAt(1234), nullptr);
}

TEST_F(InMemoryPageStoreTest, ManyPagesKeepDistinctContent) {
  constexpr int kPages = 64;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto id = store_.Allocate();
    ASSERT_TRUE(id.ok());
    store_.PageAt(id.value())->bytes()[7] = uint8_t(i);
    ids.push_back(id.value());
  }
  for (int i = 0; i < kPages; ++i) {
    EXPECT_EQ(store_.PageAt(ids[i])->bytes()[7], uint8_t(i));
  }
}

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
  // Only 4 frames: most pages were evicted (their writes live in the store).
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

// Frames are the store's own pages: a write lands in the store at once,
// with nothing to flush, and outlives the pool.
TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  InMemoryPageStore store;
  PageId id;
  {
    BufferPool pool(&store, 4);
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref.value().id();
    EXPECT_EQ(&ref.value().Get(), store.PageAt(id));
    ref.value().Mutable().bytes()[9] = 0x42;
    EXPECT_EQ(store.PageAt(id)->bytes()[9], 0x42);
    ref.value().Release();
    auto again = pool.Fetch(id);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(&again.value().Get(), store.PageAt(id));
  }
  EXPECT_EQ(store.PageAt(id)->bytes()[9], 0x42);
}

TEST(BufferPoolTest, MutableWriteVisibleAfterEvictionAndRefetch) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  PageId id;
  {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref.value().id();
  }
  {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    ref.value().Mutable().bytes()[100] = 0x5A;
  }
  // Push the page out of every frame.
  pool.ResetStats();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pool.New().ok());
  ASSERT_GT(pool.stats().evictions, 0u);
  BufferPool::Stats before = pool.stats();
  auto ref = pool.Fetch(id);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((pool.stats() - before).misses, 1u);  // it really was evicted
  EXPECT_EQ(ref.value().Get().bytes()[100], 0x5A);
}

// The residency the pool simulates is the copying pool's: a fixed trace of
// fetches, news and frees gives the same access, miss, eviction and
// allocation counts (the figures below were recorded with the earlier pool
// that copied each missed page into its frame).
TEST(BufferPoolTest, FixedTraceKeepsTheCopyingPoolsCounts) {
  InMemoryPageStore store;
  BufferPool pool(&store, 5);
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(pool.New().ValueOrDie().id());
  Rng rng(99);
  std::vector<BufferPool::PageRef> held;
  for (int step = 0; step < 3000; ++step) {
    size_t pick = size_t(rng.NextBounded(ids.size()));
    // Skewed picks so some pages stay hot; a few pins held across steps.
    if (rng.NextBool(0.5)) pick %= 4;
    auto ref = pool.Fetch(ids[pick]);
    ASSERT_TRUE(ref.ok());
    if (rng.NextBool(0.1) && held.size() < 3) {
      held.push_back(std::move(ref).ValueOrDie());
    } else if (!held.empty() && rng.NextBool(0.1)) {
      held.erase(held.begin());
    }
    if (step % 500 == 499) {
      held.clear();
      PageId victim = ids.back();
      ids.pop_back();
      ASSERT_TRUE(pool.Free(victim).ok());
      ids.push_back(pool.New().ValueOrDie().id());
    }
  }
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.accesses, 3018u);
  EXPECT_EQ(s.misses, 1334u);
  EXPECT_EQ(s.evictions, 1346u);
  EXPECT_EQ(s.allocations, 18u);
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

// A New refused for want of a frame gives back the store page it took.
TEST(BufferPoolTest, NewOnAFullyPinnedPoolLeavesTheStoreAlone) {
  InMemoryPageStore store;
  BufferPool pool(&store, 4);
  std::vector<BufferPool::PageRef> refs;
  for (int i = 0; i < 4; ++i) refs.push_back(pool.New().ValueOrDie());
  ASSERT_EQ(pool.New().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.LivePageCount(), 4u);
}

// Per-thread counters belong to one pool object: a pool built in the
// storage of a destroyed one starts from zero, not from its predecessor's
// counts.
TEST(BufferPoolTest, FreshPoolAtAReusedAddressStartsAtZero) {
  InMemoryPageStore store;
  alignas(BufferPool) unsigned char storage[sizeof(BufferPool)];
  auto* first = new (storage) BufferPool(&store, 4);
  PageId id = first->New().ValueOrDie().id();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(first->Fetch(id).ok());
  EXPECT_EQ(first->ThreadStats().accesses, 5u);
  first->~BufferPool();

  auto* second = new (storage) BufferPool(&store, 4);
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_EQ(second->stats().accesses, 0u);
  BufferPool::Stats mine = second->ThreadStats();
  EXPECT_EQ(mine.accesses, 0u);
  EXPECT_EQ(mine.misses, 0u);
  EXPECT_EQ(mine.evictions, 0u);
  EXPECT_EQ(mine.allocations, 0u);
  ASSERT_TRUE(second->Fetch(id).ok());
  EXPECT_EQ(second->ThreadStats().accesses, 1u);
  EXPECT_EQ(second->ThreadStats().misses, 1u);
  second->~BufferPool();
}

// The LRU policy written the plain way, as the pool first implemented it: a
// std::list of the resident unpinned pages (front = least recently used)
// and a hash map from each resident page to its pin count and list node.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : free_frames_(capacity) {}

  // Each call returns the status code the pool must return.
  StatusCode Fetch(PageId id, bool live) {
    ++stats.accesses;
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      if (it->second.pins++ == 0) lru_.erase(it->second.pos);
      return StatusCode::kOk;
    }
    ++stats.misses;
    if (!GrabFrame()) return StatusCode::kOutOfRange;
    if (!live) {
      ++free_frames_;
      return StatusCode::kInvalidArgument;
    }
    resident_[id].pins = 1;
    return StatusCode::kOk;
  }
  StatusCode New() {
    ++stats.accesses;
    ++stats.allocations;
    return GrabFrame() ? StatusCode::kOk : StatusCode::kOutOfRange;
  }
  void Admit(PageId id) { resident_[id].pins = 1; }  // after a New succeeds
  void Unpin(PageId id) {
    Entry& e = resident_.at(id);
    if (--e.pins == 0) e.pos = lru_.insert(lru_.end(), id);
  }
  StatusCode Free(PageId id) {
    auto it = resident_.find(id);
    if (it == resident_.end()) return StatusCode::kOk;
    if (it->second.pins > 0) return StatusCode::kInvalidArgument;
    lru_.erase(it->second.pos);
    resident_.erase(it);
    ++free_frames_;
    return StatusCode::kOk;
  }

  BufferPool::Stats stats;

 private:
  struct Entry {
    int pins = 0;
    std::list<PageId>::iterator pos;
  };

  bool GrabFrame() {
    if (free_frames_ > 0) {
      --free_frames_;
      return true;
    }
    if (lru_.empty()) return false;
    resident_.erase(lru_.front());
    lru_.pop_front();
    ++stats.evictions;
    return true;
  }

  size_t free_frames_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, Entry> resident_;
};

// A seeded trace of fetches (hot and cold, of live and of unallocated
// pages), news, frees (pinned ones refused) and pins held across steps,
// replayed against the pool and the reference model in lockstep: every
// step must agree on the outcome and on each counter's delta.
TEST(BufferPoolTest, RandomTraceMatchesReferenceLru) {
  constexpr size_t kFrames = 8;
  constexpr int kSteps = 24000;
  InMemoryPageStore store;
  BufferPool pool(&store, kFrames);
  ReferenceLru model(kFrames);
  std::vector<PageId> live;
  std::set<PageId> live_set;
  struct Held {
    PageId id;
    BufferPool::PageRef ref;
  };
  std::vector<Held> held;
  std::map<StatusCode, int> fetch_codes;
  int pinned_frees = 0;
  int refused_news = 0;
  auto counts = [](const BufferPool::Stats& s) {
    return std::make_tuple(s.accesses, s.misses, s.evictions, s.allocations);
  };
  BufferPool::Stats thread_start = pool.ThreadStats();
  Rng rng(31337);
  // Hold a successful ref across steps, or drop it (unpinning) at once.
  auto keep_or_drop = [&](PageId id, BufferPool::PageRef ref) {
    if (held.size() < 10 && rng.NextBool(0.3)) {
      held.push_back(Held{id, std::move(ref)});
    } else {
      ref.Release();
      model.Unpin(id);
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    BufferPool::Stats pool_before = pool.stats();
    BufferPool::Stats model_before = model.stats;
    uint64_t dice = rng.NextBounded(100);
    if (dice < 8 || live.size() < 4) {
      StatusCode want = model.New();
      auto ref = pool.New();
      ASSERT_EQ(ref.status().code(), want) << "New at step " << step;
      if (ref.ok()) {
        PageId id = ref.value().id();
        ASSERT_TRUE(live_set.insert(id).second);
        live.push_back(id);
        model.Admit(id);
        keep_or_drop(id, std::move(ref).ValueOrDie());
      } else {
        ++refused_news;
      }
    } else if (dice < 13 && live.size() > 4) {
      // Now and then a page this trace holds a pin on: refused.
      PageId id = !held.empty() && rng.NextBool(0.3)
                      ? held[rng.NextBounded(held.size())].id
                      : live[rng.NextBounded(live.size())];
      StatusCode want = model.Free(id);
      ASSERT_EQ(pool.Free(id).code(), want) << "Free at step " << step;
      if (want == StatusCode::kOk) {
        live.erase(std::find(live.begin(), live.end(), id));
        live_set.erase(id);
      } else {
        ++pinned_frees;
      }
    } else if (dice < 45 && !held.empty()) {
      size_t pick = size_t(rng.NextBounded(held.size()));
      PageId id = held[pick].id;
      held.erase(held.begin() + long(pick));  // unpins
      model.Unpin(id);
    } else {
      PageId id;
      if (dice < 50) {
        // Any id, live or not, sometimes far beyond the store's pages.
        id = rng.NextBool(0.5) ? PageId(rng.NextBounded(64))
                               : PageId(1'000'000 + rng.NextBounded(8));
      } else {
        // Skewed over the live pages so a hot few stay resident.
        size_t pick = size_t(rng.NextBounded(live.size()));
        if (rng.NextBool(0.6)) pick %= std::min<size_t>(live.size(), 6);
        id = live[pick];
      }
      StatusCode want = model.Fetch(id, live_set.count(id) > 0);
      auto ref = pool.Fetch(id);
      ASSERT_EQ(ref.status().code(), want) << "Fetch at step " << step;
      ++fetch_codes[want];
      if (ref.ok()) keep_or_drop(id, std::move(ref).ValueOrDie());
    }
    ASSERT_EQ(counts(pool.stats() - pool_before),
              counts(model.stats - model_before))
        << "counter deltas diverge at step " << step;
  }
  held.clear();
  EXPECT_EQ(counts(pool.stats()), counts(model.stats));
  EXPECT_EQ(counts(pool.ThreadStats() - thread_start), counts(model.stats));
  // The trace reached every branch it is meant to cover.
  EXPECT_GT(model.stats.evictions, 1000u);
  EXPECT_GT(model.stats.accesses - model.stats.misses, 1000u);
  EXPECT_GT(fetch_codes[StatusCode::kOutOfRange], 10);
  EXPECT_GT(fetch_codes[StatusCode::kInvalidArgument], 100);
  EXPECT_GT(refused_news, 0);
  EXPECT_GT(pinned_frees, 100);
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

// Canonical images of `records`, back to back, in one shared buffer.
std::shared_ptr<const std::vector<uint8_t>> SharedImagesOf(
    const RecordCodec& codec, const std::vector<Record>& records) {
  auto bytes = std::make_shared<std::vector<uint8_t>>(records.size() *
                                                      codec.record_size());
  for (size_t i = 0; i < records.size(); ++i) {
    codec.Serialize(records[i], bytes->data() + i * codec.record_size());
  }
  return bytes;
}

std::vector<Record> MadeRecords(const RecordCodec& codec, size_t n,
                                RecordId first = 1) {
  std::vector<Record> records;
  for (size_t i = 0; i < n; ++i) {
    records.push_back(codec.MakeRecord(first + i, Key(7 * i)));
  }
  return records;
}

// Records decoded from a shared buffer view it in place, and every one of
// them together holds a single reference to its owner.
TEST(PayloadTest, SharedDecodeViewsTheBufferWithOneOwnerReference) {
  RecordCodec codec(40);
  const std::vector<Record> made = MadeRecords(codec, 9);
  auto buffer = SharedImagesOf(codec, made);
  const uint8_t* base = buffer->data();
  std::vector<Record> decoded;
  {
    SharedImages images(buffer);
    codec.DeserializeMany(&images, base, 4, &decoded);
    codec.DeserializeMany(&images, base + 4 * 40, 5, &decoded);
  }
  ASSERT_EQ(decoded, made);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].payload.data(), base + i * 40 + kRecordHeaderSize);
  }
  EXPECT_EQ(buffer.use_count(), 2);  // this test's and the decode's
  std::vector<Record> copies = decoded;
  EXPECT_EQ(buffer.use_count(), 2);
  decoded.clear();
  copies.resize(1);
  EXPECT_EQ(buffer.use_count(), 2);  // one kept record keeps it all alive
  copies.clear();
  EXPECT_EQ(buffer.use_count(), 1);
}

// A served buffer is shared with other readers: a view copies before any
// write, even when it is the only record left holding the buffer.
TEST(PayloadTest, MutableDataOnAServedViewAlwaysCopies) {
  RecordCodec codec(20);
  auto buffer = SharedImagesOf(codec, MadeRecords(codec, 3));
  const std::vector<uint8_t> before = *buffer;
  std::vector<Record> decoded;
  {
    SharedImages images(buffer);
    codec.DeserializeMany(&images, buffer->data(), 3, &decoded);
  }
  decoded.resize(1);  // the sole remaining holder of the decode's block
  const uint8_t* view = decoded[0].payload.data();
  uint8_t* bytes = decoded[0].payload.MutableData();
  EXPECT_NE(bytes, view);
  bytes[0] ^= 0xFF;
  EXPECT_EQ(*buffer, before);
  EXPECT_EQ(decoded[0].payload[0], uint8_t(view[0] ^ 0xFF));
  // The private copy is written in place from now on.
  EXPECT_EQ(decoded[0].payload.MutableData(), bytes);
}

// Records decoded on one thread are copied and released on others; the
// owner dies exactly when the last of them does.
TEST(PayloadTest, SharedViewsReleasedOnOtherThreads) {
  RecordCodec codec(500);
  const std::vector<Record> made = MadeRecords(codec, 16);
  auto buffer = SharedImagesOf(codec, made);
  std::weak_ptr<const std::vector<uint8_t>> watch = buffer;
  std::vector<Record> decoded;
  {
    SharedImages images(std::move(buffer));
    codec.DeserializeMany(&images, watch.lock()->data(), 16, &decoded);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    std::vector<Record> mine(decoded.begin() + 4 * t,
                             decoded.begin() + 4 * (t + 1));
    threads.emplace_back([&, t, mine = std::move(mine)]() mutable {
      for (int round = 0; round < 100; ++round) {
        std::vector<Record> copy = mine;
        if (!(copy[round % 4] == made[size_t(4 * t + round % 4)])) {
          ++mismatches;
        }
      }
      mine.clear();
    });
  }
  decoded.clear();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(watch.expired());
}

// --- in-place record hashing ---------------------------------------------------------

// H(Serialize(r)) for each record, one record at a time.
std::vector<crypto::Digest> SerializeDigests(const std::vector<Record>& records,
                                             const RecordCodec& codec) {
  std::vector<crypto::Digest> out;
  for (const Record& r : records) {
    std::vector<uint8_t> image = codec.Serialize(r);
    out.push_back(crypto::ComputeDigest(image.data(), image.size(),
                                        crypto::HashScheme::kSha1));
  }
  return out;
}

// Image-backed records (a copying decode and a shared-buffer decode) and
// plain ones, interleaved, at sizes on both sides of kChunk (1024).
TEST(DigestRecordsTest, InPlaceImagesMatchTheSerializePath) {
  for (size_t record_size : {size_t(12), size_t(20), size_t(500)}) {
    RecordCodec codec(record_size);
    for (size_t n : {size_t(0), size_t(1), size_t(17), size_t(1025)}) {
      const std::vector<Record> made = MadeRecords(codec, n, 100);
      auto buffer = SharedImagesOf(codec, made);
      std::vector<Record> copied, viewed;
      codec.DeserializeMany(buffer->data(), n, &copied);
      {
        SharedImages images(buffer);
        codec.DeserializeMany(&images, buffer->data(), n, &viewed);
      }
      std::vector<Record> mixed;
      for (size_t i = 0; i < n; ++i) {
        mixed.push_back(i % 3 == 0 ? made[i] : i % 3 == 1 ? copied[i]
                                                          : viewed[i]);
      }
      if (n > 1 && record_size > kRecordHeaderSize) {
        EXPECT_EQ(codec.InPlaceImage(mixed[0]), nullptr);
        EXPECT_EQ(codec.InPlaceImage(mixed[1]), copied[1].payload.data() -
                                                    kRecordHeaderSize);
        EXPECT_EQ(codec.InPlaceImage(mixed[2]),
                  buffer->data() + 2 * record_size);
      }
      const std::vector<crypto::Digest> expected =
          SerializeDigests(made, codec);
      for (const std::vector<Record>* records :
           std::vector<const std::vector<Record>*>{&made, &copied, &viewed,
                                                   &mixed}) {
        EXPECT_EQ(DigestRecords(*records, codec, crypto::HashScheme::kSha1),
                  expected)
            << "record_size " << record_size << " n " << n;
      }
    }
  }
}

// A field edited after decode no longer matches the image header, so the
// record is hashed as what it now is, not as the bytes it was read from.
TEST(DigestRecordsTest, EditedIdOrKeyHashesTheEditedRecord) {
  RecordCodec codec(64);
  auto buffer = SharedImagesOf(codec, MadeRecords(codec, 4));
  std::vector<Record> decoded;
  {
    SharedImages images(buffer);
    codec.DeserializeMany(&images, buffer->data(), 4, &decoded);
  }
  std::vector<Record> copied;
  codec.DeserializeMany(buffer->data(), 4, &copied);
  for (std::vector<Record>* records : {&decoded, &copied}) {
    (*records)[1].id += 1000;
    (*records)[2].key ^= 0x10;
    (*records)[3].payload.MutableData()[5] ^= 0x01;
    EXPECT_EQ(codec.InPlaceImage((*records)[1]), nullptr);
    EXPECT_EQ(codec.InPlaceImage((*records)[2]), nullptr);
    EXPECT_EQ(DigestRecords(*records, codec, crypto::HashScheme::kSha1),
              SerializeDigests(*records, codec));
  }
  // Under another record size the payload is not the image's full slice.
  EXPECT_EQ(RecordCodec(65).InPlaceImage(decoded[0]), nullptr);
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

// Two heaps over their own small pools (4 frames, so loads evict), driven
// with the same history: one places each batch with InsertMany, the other
// one record at a time with Insert.
struct HeapTwin {
  explicit HeapTwin(size_t record_size)
      : pool(&store, 4), heap(&pool, record_size) {}
  InMemoryPageStore store;
  BufferPool pool;
  HeapFile heap;
};

std::vector<uint8_t> HeapRecordBytes(const RecordCodec& codec, size_t i) {
  return codec.Serialize(codec.MakeRecord(i + 1, uint32_t(i * 7)));
}

TEST(HeapFileBulkTest, InsertManyMatchesPerRecordInsertPageForPage) {
  RecordCodec codec(500);  // 8 slots a page
  HeapTwin bulk(500), single(500);
  size_t next = 0;
  std::vector<Rid> bulk_rids, single_rids;
  auto insert_batch = [&](size_t n) {
    ASSERT_TRUE(bulk.heap
                    .InsertMany(n,
                                [&](size_t i, Rid rid, uint8_t* slot) {
                                  std::vector<uint8_t> bytes =
                                      HeapRecordBytes(codec, next + i);
                                  std::memcpy(slot, bytes.data(), 500);
                                  bulk_rids.push_back(rid);
                                })
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint8_t> bytes = HeapRecordBytes(codec, next + i);
      auto rid = single.heap.Insert(bytes.data());
      ASSERT_TRUE(rid.ok());
      single_rids.push_back(rid.value());
    }
    next += n;
  };
  // Fill some pages, punch holes in three of them (the newest-first free
  // stack then holds pages with room out of id order), and refill across
  // the holes, a partial last page and fresh pages.
  insert_batch(29);
  for (size_t victim : {28u, 2u, 3u, 12u, 20u}) {
    ASSERT_TRUE(bulk.heap.Delete(bulk_rids[victim]).ok());
    ASSERT_TRUE(single.heap.Delete(single_rids[victim]).ok());
  }
  insert_batch(0);
  insert_batch(3);
  insert_batch(44);
  // A later Insert fills the partial last page the same way on both.
  ASSERT_EQ(bulk.heap.size() % bulk.heap.slots_per_page(), 7u);
  const size_t pages = bulk.heap.PageCount();
  insert_batch(1);
  EXPECT_EQ(bulk.heap.PageCount(), pages);

  EXPECT_EQ(bulk_rids, single_rids);
  // Insert's placement rule: the page that gained room last goes first
  // (pages 2, 1 and 0 regained room in that reverse order; the partial
  // page 3 had room all along), lowest free slot first, then fresh pages.
  const std::vector<Rid> refill = {MakeRid(2, 4), MakeRid(1, 4),
                                   MakeRid(0, 2), MakeRid(0, 3),
                                   MakeRid(3, 4), MakeRid(3, 5),
                                   MakeRid(3, 6), MakeRid(3, 7),
                                   MakeRid(4, 0)};
  EXPECT_EQ(std::vector<Rid>(single_rids.begin() + 29,
                             single_rids.begin() + 29 + refill.size()),
            refill);
  ASSERT_EQ(bulk.heap.PageCount(), single.heap.PageCount());
  EXPECT_EQ(bulk.heap.size(), single.heap.size());
  for (PageId id = 0; id < bulk.heap.PageCount(); ++id) {
    const Page* a = bulk.store.PageAt(id);
    const Page* b = single.store.PageAt(id);
    ASSERT_TRUE(a != nullptr && b != nullptr) << "page " << id;
    EXPECT_EQ(a->data, b->data) << "page " << id;
  }
  // Same residency: the same frames were allocated, missed and evicted,
  // and fetching every page now misses and hits in the same pattern (the
  // LRU order matches). The bulk path pins each page once, not once per
  // record.
  BufferPool::Stats bulk_stats = bulk.pool.stats();
  BufferPool::Stats single_stats = single.pool.stats();
  EXPECT_EQ(bulk_stats.allocations, single_stats.allocations);
  EXPECT_EQ(bulk_stats.misses, single_stats.misses);
  EXPECT_EQ(bulk_stats.evictions, single_stats.evictions);
  EXPECT_LT(bulk_stats.accesses, single_stats.accesses);
  std::vector<bool> bulk_misses, single_misses;
  for (PageId id = bulk.heap.PageCount(); id-- > 0;) {
    for (HeapTwin* twin : {&bulk, &single}) {
      uint64_t misses = twin->pool.stats().misses;
      ASSERT_TRUE(twin->pool.Fetch(id).ok());
      (twin == &bulk ? bulk_misses : single_misses)
          .push_back(twin->pool.stats().misses > misses);
    }
  }
  EXPECT_EQ(bulk_misses, single_misses);
  EXPECT_NE(std::count(bulk_misses.begin(), bulk_misses.end(), true), 0);
  EXPECT_NE(std::count(bulk_misses.begin(), bulk_misses.end(), false), 0);
}

// --- CRC-32 ---------------------------------------------------------------------

// The textbook bytewise CRC-32 (reflected 0xEDB88320), one bit at a time:
// the reference the table-driven Crc32 must agree with.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(2024);
  std::vector<uint8_t> buffer(8 + 70);
  for (int round = 0; round < 4; ++round) {
    for (uint8_t& byte : buffer) byte = uint8_t(rng.Next());
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 70; ++len) {
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(Crc32(data, len), BitwiseCrc32(data, len))
            << "offset " << offset << ", length " << len;
      }
    }
  }
}

TEST(Crc32Test, StreamedCrcSplitAnywhereEqualsTheOneShotCrc) {
  Rng rng(77);
  std::vector<uint8_t> buffer(300);
  for (uint8_t& byte : buffer) byte = uint8_t(rng.Next());
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    uint32_t first = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32(buffer.data() + split, buffer.size() - split, first),
              whole)
        << "split at " << split;
  }
  // Three pieces, the middle one empty, carry the same way.
  uint32_t running = Crc32(buffer.data(), 123);
  running = Crc32(buffer.data() + 123, 0, running);
  EXPECT_EQ(Crc32(buffer.data() + 123, buffer.size() - 123, running), whole);
}

}  // namespace
}  // namespace sae::storage
