// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Concurrency suite for the thread-safe read path: the BufferPool under
// parallel readers, Channel sessions under parallel senders, and the
// QueryEngine fanning batches across one loaded SaeSystem / TomSystem.
// The engine runs must produce exactly the serial results and VTs, every
// per-query cost must compose into the batch aggregate, and the whole
// suite must be clean under ThreadSanitizer (the CI tsan job runs it).

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "core/answer_cache.h"
#include "core/client_memo.h"
#include "core/query_engine.h"
#include "core/system.h"
#include "sim/channel.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/page_store.h"

namespace sae {
namespace {

using adversary::AttackMode;
using core::BatchQuery;
using core::QueryEngine;
using core::SaeSystem;
using core::TomSystem;
using storage::BufferPool;
using storage::PageId;
using storage::Record;
using storage::RecordCodec;

constexpr size_t kRecSize = 64;
constexpr size_t kThreads = 4;

std::vector<Record> SmallDataset(size_t n) {
  RecordCodec codec(kRecSize);
  std::vector<Record> records;
  records.reserve(n);
  for (uint64_t id = 1; id <= n; ++id) {
    records.push_back(codec.MakeRecord(id, uint32_t(id * 10)));
  }
  return records;
}

std::vector<BatchQuery> MakeBatch(size_t count, uint32_t domain) {
  std::vector<BatchQuery> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t lo = uint32_t((i * 997) % domain);
    batch.push_back(BatchQuery{lo, lo + domain / 20});
  }
  return batch;
}

// --- storage: BufferPool under concurrent readers ----------------------------

TEST(BufferPoolConcurrencyTest, ParallelFetchersSeeConsistentPages) {
  storage::InMemoryPageStore store;
  BufferPool pool(&store, 16);  // smaller than the page count: forces
                                // eviction churn under contention
  constexpr size_t kPages = 64;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    // Stamp the page with its id so readers can detect frame mixups.
    std::memcpy(ref.value().Mutable().bytes(), &i, sizeof(i));
    ids.push_back(ref.value().id());
  }

  BufferPool::Stats before = pool.stats();
  constexpr size_t kFetchesPerThread = 2000;
  std::atomic<size_t> mismatches{0};
  std::atomic<uint64_t> thread_access_sum{0};
  std::atomic<uint64_t> thread_miss_sum{0};
  std::atomic<uint64_t> thread_eviction_sum{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BufferPool::Stats start = pool.ThreadStats();
      uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        size_t pick = size_t(state >> 33) % kPages;
        auto ref = pool.Fetch(ids[pick]);
        ASSERT_TRUE(ref.ok());
        size_t stamp = 0;
        std::memcpy(&stamp, ref.value().Get().bytes(), sizeof(stamp));
        if (stamp != pick) mismatches.fetch_add(1);
      }
      BufferPool::Stats mine = pool.ThreadStats() - start;
      thread_access_sum.fetch_add(mine.accesses);
      thread_miss_sum.fetch_add(mine.misses);
      thread_eviction_sum.fetch_add(mine.evictions);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  BufferPool::Stats delta = pool.stats() - before;
  EXPECT_EQ(delta.accesses, kThreads * kFetchesPerThread);
  EXPECT_GT(delta.evictions, 0u);
  // The per-thread counters partition the global counts exactly.
  EXPECT_EQ(thread_access_sum.load(), delta.accesses);
  EXPECT_EQ(thread_miss_sum.load(), delta.misses);
  EXPECT_EQ(thread_eviction_sum.load(), delta.evictions);
}

// The pool's writer contract: one thread creates, writes and frees its own
// pages (New / Mutable / Free) while readers fetch theirs. Nobody sees
// another page's bytes, and the per-thread counters still partition the
// global ones.
TEST(BufferPoolConcurrencyTest, SingleWriterOnDisjointPagesAlongsideReaders) {
  storage::InMemoryPageStore store;
  BufferPool pool(&store, 16);
  constexpr size_t kReaders = kThreads - 1;
  constexpr size_t kPagesPerReader = 12;
  std::vector<std::vector<PageId>> reader_pages(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    for (size_t i = 0; i < kPagesPerReader; ++i) {
      auto ref = pool.New();
      ASSERT_TRUE(ref.ok());
      uint64_t stamp = r * 1000 + i;
      std::memcpy(ref.value().Mutable().bytes(), &stamp, sizeof(stamp));
      reader_pages[r].push_back(ref.value().id());
    }
  }
  size_t pages_before = store.LivePageCount();

  BufferPool::Stats before = pool.stats();
  constexpr size_t kReaderFetches = 2000;
  constexpr size_t kWriterRounds = 600;
  std::atomic<size_t> mismatches{0};
  std::mutex sums_mu;
  BufferPool::Stats thread_sum;
  auto add_mine = [&](const BufferPool::Stats& start) {
    BufferPool::Stats mine = pool.ThreadStats() - start;
    std::lock_guard<std::mutex> lock(sums_mu);
    thread_sum += mine;
  };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      BufferPool::Stats start = pool.ThreadStats();
      uint64_t state = 0x9E3779B97F4A7C15ull * (r + 1);
      for (size_t i = 0; i < kReaderFetches; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        size_t pick = size_t(state >> 33) % kPagesPerReader;
        auto ref = pool.Fetch(reader_pages[r][pick]);
        ASSERT_TRUE(ref.ok());
        uint64_t stamp = 0;
        std::memcpy(&stamp, ref.value().Get().bytes(), sizeof(stamp));
        if (stamp != r * 1000 + pick) mismatches.fetch_add(1);
      }
      add_mine(start);
    });
  }
  size_t writer_live = 0;
  threads.emplace_back([&] {
    BufferPool::Stats start = pool.ThreadStats();
    std::vector<PageId> mine;
    for (size_t round = 0; round < kWriterRounds; ++round) {
      auto ref = pool.New();
      ASSERT_TRUE(ref.ok());
      uint64_t stamp = 1'000'000 + round;
      std::memcpy(ref.value().Mutable().bytes(), &stamp, sizeof(stamp));
      mine.push_back(ref.value().id());
      ref.value().Release();
      // Re-read an older page of its own, then free every third one.
      size_t pick = round % mine.size();
      auto again = pool.Fetch(mine[pick]);
      ASSERT_TRUE(again.ok());
      std::memcpy(&stamp, again.value().Get().bytes(), sizeof(stamp));
      if (stamp < 1'000'000) mismatches.fetch_add(1);
      again.value().Release();
      if (round % 3 == 2) {
        ASSERT_TRUE(pool.Free(mine[pick]).ok());
        mine.erase(mine.begin() + long(pick));
      }
    }
    writer_live = mine.size();
    add_mine(start);
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(store.LivePageCount(), pages_before + writer_live);
  BufferPool::Stats delta = pool.stats() - before;
  EXPECT_EQ(delta.accesses, kReaders * kReaderFetches + 2 * kWriterRounds);
  EXPECT_EQ(delta.allocations, kWriterRounds);
  EXPECT_GT(delta.evictions, 0u);
  EXPECT_EQ(thread_sum.accesses, delta.accesses);
  EXPECT_EQ(thread_sum.misses, delta.misses);
  EXPECT_EQ(thread_sum.evictions, delta.evictions);
  EXPECT_EQ(thread_sum.allocations, delta.allocations);
}

// --- sim: Channel sessions under concurrent senders --------------------------

TEST(ChannelConcurrencyTest, SessionsMeterPrivatelyAndGloballyAtomically) {
  sim::Channel channel("shared");
  constexpr size_t kSendsPerThread = 1000;

  std::vector<std::thread> threads;
  std::atomic<uint64_t> session_byte_sum{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::Channel::Session session = channel.OpenSession();
      for (size_t i = 0; i < kSendsPerThread; ++i) {
        session.SendBytes(t + 1);
      }
      EXPECT_EQ(session.messages(), kSendsPerThread);
      EXPECT_EQ(session.bytes(), kSendsPerThread * (t + 1));
      session_byte_sum.fetch_add(session.bytes());
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(channel.messages(), kThreads * kSendsPerThread);
  EXPECT_EQ(channel.total_bytes(), session_byte_sum.load());
}

// --- core: SAE batches through the QueryEngine -------------------------------

class SaeConcurrencyTest : public ::testing::Test {
 protected:
  SaeConcurrencyTest()
      : system_(SaeSystem::Options{kRecSize, crypto::HashScheme::kSha1, 256,
                                   256, 256, {}, {}, {}, {}, {}}) {
    SAE_CHECK_OK(system_.Load(SmallDataset(2000)));
  }

  SaeSystem system_;
};

TEST_F(SaeConcurrencyTest, ThreadedBatchMatchesSerialRun) {
  std::vector<BatchQuery> batch = MakeBatch(48, 20000);

  // Serial baseline through the public single-query API.
  std::vector<SaeSystem::QueryOutcome> serial;
  for (const BatchQuery& q : batch) {
    auto outcome = system_.Query(q.request);
    ASSERT_TRUE(outcome.ok());
    serial.push_back(std::move(outcome.value()));
  }

  QueryEngine engine(QueryEngine::Options{kThreads});
  QueryEngine::SaeBatch threaded = engine.Run(&system_, batch);

  ASSERT_EQ(threaded.outcomes.size(), batch.size());
  EXPECT_EQ(threaded.stats.accepted, batch.size());
  EXPECT_EQ(threaded.stats.rejected, 0u);
  EXPECT_EQ(threaded.stats.failed, 0u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(threaded.outcomes[i].ok()) << "query " << i;
    const SaeSystem::QueryOutcome& got = threaded.outcomes[i].value();
    EXPECT_TRUE(got.verification.ok()) << "query " << i;
    EXPECT_EQ(got.results, serial[i].results) << "query " << i;
    EXPECT_EQ(got.vt, serial[i].vt) << "query " << i;
  }
}

TEST_F(SaeConcurrencyTest, AggregatedCostsEqualSumOfPerQueryCosts) {
  std::vector<BatchQuery> batch = MakeBatch(48, 20000);

  BufferPool::Stats sp_index0 = system_.sp().index_pool_stats();
  BufferPool::Stats sp_heap0 = system_.sp().heap_pool_stats();
  BufferPool::Stats te0 = system_.te().pool_stats();

  QueryEngine engine(QueryEngine::Options{kThreads});
  QueryEngine::SaeBatch run = engine.Run(&system_, batch);

  core::QueryCosts sum;
  for (const auto& outcome : run.outcomes) {
    ASSERT_TRUE(outcome.ok());
    sum += outcome.value().costs;
  }
  EXPECT_EQ(run.stats.total.sp_index_accesses, sum.sp_index_accesses);
  EXPECT_EQ(run.stats.total.sp_heap_accesses, sum.sp_heap_accesses);
  EXPECT_EQ(run.stats.total.te_accesses, sum.te_accesses);
  EXPECT_EQ(run.stats.total.auth_bytes, sum.auth_bytes);
  EXPECT_EQ(run.stats.total.result_bytes, sum.result_bytes);

  // The per-thread attribution partitions the global pool counters: the
  // batch-wide pool deltas equal the summed per-query costs exactly.
  EXPECT_EQ((system_.sp().index_pool_stats() - sp_index0).accesses,
            sum.sp_index_accesses);
  EXPECT_EQ((system_.sp().heap_pool_stats() - sp_heap0).accesses,
            sum.sp_heap_accesses);
  EXPECT_EQ((system_.te().pool_stats() - te0).accesses, sum.te_accesses);
}

TEST_F(SaeConcurrencyTest, MaliciousQueriesAreRejectedUnderConcurrency) {
  // Interleave honest queries with every attack mode; each worker must
  // reach the right verdict for its own queries despite shared state.
  const AttackMode kModes[] = {
      AttackMode::kDropOne,      AttackMode::kDropAll,
      AttackMode::kInjectFake,   AttackMode::kTamperPayload,
      AttackMode::kTamperKey,    AttackMode::kDuplicateOne,
  };
  adversary::SaeAdversary attacker(&system_);
  std::vector<BatchQuery> batch = MakeBatch(48, 20000);
  size_t attacked = 0;
  for (size_t i = 0; i < batch.size(); i += 2) {
    batch[i].tap =
        attacker.Tap(kModes[(i / 2) % (sizeof(kModes) / sizeof(kModes[0]))]);
    ++attacked;
  }

  QueryEngine engine(QueryEngine::Options{kThreads});
  QueryEngine::SaeBatch run = engine.Run(&system_, batch);

  EXPECT_EQ(run.stats.rejected, attacked);
  EXPECT_EQ(run.stats.accepted, batch.size() - attacked);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(run.outcomes[i].ok());
    EXPECT_EQ(run.outcomes[i].value().verification.ok(),
              batch[i].tap == nullptr)
        << "query " << i;
  }
}

TEST_F(SaeConcurrencyTest, EngineIsReusableAcrossBatches) {
  QueryEngine engine(QueryEngine::Options{2});
  for (int round = 0; round < 3; ++round) {
    QueryEngine::SaeBatch run = engine.Run(&system_, MakeBatch(10, 20000));
    EXPECT_EQ(run.stats.accepted, 10u);
  }
  // An inline engine (no workers) goes through the identical path.
  QueryEngine inline_engine;
  QueryEngine::SaeBatch run = inline_engine.Run(&system_, MakeBatch(4, 20000));
  EXPECT_EQ(run.stats.accepted, 4u);
}

// --- core: TOM batches through the QueryEngine -------------------------------

TEST(TomConcurrencyTest, ThreadedBatchMatchesSerialRun) {
  TomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;  // fast for tests
  TomSystem system(options);
  SAE_CHECK_OK(system.Load(SmallDataset(1500)));

  std::vector<BatchQuery> batch = MakeBatch(24, 15000);
  std::vector<TomSystem::QueryOutcome> serial;
  for (const BatchQuery& q : batch) {
    auto outcome = system.Query(q.request);
    ASSERT_TRUE(outcome.ok());
    serial.push_back(std::move(outcome.value()));
  }

  QueryEngine engine(QueryEngine::Options{kThreads});
  QueryEngine::TomBatch threaded = engine.Run(&system, batch);

  ASSERT_EQ(threaded.outcomes.size(), batch.size());
  EXPECT_EQ(threaded.stats.accepted, batch.size());
  core::QueryCosts sum;
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(threaded.outcomes[i].ok()) << "query " << i;
    const TomSystem::QueryOutcome& got = threaded.outcomes[i].value();
    EXPECT_TRUE(got.verification.ok()) << "query " << i;
    EXPECT_EQ(got.results, serial[i].results) << "query " << i;
    EXPECT_EQ(got.costs.auth_bytes, serial[i].costs.auth_bytes)
        << "query " << i;
    sum += got.costs;
  }
  EXPECT_EQ(threaded.stats.total.auth_bytes, sum.auth_bytes);
  EXPECT_EQ(threaded.stats.total.sp_index_accesses, sum.sp_index_accesses);
}

// --- caches: readers hammering, writers invalidating -------------------------
//
// The verified-path caches (hot-level node memos, epoch-keyed answer
// caches, the client memo) sit on the shared read path, so cache fills race with cache hits
// and with writer-side invalidation. These tests drive that contention
// directly; TSan (the CI tsan job runs this binary) checks the locking.

TEST(CacheConcurrencyTest, HotNodeCacheSurvivesMixedLookupInsertInvalidate) {
  struct FakeNode {
    uint64_t stamp;
  };
  storage::HotNodeCache<FakeNode> cache({/*hot_levels=*/3, 32});
  constexpr uint32_t kPages = 64;
  std::atomic<bool> stop{false};
  std::atomic<size_t> corrupt{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (size_t i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint32_t id = uint32_t(state >> 33) % kPages;
        size_t depth = size_t(state >> 13) % 4;  // some uncacheable
        auto node = cache.Lookup(storage::PageId(id), depth);
        if (node == nullptr) {
          // A fill stores the page id as the stamp, so any reader can
          // detect a frame mixup or a torn entry.
          node = cache.Insert(storage::PageId(id), depth, FakeNode{id});
        }
        if (node->stamp != id) corrupt.fetch_add(1);
      }
    });
  }
  std::thread invalidator([&] {
    uint64_t state = 42;
    // The minimum sweep count keeps the invalidation assertion below
    // independent of scheduling: on a loaded single-core host this thread
    // may first run only after the readers finished and `stop` is set.
    size_t sweeps = 0;
    while (!stop.load() || sweeps < 256) {
      ++sweeps;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      cache.Invalidate(storage::PageId(uint32_t(state >> 33) % kPages));
      if ((state & 0xFF) == 0) cache.Clear();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(corrupt.load(), 0u);
  storage::NodeCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_LE(cache.size(), 32u);
}

TEST(CacheConcurrencyTest, AnswerCacheReplaysExactBytesUnderInvalidation) {
  core::AnswerCacheOptions options;
  options.max_entries = 24;  // below working set: eviction churn too
  core::AnswerCache cache(options);
  constexpr uint32_t kRanges = 48;
  std::atomic<bool> stop{false};
  std::atomic<size_t> corrupt{0};
  std::atomic<uint64_t> hit_count{0};

  auto key_for = [](uint32_t r) {
    core::AnswerCache::Key key;
    key.lo = r * 100;
    key.hi = r * 100 + 99;
    key.epoch = 7;
    return key;
  };
  auto bytes_for = [](uint32_t r) {
    return std::vector<uint8_t>{uint8_t(r), uint8_t(r >> 8), 0xAB};
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0xC0FFEEull * (t + 1);
      for (size_t i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint32_t r = uint32_t(state >> 33) % kRanges;
        auto hit = cache.Lookup(key_for(r));
        if (hit == nullptr) {
          cache.Insert(key_for(r), std::make_shared<const core::CachedAnswer>(
                                       core::CachedAnswer{bytes_for(r), {}}));
          continue;
        }
        hit_count.fetch_add(1);
        // A hit must replay the exact bytes inserted for this key even if
        // an InvalidateAll or an eviction races with the lookup.
        if (hit->answer_msg != bytes_for(r)) corrupt.fetch_add(1);
      }
    });
  }
  std::thread invalidator([&] {
    while (!stop.load()) {
      cache.InvalidateAll();
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(corrupt.load(), 0u);
  core::AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, hit_count.load());
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_LE(cache.size(), options.max_entries);
}

// The client memo backing SaeClientMemo and TomClientMemo: readers look up
// and fill a hot set of requests, each served one buffer and given a
// verdict of its own, while another thread expires epochs as the TOM
// memo's freshness path does. A hit must hand back that request's verdict
// even when an epoch drop or an eviction races with it.
TEST(CacheConcurrencyTest, ServedAnswerMemoSurvivesLookupInsertAndEpochDrop) {
  core::AnswerCacheOptions options;
  options.max_entries = 16;  // below the hot set: eviction churn too
  core::ServedAnswerMemo memo(options);
  constexpr uint32_t kRequests = 32;
  auto request_for = [](uint32_t r) {
    return dbms::QueryRequest::Scan(r * 100, r * 100 + 99);
  };
  auto verdict_for = [](uint32_t r) {
    crypto::Digest digest;
    digest.bytes[0] = uint8_t(r);
    digest.bytes[1] = 0x5A;
    return digest;
  };
  std::vector<std::shared_ptr<const core::CachedAnswer>> served;
  for (uint32_t r = 0; r < kRequests; ++r) {
    served.push_back(std::make_shared<const core::CachedAnswer>(
        core::CachedAnswer{{uint8_t(r), 0xAB}, {}}));
  }
  std::atomic<uint64_t> epoch{1};
  std::atomic<bool> stop{false};
  std::atomic<size_t> corrupt{0};
  std::atomic<uint64_t> hit_count{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0xFEEDull * (t + 1);
      for (size_t i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint32_t r = uint32_t(state >> 33) % kRequests;
        core::ServedAnswerMemo::Verdict verdict;
        bool admit = false;
        if (memo.Lookup(request_for(r), served[r], &verdict, &admit)) {
          hit_count.fetch_add(1);
          if (verdict.token_digest != verdict_for(r)) corrupt.fetch_add(1);
        } else if (admit) {
          memo.Insert(request_for(r), served[r],
                      {verdict_for(r)}, epoch.load());
        }
      }
    });
  }
  std::thread dropper([&] {
    // A minimum number of drops, as in the node-cache test above, so the
    // invalidation assertion holds however the threads are scheduled.
    size_t drops = 0;
    while (!stop.load() || drops < 256) {
      ++drops;
      memo.DropAllIfEpochMoved(epoch.fetch_add(1) + 1);
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  dropper.join();

  EXPECT_EQ(corrupt.load(), 0u);
  core::AnswerCacheStats stats = memo.stats();
  EXPECT_EQ(stats.hits, hit_count.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_LE(memo.size(), options.max_entries);
}

// Readers replay a small hot set of verified queries (filling and hitting
// the SP answer cache, the TE VT memo, and the hot-node digest caches)
// while a writer inserts records — every insert bumps the epoch, flushes
// the answer caches, and invalidates digest entries along its update path.
// Every honest outcome must still verify: a torn cache entry or a stale
// digest surviving invalidation would surface as a verification failure.
template <typename System>
void RunCachedReadersVsWriter(System* system, size_t queries_per_reader) {
  RecordCodec codec(kRecSize);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::ostringstream err;
      uint64_t state = 0x5EEDull * (t + 1);
      for (size_t i = 0; i < queries_per_reader; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint32_t lo = uint32_t(state >> 33) % 8 * 2500;  // 8 hot ranges
        auto outcome = system->ExecuteQuery(lo, lo + 2499);
        if (!outcome.ok()) {
          err << "query errored: " << outcome.status().ToString() << "; ";
        } else if (!outcome.value().verification.ok()) {
          err << "query [" << lo << "] rejected: "
              << outcome.value().verification.ToString() << "; ";
        }
      }
      errors[t] = err.str();
    });
  }
  std::thread writer([&] {
    for (uint64_t i = 0; i < 24; ++i) {
      SAE_CHECK_OK(
          system->Insert(codec.MakeRecord(500'000 + i, uint32_t(i * 793))));
    }
  });
  for (auto& thread : readers) thread.join();
  writer.join();
  for (const std::string& err : errors) EXPECT_EQ(err, "");
}

TEST(CacheConcurrencyTest, SaeCachedReadsVerifyDuringWrites) {
  SaeSystem system(SaeSystem::Options{kRecSize, crypto::HashScheme::kSha1,
                                      256, 256, 256, {}, {}, {}, {}, {}});
  SAE_CHECK_OK(system.Load(SmallDataset(2000)));
  RunCachedReadersVsWriter(&system, 60);
  core::SaeCacheStats stats = system.cache_stats();
  EXPECT_GT(stats.sp_answer.hits + stats.te_vt.hits, 0u);
  EXPECT_GT(stats.sp_answer.invalidations, 0u) << "epoch bumps must flush";
  EXPECT_GT(stats.te_digest.hits, 0u);
}

TEST(CacheConcurrencyTest, TomCachedReadsVerifyDuringWrites) {
  TomSystem::Options options;
  options.record_size = kRecSize;
  options.rsa_modulus_bits = 512;  // fast for tests
  TomSystem system(options);
  SAE_CHECK_OK(system.Load(SmallDataset(1500)));
  RunCachedReadersVsWriter(&system, 30);
  core::TomCacheStats stats = system.cache_stats();
  EXPECT_GT(stats.sp_answer.hits, 0u);
  EXPECT_GT(stats.sp_answer.invalidations, 0u) << "epoch bumps must flush";
  EXPECT_GT(stats.sp_digest.hits + stats.owner_digest.hits, 0u);
}

}  // namespace
}  // namespace sae
