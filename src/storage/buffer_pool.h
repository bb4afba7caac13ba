// Copyright (c) saedb authors. Licensed under the MIT license.
//
// LRU buffer pool. All index and heap-file page traffic goes through here,
// which gives the experiments a single place to count *node accesses* — the
// paper's cost unit (10 ms each). `Stats::accesses` counts every logical
// fetch (what the paper charges); `Stats::misses` counts frame faults, which
// the buffer-capacity ablation uses.
//
// The store already holds every page in memory, so a frame is not a copy:
// it points at the store's own `Page`. The pool only simulates residency —
// which pages a pool of `capacity` frames would hold under LRU — for the
// counters; a miss pins the store page in place, `Mutable()` writes it
// directly, and eviction drops the frame without writing anything back.
//
// Concurrency: the pool is safe for any number of concurrent readers (and
// for readers concurrent with a single writer touching disjoint pages). An
// internal mutex guards the frame table / LRU / pin counts, counters are
// atomic, and `stats()` returns a consistent snapshot instead of a racy
// reference. Per-thread counters (`ThreadStats()`) let a worker attribute
// node accesses to the query it is executing without racing other workers;
// callers diff two snapshots, so the counters themselves never need
// resetting. Page *contents* are protected by the pin discipline: a ref
// reads its page without the mutex, and writers (`Mutable()`) require that
// no other thread holds a ref to the same page.

#ifndef SAE_STORAGE_BUFFER_POOL_H_
#define SAE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace sae::storage {

/// Pins pages in memory and evicts least-recently-used unpinned frames.
class BufferPool {
 public:
  /// A snapshot of the pool's counters. Obtain via `stats()` (all threads)
  /// or `ThreadStats()` (calling thread only) and diff two snapshots to
  /// measure the work in between. Each field is individually exact
  /// (relaxed atomics); a `stats()` snapshot taken while workers are mid-
  /// fetch is not cross-field consistent — snapshot quiescent pools when
  /// ratios between fields matter.
  struct Stats {
    uint64_t accesses = 0;   // logical page fetches (hits + misses)
    uint64_t misses = 0;     // fetches of a page not resident in a frame
    uint64_t evictions = 0;  // frames dropped to make room
    uint64_t allocations = 0;  // new pages created through the pool

    /// Component-wise delta: the cost of the work between two snapshots.
    friend Stats operator-(Stats a, const Stats& b) {
      a.accesses -= b.accesses;
      a.misses -= b.misses;
      a.evictions -= b.evictions;
      a.allocations -= b.allocations;
      return a;
    }
    Stats& operator+=(const Stats& o) {
      accesses += o.accesses;
      misses += o.misses;
      evictions += o.evictions;
      allocations += o.allocations;
      return *this;
    }
  };

  /// RAII pin on a cached page. Move-only; unpins on destruction.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { Release(); }

    bool valid() const { return pool_ != nullptr; }
    PageId id() const { return id_; }

    /// Writes the store's page in place. The caller must be the only thread
    /// holding a ref to this page.
    Page& Mutable();
    const Page& Get() const;

    /// Explicitly unpin before destruction (idempotent).
    void Release();

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, size_t frame, Page* page, PageId id)
        : pool_(pool), frame_(frame), page_(page), id_(id) {}

    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    Page* page_ = nullptr;
    PageId id_ = kInvalidPageId;
  };

  /// \param store     backing page store (not owned; its page table is
  ///                  accessed only under the pool's internal lock)
  /// \param capacity  max resident frames; must allow the deepest pin chain
  ///                  (a root-to-leaf path plus siblings, per concurrent
  ///                  reader; 16 per thread is plenty)
  BufferPool(InMemoryPageStore* store, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches and pins a page; counts one logical node access. Thread-safe.
  Result<PageRef> Fetch(PageId id);

  /// Allocates a fresh zeroed page, pins it, returns the ref; `Fetch`-style
  /// access accounting applies.
  Result<PageRef> New();

  /// Frees a page (must not be pinned); drops any cached frame.
  Status Free(PageId id);

  /// Snapshot of the global counters (every thread's fetches).
  Stats stats() const;

  /// Snapshot of the counters for fetches made *by the calling thread*.
  /// Because a query runs entirely on one worker thread, diffing this
  /// around the query attributes its node accesses exactly, with no races
  /// against concurrent queries and no reset of shared state.
  Stats ThreadStats() const;

  /// Zeroes the global counters. Single-threaded convenience for tests and
  /// benches; do not call while other threads use the pool (prefer
  /// snapshot deltas, which need no reset).
  void ResetStats();

  size_t capacity() const { return capacity_; }

 private:
  // A resident page: a pointer to the store's own page, never a copy.
  struct Frame {
    Page* page = nullptr;
    PageId id = kInvalidPageId;
    int pin_count = 0;
    bool in_use = false;
    std::list<size_t>::iterator lru_pos;  // valid iff pin_count == 0 && in_use
    bool in_lru = false;
  };

  void Unpin(size_t frame);
  // Finds a free frame, evicting if necessary; sets *evicted when a victim
  // was pushed out. Returns frame index. Caller must hold mu_.
  Result<size_t> GrabFrame(bool* evicted);
  // Makes `frame` resident for `page` and pins it. Caller must hold mu_.
  PageRef Pin(size_t frame, PageId id, Page* page);

  // Bump the global atomics and this thread's counters. Called outside mu_
  // so the hash-map lookup never extends the critical section.
  void CountAccess(bool miss);
  void CountEviction();
  void CountAllocation();

  InMemoryPageStore* store_;
  size_t capacity_;

  // mu_ guards frames_ metadata (pin counts, in-use flags, ids),
  // free_frames_, lru_, table_, and all store calls. Page *contents* are
  // read outside the lock (see class comment). A miss only looks the page
  // up in the in-memory store, so one pool-wide mutex is the whole locking
  // scheme.
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = least recently used, unpinned only
  std::unordered_map<PageId, size_t> table_;

  std::atomic<uint64_t> accesses_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> allocations_{0};
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_BUFFER_POOL_H_
