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
// for readers concurrent with a single writer touching disjoint pages). One
// internal mutex guards the frame table, the LRU links, the pin counts and
// the global counters; a fetch or unpin does nothing under it but index
// arithmetic and plain increments (no allocation, no hashing, no atomics),
// and `stats()` takes it to return a consistent snapshot. Per-thread
// counters (`ThreadStats()`) let a worker attribute node accesses to the
// query it is executing without racing other workers; callers diff two
// snapshots, so the counters themselves never need resetting. Page
// *contents* are protected by the pin discipline: a ref reads its page
// without the mutex, and writers (`Mutable()`) require that no other
// thread holds a ref to the same page.

#ifndef SAE_STORAGE_BUFFER_POOL_H_
#define SAE_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <deque>
#include <mutex>
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
  /// measure the work in between. A `stats()` snapshot is taken under the
  /// pool's lock, so its fields are consistent with one another.
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
    PageRef(BufferPool* pool, uint32_t frame, Page* page, PageId id)
        : pool_(pool), frame_(frame), page_(page), id_(id) {}

    BufferPool* pool_ = nullptr;
    uint32_t frame_ = 0;
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

  /// Zeroes the global counters (not the per-thread ones). A convenience
  /// for tests and benches; prefer snapshot deltas, which need no reset.
  void ResetStats();

  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

  // A frame: a pointer to the store's own page, never a copy. A frame is
  // resident while the page table maps `id` to it, and sits in the LRU
  // list exactly when it is resident and unpinned.
  struct Frame {
    Page* page = nullptr;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    uint32_t prev = kNoFrame;  // LRU neighbours (toward least recent)
    uint32_t next = kNoFrame;  // (toward most recent)
  };

  // One thread's counters in this pool. Only that thread touches `stats`;
  // `thread` is written once, under slots_mu_. Cache-line sized so two
  // threads' slots never share a line.
  struct alignas(64) ThreadSlot {
    uint64_t thread = 0;
    Stats stats;
  };

  void Unpin(uint32_t frame);
  // The frame holding `id`, or kNoFrame. Caller must hold mu_.
  uint32_t FrameOf(PageId id) const {
    return id < table_.size() ? table_[id] : kNoFrame;
  }
  // Caller must hold mu_ for the LRU and frame helpers below.
  void LruAppend(uint32_t frame);
  void LruUnlink(uint32_t frame);
  // A free frame, evicting the least recently used unpinned one if need
  // be (and counting the eviction); kNoFrame when every frame is pinned.
  uint32_t GrabFrame(bool* evicted);
  // Makes `frame` resident for `page` and pins it.
  PageRef Pin(uint32_t frame, PageId id, Page* page);

  // The calling thread's counters, through a one-entry thread-local cache
  // keyed by serial_; a miss finds or adds the slot under slots_mu_.
  Stats& ThisThreadsStats() const;
  void CountForThisThread(bool miss, bool evicted, bool allocated);

  InMemoryPageStore* store_;
  size_t capacity_;
  const uint64_t serial_;  // process-unique; never reused by a later pool

  // mu_ guards frames_ metadata, free_frames_, the LRU ends, table_,
  // stats_, and all store calls. Page *contents* are read outside the lock
  // (see class comment). A miss only looks the page up in the in-memory
  // store, so this one mutex is all the frame bookkeeping needs.
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;  // reserved to capacity_ up front
  uint32_t lru_head_ = kNoFrame;       // least recently used
  uint32_t lru_tail_ = kNoFrame;       // most recently used
  std::vector<uint32_t> table_;        // PageId -> frame, kNoFrame if none
  Stats stats_;

  // slots_mu_ guards only the slot list, taken when a thread first
  // touches this pool after touching another.
  mutable std::mutex slots_mu_;
  mutable std::deque<ThreadSlot> slots_;  // stable addresses
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_BUFFER_POOL_H_
