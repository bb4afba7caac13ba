// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the LRU BufferPool (storage/buffer_pool.h) and its logical
// node-access / frame-miss counters — the paper's cost instrumentation.
// Frames point at the store's pages, so no page is ever copied. The LRU
// list is threaded through the frame array and the page table is a vector
// indexed by the store's dense page ids, so the bookkeeping under the one
// mutex is index arithmetic; the global counters are plain fields updated
// under that same mutex. Per-thread counters live in per-pool slots that a
// thread reaches through a one-entry thread-local cache.

#include "storage/buffer_pool.h"

#include <algorithm>
#include <atomic>

#include "util/macros.h"

namespace sae::storage {

namespace {

// Process-unique ids for pools and threads. A pool's serial is never
// reused, so a pool built where a destroyed one lived starts its per-thread
// counts at zero.
std::atomic<uint64_t> g_next_serial{1};

uint64_t NextSerial() {
  return g_next_serial.fetch_add(1, std::memory_order_relaxed);
}

// The calling thread's id (0 until first needed) and the last pool whose
// counters it touched.
thread_local uint64_t t_thread = 0;
struct CachedSlot {
  uint64_t pool = 0;
  BufferPool::Stats* stats = nullptr;
};
thread_local CachedSlot t_cached;

}  // namespace

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }
  return *this;
}

Page& BufferPool::PageRef::Mutable() {
  SAE_CHECK(valid());
  return *page_;
}

const Page& BufferPool::PageRef::Get() const {
  SAE_CHECK(valid());
  return *page_;
}

void BufferPool::PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(InMemoryPageStore* store, size_t capacity)
    : store_(store), capacity_(capacity), serial_(NextSerial()) {
  SAE_CHECK(capacity_ >= 4 && capacity_ < kNoFrame);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = capacity_; i-- > 0;) free_frames_.push_back(uint32_t(i));
}

BufferPool::Stats& BufferPool::ThisThreadsStats() const {
  if (t_cached.pool != serial_) {
    if (t_thread == 0) t_thread = NextSerial();
    std::lock_guard<std::mutex> lock(slots_mu_);
    auto it = std::find_if(slots_.begin(), slots_.end(), [](const auto& s) {
      return s.thread == t_thread;
    });
    ThreadSlot& slot = it != slots_.end()
                           ? *it
                           : slots_.emplace_back(ThreadSlot{t_thread, {}});
    t_cached = CachedSlot{serial_, &slot.stats};
  }
  return *t_cached.stats;
}

void BufferPool::CountForThisThread(bool miss, bool evicted, bool allocated) {
  Stats& mine = ThisThreadsStats();
  ++mine.accesses;
  mine.misses += miss;
  mine.evictions += evicted;
  mine.allocations += allocated;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BufferPool::Stats BufferPool::ThreadStats() const {
  return ThisThreadsStats();
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

void BufferPool::LruAppend(uint32_t frame) {
  Frame& f = frames_[frame];
  f.prev = lru_tail_;
  f.next = kNoFrame;
  if (lru_tail_ == kNoFrame) {
    lru_head_ = frame;
  } else {
    frames_[lru_tail_].next = frame;
  }
  lru_tail_ = frame;
}

void BufferPool::LruUnlink(uint32_t frame) {
  Frame& f = frames_[frame];
  if (f.prev == kNoFrame) {
    lru_head_ = f.next;
  } else {
    frames_[f.prev].next = f.next;
  }
  if (f.next == kNoFrame) {
    lru_tail_ = f.prev;
  } else {
    frames_[f.next].prev = f.prev;
  }
}

void BufferPool::Unpin(uint32_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  SAE_CHECK(f.pin_count > 0);
  if (--f.pin_count == 0) LruAppend(frame);
}

uint32_t BufferPool::GrabFrame(bool* evicted) {
  if (!free_frames_.empty()) {
    uint32_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  uint32_t victim = lru_head_;
  if (victim == kNoFrame) return kNoFrame;
  LruUnlink(victim);
  table_[frames_[victim].id] = kNoFrame;
  ++stats_.evictions;
  *evicted = true;
  return victim;
}

BufferPool::PageRef BufferPool::Pin(uint32_t frame, PageId id, Page* page) {
  // The table grows only when the store's page-id space outgrows it.
  if (id >= table_.size()) {
    table_.resize(std::max<size_t>(size_t(id) + 1, 2 * table_.size()),
                  kNoFrame);
  }
  table_[id] = frame;
  Frame& f = frames_[frame];
  f.page = page;
  f.id = id;
  f.pin_count = 1;
  return PageRef(this, frame, page, id);
}

Result<BufferPool::PageRef> BufferPool::Fetch(PageId id) {
  bool miss = false;
  bool evicted = false;
  Result<PageRef> result = [&]() -> Result<PageRef> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accesses;
    uint32_t frame = FrameOf(id);
    if (frame != kNoFrame) {
      Frame& f = frames_[frame];
      if (f.pin_count++ == 0) LruUnlink(frame);
      return PageRef(this, frame, f.page, id);
    }

    miss = true;
    ++stats_.misses;
    frame = GrabFrame(&evicted);
    if (frame == kNoFrame) {
      return Status::OutOfRange("all buffer frames pinned");
    }
    Page* page = store_->PageAt(id);
    if (page == nullptr) {
      free_frames_.push_back(frame);
      return Status::InvalidArgument("reading unallocated page");
    }
    return Pin(frame, id, page);
  }();
  CountForThisThread(miss, evicted, /*allocated=*/false);
  return result;
}

Result<BufferPool::PageRef> BufferPool::New() {
  bool evicted = false;
  Result<PageRef> result = [&]() -> Result<PageRef> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accesses;
    ++stats_.allocations;
    SAE_ASSIGN_OR_RETURN(PageId id, store_->Allocate());
    uint32_t frame = GrabFrame(&evicted);
    if (frame == kNoFrame) {
      SAE_CHECK_OK(store_->Free(id));  // give the page back: no leak
      return Status::OutOfRange("all buffer frames pinned");
    }
    return Pin(frame, id, store_->PageAt(id));
  }();
  CountForThisThread(/*miss=*/false, evicted, /*allocated=*/true);
  return result;
}

Status BufferPool::Free(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t frame = FrameOf(id);
  if (frame != kNoFrame) {
    if (frames_[frame].pin_count > 0) {
      return Status::InvalidArgument("freeing a pinned page");
    }
    LruUnlink(frame);
    table_[id] = kNoFrame;
    free_frames_.push_back(frame);
  }
  return store_->Free(id);
}

}  // namespace sae::storage
