// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the LRU BufferPool (storage/buffer_pool.h) and its logical
// node-access / frame-miss counters — the paper's cost instrumentation.
// Frames point at the store's pages, so no page is ever copied.
// One mutex guards all frame bookkeeping; counters are atomic and also
// mirrored into per-thread slots so workers can attribute accesses to the
// query they are running without touching shared mutable state.

#include "storage/buffer_pool.h"

#include "util/macros.h"

namespace sae::storage {

namespace {

// Per-(thread, pool) counters, keyed by pool address. Entries of destroyed
// pools are never erased; callers only consume snapshot *deltas*, so a
// stale base value from a recycled address cancels out.
thread_local std::unordered_map<const void*, BufferPool::Stats>
    t_pool_stats;

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
    : store_(store), capacity_(capacity) {
  SAE_CHECK(capacity_ >= 4);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = capacity_; i-- > 0;) free_frames_.push_back(i);
}

void BufferPool::CountAccess(bool miss) {
  accesses_.fetch_add(1, std::memory_order_relaxed);
  Stats& tls = t_pool_stats[this];
  ++tls.accesses;
  if (miss) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++tls.misses;
  }
}

void BufferPool::CountEviction() {
  evictions_.fetch_add(1, std::memory_order_relaxed);
  ++t_pool_stats[this].evictions;
}

void BufferPool::CountAllocation() {
  allocations_.fetch_add(1, std::memory_order_relaxed);
  ++t_pool_stats[this].allocations;
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.accesses = accesses_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  return s;
}

BufferPool::Stats BufferPool::ThreadStats() const {
  auto it = t_pool_stats.find(this);
  return it == t_pool_stats.end() ? Stats{} : it->second;
}

void BufferPool::ResetStats() {
  accesses_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  allocations_.store(0, std::memory_order_relaxed);
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  SAE_CHECK(f.in_use && f.pin_count > 0);
  if (--f.pin_count == 0) {
    lru_.push_back(frame);
    f.lru_pos = std::prev(lru_.end());
    f.in_lru = true;
  }
}

Result<size_t> BufferPool::GrabFrame(bool* evicted) {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (lru_.empty()) {
    return Status::OutOfRange("all buffer frames pinned");
  }
  size_t victim = lru_.front();
  lru_.pop_front();
  Frame& f = frames_[victim];
  f.in_lru = false;
  table_.erase(f.id);
  f.in_use = false;
  *evicted = true;
  return victim;
}

BufferPool::PageRef BufferPool::Pin(size_t frame, PageId id, Page* page) {
  Frame& f = frames_[frame];
  f.page = page;
  f.id = id;
  f.pin_count = 1;
  f.in_use = true;
  f.in_lru = false;
  table_[id] = frame;
  return PageRef(this, frame, page, id);
}

Result<BufferPool::PageRef> BufferPool::Fetch(PageId id) {
  bool miss = false;
  bool evicted = false;
  Result<PageRef> result = [&]() -> Result<PageRef> {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(id);
    if (it != table_.end()) {
      Frame& f = frames_[it->second];
      if (f.pin_count == 0 && f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
      ++f.pin_count;
      return PageRef(this, it->second, f.page, id);
    }

    miss = true;
    SAE_ASSIGN_OR_RETURN(size_t frame, GrabFrame(&evicted));
    Page* page = store_->PageAt(id);
    if (page == nullptr) {
      free_frames_.push_back(frame);
      return Status::InvalidArgument("reading unallocated page");
    }
    return Pin(frame, id, page);
  }();
  CountAccess(miss);
  if (evicted) CountEviction();
  return result;
}

Result<BufferPool::PageRef> BufferPool::New() {
  bool evicted = false;
  Result<PageRef> result = [&]() -> Result<PageRef> {
    std::lock_guard<std::mutex> lock(mu_);
    SAE_ASSIGN_OR_RETURN(PageId id, store_->Allocate());
    SAE_ASSIGN_OR_RETURN(size_t frame, GrabFrame(&evicted));
    return Pin(frame, id, store_->PageAt(id));
  }();
  CountAccess(/*miss=*/false);
  CountAllocation();
  if (evicted) CountEviction();
  return result;
}

Status BufferPool::Free(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    if (f.pin_count > 0) {
      return Status::InvalidArgument("freeing a pinned page");
    }
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.in_use = false;
    free_frames_.push_back(it->second);
    table_.erase(it);
  }
  return store_->Free(id);
}

}  // namespace sae::storage
