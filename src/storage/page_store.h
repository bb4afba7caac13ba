// Copyright (c) saedb authors. Licensed under the MIT license.
//
// InMemoryPageStore: the page-granular store under every BufferPool. Pages
// live on the heap and the pool reads and writes them in place, so disk
// latency is modeled exclusively by the paper's 10 ms/node-access charge
// instead of the host machine's SSD. Nothing is
// re-attached from it after a restart: durability is the WAL plus the
// snapshot chain (core/durability.h), and recovery bulk-loads the
// checkpointed records into fresh stores.

#ifndef SAE_STORAGE_PAGE_STORE_H_
#define SAE_STORAGE_PAGE_STORE_H_

#include <memory>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace sae::storage {

/// Heap-backed page storage with an allocate/free life cycle.
class InMemoryPageStore {
 public:
  /// Allocates a zeroed page and returns its id (may reuse freed pages).
  Result<PageId> Allocate();

  /// Returns a page to the free list. Freeing an unallocated page is an
  /// error.
  Status Free(PageId id);

  /// The page itself, or nullptr when `id` is not allocated. The address
  /// stays valid until the page is freed.
  Page* PageAt(PageId id) { return IsLive(id) ? pages_[id].get() : nullptr; }

  /// Pages currently allocated (live), excluding freed ones.
  size_t LivePageCount() const { return live_count_; }

  /// Total footprint in bytes (live pages * page size).
  size_t SizeBytes() const { return live_count_ * kPageSize; }

 private:
  bool IsLive(PageId id) const {
    return id < pages_.size() && pages_[id] != nullptr;
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_list_;
  size_t live_count_ = 0;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_PAGE_STORE_H_
