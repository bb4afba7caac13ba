// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements InMemoryPageStore (storage/page_store.h): heap-allocated pages
// with free-list reuse.

#include "storage/page_store.h"

namespace sae::storage {

Result<PageId> InMemoryPageStore::Allocate() {
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    pages_[id] = std::make_unique<Page>();
  } else {
    id = static_cast<PageId>(pages_.size());
    if (id == kInvalidPageId) {
      return Status::OutOfRange("page id space exhausted");
    }
    pages_.push_back(std::make_unique<Page>());
  }
  ++live_count_;
  return id;
}

Status InMemoryPageStore::Free(PageId id) {
  if (!IsLive(id)) {
    return Status::InvalidArgument("freeing unallocated page");
  }
  pages_[id].reset();
  free_list_.push_back(id);
  --live_count_;
  return Status::OK();
}

}  // namespace sae::storage
