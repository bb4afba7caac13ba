// Copyright (c) saedb authors. Licensed under the MIT license.
//
// HotNodeCache: a thread-safe memo of *parsed* tree nodes for the top K
// levels of a disk-based tree. The buffer-pool ablation shows the upper
// levels of the MB-/XB-trees cache perfectly — but even a pool hit still
// pays page parsing on every traversal. This cache keeps the decoded Node
// structs (digests included) for depths < hot_levels, so steady-state
// queries hash only the leaf frontier.
//
// Invalidation contract (what keeps a cached digest from going stale):
//   * every StoreNode on a mutation path invalidates its page id, and every
//     freed page is invalidated before reuse — precise, along the update
//     path only;
//   * Clear() drops everything (bulk load).
// Mutations hold the owning system's writer lock, so the cache only ever
// sees reader-reader concurrency plus exclusive writers; one internal mutex
// suffices. Entries are handed out as shared_ptr<const NodeT> so a reader
// keeps its node alive even if a capacity eviction races in.

#ifndef SAE_STORAGE_NODE_CACHE_H_
#define SAE_STORAGE_NODE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "storage/page.h"
#include "util/lru_table.h"

namespace sae::storage {

/// Counters of one HotNodeCache (util/lru_table.h); it keeps no answers,
/// so `declined` stays 0.
using NodeCacheStats = CacheStats;

struct NodeCacheOptions {
  size_t hot_levels = 2;     ///< cache nodes at depth < hot_levels (0 = off)
  size_t max_entries = 1024; ///< capacity backstop (hot sets are tiny)
};

template <typename NodeT>
class HotNodeCache {
 public:
  using Options = NodeCacheOptions;

  explicit HotNodeCache(const Options& options = {})
      : options_(options), table_(options.max_entries) {}

  bool enabled() const {
    return options_.hot_levels > 0 && options_.max_entries > 0;
  }
  /// Root is depth 0; only the top hot_levels levels are worth memoizing.
  bool Caches(size_t depth) const {
    return enabled() && depth < options_.hot_levels;
  }

  /// nullptr on miss or uncacheable depth. Hits refresh LRU position.
  std::shared_ptr<const NodeT> Lookup(PageId id, size_t depth) const {
    if (!Caches(depth)) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    const auto* hit = table_.Lookup(id);
    return hit == nullptr ? nullptr : *hit;
  }

  /// Takes ownership of `node` and returns a shared holder for the caller's
  /// own use; the cache keeps a reference only for cacheable depths. At
  /// capacity the least recently used node goes; the hot-level set is far
  /// below capacity in practice, and correctness never depends on what is
  /// cached.
  std::shared_ptr<const NodeT> Insert(PageId id, size_t depth, NodeT node) {
    auto holder = std::make_shared<const NodeT>(std::move(node));
    if (!Caches(depth)) return holder;
    std::lock_guard<std::mutex> lock(mu_);
    table_.Insert(id, holder);
    return holder;
  }

  /// Precise invalidation — call for every page a mutation rewrites/frees.
  void Invalidate(PageId id) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    table_.Erase(id);
  }

  /// Wholesale invalidation (bulk load).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    table_.Clear();
  }

  NodeCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.stats();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
  }

 private:
  Options options_;
  mutable std::mutex mu_;
  // mutable: const lookups count and refresh recency; mu_ guards it.
  mutable LruTable<PageId, std::shared_ptr<const NodeT>> table_;
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_NODE_CACHE_H_
