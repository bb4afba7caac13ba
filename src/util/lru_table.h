// Copyright (c) saedb authors. Licensed under the MIT license.
//
// LruTable: the storage of every verified-path cache (the SP answer cache,
// the TE token memo, the client memos, the second-miss seen set and the
// hot-node caches). It maps a key to a value, keeps recency order, evicts
// the least recently used entry at a capacity, and counts what happens in
// one CacheStats. It is not thread-safe: the cache that owns it holds the
// lock, and keeps only its own hit test and admission rule.

#ifndef SAE_UTIL_LRU_TABLE_H_
#define SAE_UTIL_LRU_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace sae {

/// Counters of one cache. Snapshot by value and diff two snapshots to
/// measure the work in between (same pattern as BufferPool::Stats).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Misses whose value was not kept: a request's first miss, or a memo
  /// answer the client rejected or checked against an expired epoch. For
  /// honest traffic through an admitting cache insertions + declined ==
  /// misses; through a client memo on any traffic.
  uint64_t declined = 0;
  uint64_t insertions = 0;     ///< every Insert, a racing refill too
  uint64_t evictions = 0;      ///< capacity-driven LRU removals
  uint64_t invalidations = 0;  ///< entries dropped by Erase or Clear

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }

  friend CacheStats operator-(CacheStats a, const CacheStats& b) {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.declined -= b.declined;
    a.insertions -= b.insertions;
    a.evictions -= b.evictions;
    a.invalidations -= b.invalidations;
    return a;
  }
  CacheStats& operator+=(const CacheStats& b) {
    hits += b.hits;
    misses += b.misses;
    declined += b.declined;
    insertions += b.insertions;
    evictions += b.evictions;
    invalidations += b.invalidations;
    return *this;
  }
};

template <typename K, typename V, typename Hash = std::hash<K>>
class LruTable {
 public:
  /// A table of capacity 0 keeps nothing.
  explicit LruTable(size_t capacity) : capacity_(capacity) {}

  /// The value under `key` if there is one and `hit(value)` holds: counts
  /// a hit and makes `key` the most recent. Otherwise counts a miss and
  /// returns nullptr. The pointer is valid until the table next changes.
  template <typename HitTest>
  V* Lookup(const K& key, HitTest&& hit) {
    auto it = map_.find(key);
    if (it == map_.end() || !hit(std::as_const(it->second.value))) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second.pos);
    return &it->second.value;
  }
  V* Lookup(const K& key) {
    return Lookup(key, [](const V&) { return true; });
  }

  /// Stores `value` under `key` as the most recent entry, replacing the
  /// value already there; a new key at capacity first evicts the least
  /// recent one. Counts an insertion.
  void Insert(const K& key, V value) {
    if (capacity_ == 0) return;
    ++stats_.insertions;
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      order_.splice(order_.begin(), order_, it->second.pos);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(order_.back());
      order_.pop_back();
      ++stats_.evictions;
    }
    order_.push_front(key);
    map_.emplace(key, Slot{std::move(value), order_.begin()});
  }

  /// Drops `key`'s entry, counted as an invalidation; false if absent.
  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second.pos);
    map_.erase(it);
    ++stats_.invalidations;
    return true;
  }

  /// Drops every entry, each counted as an invalidation.
  void Clear() {
    stats_.invalidations += map_.size();
    map_.clear();
    order_.clear();
  }

  /// Counts a miss whose value the owner's admission rule did not keep.
  void CountDeclined() { ++stats_.declined; }

  const CacheStats& stats() const { return stats_; }
  size_t size() const { return map_.size(); }

 private:
  using Order = std::list<K>;
  struct Slot {
    V value;
    typename Order::iterator pos;
  };

  size_t capacity_;
  Order order_;  // front = most recent
  std::unordered_map<K, Slot, Hash> map_;
  CacheStats stats_;
};

}  // namespace sae

#endif  // SAE_UTIL_LRU_TABLE_H_
