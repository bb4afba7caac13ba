// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the epoch-keyed answer cache and its second-miss admission
// (core/answer_cache.h).

#include "core/answer_cache.h"

namespace sae::core {

size_t RequestHash::operator()(const dbms::QueryRequest& r) const {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(uint64_t(r.op));
  mix(r.lo);
  mix(r.hi);
  mix(r.limit);
  return size_t(h);
}

bool SeenRequests::RecordMiss(const dbms::QueryRequest& request) {
  auto it = index_.find(request);
  if (it != index_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  if (capacity_ == 0) return false;
  if (index_.size() >= capacity_) {
    index_.erase(order_.back());
    order_.pop_back();
  }
  order_.push_front(request);
  index_.emplace(request, order_.begin());
  return false;
}

AnswerCache::Key AnswerCache::Key::For(const dbms::QueryRequest& request,
                                       uint64_t epoch) {
  Key key;
  key.op = request.op;
  key.lo = request.lo;
  key.hi = request.hi;
  key.limit = request.limit;
  key.epoch = epoch;
  return key;
}

size_t AnswerCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key fields; cheap and stable.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(uint64_t(k.op));
  mix(uint64_t(k.lo));
  mix(uint64_t(k.hi));
  mix(uint64_t(k.limit));
  mix(k.epoch);
  return size_t(h);
}

AnswerCache::AnswerCache(const AnswerCacheOptions& options)
    : options_(options), seen_(options.max_entries) {}

std::shared_ptr<const CachedAnswer> AnswerCache::Lookup(const Key& key,
                                                        bool* admit) {
  if (admit != nullptr) *admit = false;
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    bool again =
        seen_.RecordMiss(dbms::QueryRequest{key.op, key.lo, key.hi, key.limit});
    if (!again) ++stats_.declined;
    if (admit != nullptr) *admit = again;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.value;
}

void AnswerCache::Insert(const Key& key,
                         std::shared_ptr<const CachedAnswer> value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.insertions;
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent readers may race to fill the same miss; last writer wins
    // (both computed the same honest bytes).
    it->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (map_.size() >= options_.max_entries) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(key);
  map_[key] = Entry{std::move(value), lru_.begin()};
}

void AnswerCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += map_.size();
  map_.clear();
  lru_.clear();
}

AnswerCacheStats AnswerCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace sae::core
