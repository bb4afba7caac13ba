// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements ShardRouter (core/shard_router.h): checked fences,
// equal-width domain splits, data-balanced fence selection, and the fence
// math that routes keys and clips ranges.

#include "core/shard_router.h"

#include <algorithm>

#include "util/macros.h"

namespace sae::core {

ShardRouter::ShardRouter(std::vector<Key> fences)
    : fences_(std::move(fences)) {
  for (size_t i = 0; i < fences_.size(); ++i) {
    SAE_CHECK(fences_[i] != 0);
    SAE_CHECK(i == 0 || fences_[i - 1] < fences_[i]);
  }
}

size_t ShardRouter::ShardOf(Key key) const {
  return size_t(std::upper_bound(fences_.begin(), fences_.end(), key) -
                fences_.begin());
}

Key ShardRouter::shard_lo(size_t shard) const {
  SAE_CHECK(shard <= fences_.size());
  return shard == 0 ? 0 : fences_[shard - 1];
}

Key ShardRouter::shard_hi(size_t shard) const {
  SAE_CHECK(shard <= fences_.size());
  return shard == fences_.size() ? kMaxKey : fences_[shard] - 1;
}

std::vector<ShardRouter::Slice> ShardRouter::Partition(Key lo, Key hi) const {
  std::vector<Slice> slices;
  if (lo > hi) return slices;
  size_t first = ShardOf(lo);
  size_t last = ShardOf(hi);
  slices.reserve(last - first + 1);
  for (size_t s = first; s <= last; ++s) {
    slices.push_back(
        Slice{s, std::max(lo, shard_lo(s)), std::min(hi, shard_hi(s))});
  }
  return slices;
}

ShardRouter ShardRouter::EqualWidth(size_t shards, Key domain_max) {
  SAE_CHECK(shards >= 1);
  std::vector<Key> fences;
  fences.reserve(shards - 1);
  uint64_t width = (uint64_t(domain_max) + 1) / shards;
  if (width == 0) width = 1;
  for (size_t s = 1; s < shards; ++s) {
    uint64_t fence = uint64_t(s) * width;
    if (fence > domain_max) break;  // tiny domain: fewer shards than asked
    if (!fences.empty() && fences.back() >= Key(fence)) break;
    fences.push_back(Key(fence));
  }
  return ShardRouter(std::move(fences));
}

ShardRouter ShardRouter::Balanced(const std::vector<Record>& records,
                                  size_t shards) {
  SAE_CHECK(shards >= 1);
  std::vector<Key> keys;
  keys.reserve(records.size());
  for (const Record& record : records) keys.push_back(record.key);
  std::sort(keys.begin(), keys.end());
  std::vector<Key> fences;
  for (size_t s = 1; s < shards && !keys.empty(); ++s) {
    size_t idx = s * keys.size() / shards;
    if (idx >= keys.size()) break;
    Key fence = keys[idx];
    // Skip fences that would create a provably useless shard: zero or a
    // repeat of an earlier fence (duplicate-heavy data), or a fence at or
    // below the minimum key (the bottom shard would be empty). The router
    // degrades to fewer, still-correct shards.
    if (fence == 0 || fence <= keys.front() ||
        (!fences.empty() && fence <= fences.back())) {
      continue;
    }
    fences.push_back(fence);
  }
  return ShardRouter(std::move(fences));
}

}  // namespace sae::core
