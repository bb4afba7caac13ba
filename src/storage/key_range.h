// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Fence-key range partitioning of a sharded key space, the math behind
// core::ShardRouter's routing and its cover check on a stitched answer:
// given ascending interior fences f_1 < ... < f_{N-1}, shard s owns the
// half-open interval [f_s, f_{s+1}) with f_0 = 0 and f_N = 2^32, rendered
// inclusive as [ShardLowerBound(s), ShardUpperBound(s)].

#ifndef SAE_STORAGE_KEY_RANGE_H_
#define SAE_STORAGE_KEY_RANGE_H_

#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace sae::storage {

/// One shard's clipped, inclusive view of a query range.
struct KeySlice {
  size_t shard = 0;
  Key lo = 0;
  Key hi = 0;

  friend bool operator==(const KeySlice& a, const KeySlice& b) {
    return a.shard == b.shard && a.lo == b.lo && a.hi == b.hi;
  }
};

inline constexpr Key kMaxShardKey = ~Key{0};

/// The shard owning `key` under the given ascending interior fences.
size_t ShardOfKey(const std::vector<Key>& fences, Key key);

/// Inclusive bounds of shard s (s <= fences.size()).
Key ShardLowerBound(const std::vector<Key>& fences, size_t shard);
Key ShardUpperBound(const std::vector<Key>& fences, size_t shard);

/// Clips [lo, hi] against the fences: one slice per overlapped shard,
/// ascending by shard and therefore by key. Empty when lo > hi.
std::vector<KeySlice> PartitionKeyRange(const std::vector<Key>& fences,
                                        Key lo, Key hi);

/// Tiling check on a stitched answer: the slices must equal
/// PartitionKeyRange(fences, lo, hi) — same shards, same clipped bounds,
/// no gap, overlap, or fence violation. An SP hiding a shard's
/// contribution, serving one twice, or moving a fence to swallow a
/// neighbour's keys fails here before any cryptography runs.
Status VerifyKeyCover(const std::vector<Key>& fences, Key lo, Key hi,
                      const std::vector<KeySlice>& slices);

}  // namespace sae::storage

#endif  // SAE_STORAGE_KEY_RANGE_H_
