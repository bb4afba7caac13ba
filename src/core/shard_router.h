// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Range partitioning of the key space across N independent SP shards. The
// router is trusted configuration: the DO chooses the fence keys, ships
// them to every party, and clients use the same fences to (a) address the
// shard(s) a query touches and (b) check that a stitched multi-shard
// answer tiles the query range exactly — the fence-key completeness
// argument of docs/SHARDING.md. The fence math itself lives in
// storage/key_range.h: shard s owns the half-open fence interval
// [fence_{s-1}, fence_s), rendered inclusive as [shard_lo(s),
// shard_hi(s)], and adjacent shards abut with no gap
// (shard_hi(s) + 1 == shard_lo(s + 1)).

#ifndef SAE_CORE_SHARD_ROUTER_H_
#define SAE_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "storage/key_range.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::core {

using storage::Key;
using storage::Record;

/// Routes keys and ranges to range-partitioned shards.
class ShardRouter {
 public:
  /// One shard's clipped view of a query.
  using Slice = storage::KeySlice;

  /// Builds a router from ascending interior fence keys; N shards need
  /// N - 1 fences (none = one shard owning the whole key space). Fences
  /// must be strictly increasing and non-zero (a zero fence would make
  /// shard 0 empty by construction).
  explicit ShardRouter(std::vector<Key> fences = {});

  /// Splits the key domain [0, domain_max] into `shards` equal-width
  /// ranges (the last shard also owns everything above domain_max).
  static ShardRouter EqualWidth(size_t shards, Key domain_max = kMaxKey);

  /// Chooses fences that balance `records` across `shards` (equal-count
  /// partition of the observed key distribution). Duplicate keys never
  /// straddle a fence; fewer shards result when distinct keys run out.
  static ShardRouter Balanced(const std::vector<Record>& records,
                              size_t shards);

  size_t num_shards() const { return fences_.size() + 1; }
  const std::vector<Key>& fences() const { return fences_; }

  /// The shard owning `key`.
  size_t ShardOf(Key key) const { return storage::ShardOfKey(fences_, key); }

  /// Inclusive bounds of shard s: [shard_lo(s), shard_hi(s)].
  Key shard_lo(size_t shard) const {
    return storage::ShardLowerBound(fences_, shard);
  }
  Key shard_hi(size_t shard) const {
    return storage::ShardUpperBound(fences_, shard);
  }

  /// Clips [lo, hi] against the fences: one slice per shard the range
  /// overlaps, ascending by shard (therefore by key). Empty when lo > hi.
  std::vector<Slice> Partition(Key lo, Key hi) const {
    return storage::PartitionKeyRange(fences_, lo, hi);
  }

  /// Structural check on a stitched answer (ShardedSystem::ExecuteQuery):
  /// the slices must tile [lo, hi] exactly along the trusted fences (see
  /// storage::VerifyKeyCover).
  Status VerifyCover(Key lo, Key hi, const std::vector<Slice>& slices) const {
    return storage::VerifyKeyCover(fences_, lo, hi, slices);
  }

  static constexpr Key kMaxKey = storage::kMaxShardKey;

 private:
  std::vector<Key> fences_;  // ascending interior fences
};

}  // namespace sae::core

#endif  // SAE_CORE_SHARD_ROUTER_H_
