// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Range partitioning of the key space across N independent SP shards. The
// router is trusted configuration: the DO chooses the fence keys, ships
// them to every party, and clients use the same fences to address the
// shard(s) a query touches. Because the client itself clips the range
// along these fences, a stitched multi-shard answer tiles the query range
// by construction — the fence-key completeness argument of
// docs/SHARDING.md. Given ascending interior fences f_1 < ... < f_{N-1},
// shard s owns the half-open interval [f_s, f_{s+1}) with f_0 = 0 and
// f_N = 2^32, rendered inclusive as [shard_lo(s), shard_hi(s)], and
// adjacent shards abut with no gap (shard_hi(s) + 1 == shard_lo(s + 1)).

#ifndef SAE_CORE_SHARD_ROUTER_H_
#define SAE_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "storage/record.h"

namespace sae::core {

using storage::Key;
using storage::Record;

/// Routes keys and ranges to range-partitioned shards.
class ShardRouter {
 public:
  /// One shard's clipped, inclusive view of a query range.
  struct Slice {
    size_t shard = 0;
    Key lo = 0;
    Key hi = 0;

    friend bool operator==(const Slice& a, const Slice& b) {
      return a.shard == b.shard && a.lo == b.lo && a.hi == b.hi;
    }
  };

  static constexpr Key kMaxKey = ~Key{0};

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
  size_t ShardOf(Key key) const;

  /// Inclusive bounds of shard s: [shard_lo(s), shard_hi(s)].
  Key shard_lo(size_t shard) const;
  Key shard_hi(size_t shard) const;

  /// Clips [lo, hi] against the fences: one slice per shard the range
  /// overlaps, ascending by shard (therefore by key). Empty when lo > hi.
  std::vector<Slice> Partition(Key lo, Key hi) const;

 private:
  std::vector<Key> fences_;  // ascending interior fences
};

}  // namespace sae::core

#endif  // SAE_CORE_SHARD_ROUTER_H_
