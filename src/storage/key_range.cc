// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the shared fence-key partition math (storage/key_range.h).

#include "storage/key_range.h"

#include <algorithm>
#include <string>

#include "util/macros.h"

namespace sae::storage {

size_t ShardOfKey(const std::vector<Key>& fences, Key key) {
  return size_t(std::upper_bound(fences.begin(), fences.end(), key) -
                fences.begin());
}

Key ShardLowerBound(const std::vector<Key>& fences, size_t shard) {
  SAE_CHECK(shard <= fences.size());
  return shard == 0 ? 0 : fences[shard - 1];
}

Key ShardUpperBound(const std::vector<Key>& fences, size_t shard) {
  SAE_CHECK(shard <= fences.size());
  return shard == fences.size() ? kMaxShardKey : fences[shard] - 1;
}

std::vector<KeySlice> PartitionKeyRange(const std::vector<Key>& fences,
                                        Key lo, Key hi) {
  std::vector<KeySlice> slices;
  if (lo > hi) return slices;
  size_t first = ShardOfKey(fences, lo);
  size_t last = ShardOfKey(fences, hi);
  slices.reserve(last - first + 1);
  for (size_t s = first; s <= last; ++s) {
    slices.push_back(KeySlice{s, std::max(lo, ShardLowerBound(fences, s)),
                              std::min(hi, ShardUpperBound(fences, s))});
  }
  return slices;
}

Status VerifyKeyCover(const std::vector<Key>& fences, Key lo, Key hi,
                      const std::vector<KeySlice>& slices) {
  std::vector<KeySlice> expected = PartitionKeyRange(fences, lo, hi);
  if (slices.size() != expected.size()) {
    return Status::VerificationFailure(
        "answer covers " + std::to_string(slices.size()) +
        " shard slice(s), the fences require " +
        std::to_string(expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!(slices[i] == expected[i])) {
      return Status::VerificationFailure(
          "slice " + std::to_string(i) +
          " does not match the trusted fence partition (shard " +
          std::to_string(expected[i].shard) + " owns [" +
          std::to_string(expected[i].lo) + ", " +
          std::to_string(expected[i].hi) + "])");
    }
  }
  return Status::OK();
}

}  // namespace sae::storage
