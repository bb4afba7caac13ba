// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the key and hash of the verified-path caches
// (core/answer_cache.h).

#include "core/answer_cache.h"

namespace sae::core {

AnswerKey AnswerKey::For(const dbms::QueryRequest& request, uint64_t epoch) {
  AnswerKey key;
  key.op = request.op;
  key.lo = request.lo;
  key.hi = request.hi;
  key.limit = request.limit;
  key.epoch = epoch;
  return key;
}

size_t RequestHash::operator()(const AnswerKey& key) const {
  // FNV-1a over the key fields; cheap and stable.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(uint64_t(key.op));
  mix(uint64_t(key.lo));
  mix(uint64_t(key.hi));
  mix(uint64_t(key.limit));
  mix(key.epoch);
  return size_t(h);
}

}  // namespace sae::core
