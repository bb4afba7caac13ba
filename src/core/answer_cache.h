// Copyright (c) saedb authors. Licensed under the MIT license.
//
// AnswerCache: an epoch-keyed LRU cache of *serialized* query responses at
// the service provider. The key embeds the epoch the answer speaks for, so
// an epoch bump invalidates every resident entry semantically (a stale key
// can never match a fresh query) and InvalidateAll() reclaims the memory
// wholesale. A request's answer is admitted only on its second miss
// (SeenRequests), so traffic that never repeats holds no answer buffer.
// The cache stores the exact wire bytes the SP would have sent (answer
// shipment, and under TOM the VO as well); a hit replays those bytes
// bit-for-bit, which is what the cache-parity harness verifies. The same
// EpochCache, holding a token digest instead, is the TE's token memo.
//
// The cache is never trusted: the client verifies every answer against the
// live TE token / root signature regardless of where the SP got the bytes.
// See docs/ARCHITECTURE.md §"Caching without trusting the cache".

#ifndef SAE_CORE_ANSWER_CACHE_H_
#define SAE_CORE_ANSWER_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dbms/query.h"
#include "storage/record.h"
#include "util/lru_table.h"

namespace sae::core {

struct AnswerCacheOptions {
  size_t max_entries = 1024;  ///< 0 disables the cache

  static AnswerCacheOptions Disabled() { return AnswerCacheOptions{0}; }
};

/// The counters of every answer cache and memo (util/lru_table.h).
using AnswerCacheStats = CacheStats;

/// The serialized response a cache entry replays: the operator answer
/// shipment (SerializeQueryAnswer bytes) and, under TOM, the VO bytes. It is
/// also the SP's unit of output: one immutable buffer, shared by the cache,
/// the in-process client and the socket, so no layer copies or re-encodes it.
struct CachedAnswer {
  std::vector<uint8_t> answer_msg;
  std::vector<uint8_t> proof_msg;  ///< empty for SAE's conventional SP
};

/// `served`'s answer shipment as a buffer that co-owns `served`: what
/// DeserializeQueryAnswer decodes in place.
inline std::shared_ptr<const std::vector<uint8_t>> AnswerBytesOf(
    const std::shared_ptr<const CachedAnswer>& served) {
  return {served, &served->answer_msg};
}

/// (range, op, top-k limit, epoch): everything that determines the honest
/// response bytes.
struct AnswerKey {
  dbms::QueryOp op = dbms::QueryOp::kScan;
  storage::Key lo = 0;
  storage::Key hi = 0;
  uint32_t limit = 0;
  uint64_t epoch = 0;

  static AnswerKey For(const dbms::QueryRequest& request, uint64_t epoch);

  friend bool operator==(const AnswerKey& a, const AnswerKey& b) {
    return a.op == b.op && a.lo == b.lo && a.hi == b.hi &&
           a.limit == b.limit && a.epoch == b.epoch;
  }
};

/// The one hash of every verified-path cache key: a request (seen set,
/// client memos) hashes as its key at epoch 0.
struct RequestHash {
  size_t operator()(const AnswerKey& key) const;
  size_t operator()(const dbms::QueryRequest& request) const {
    return (*this)(AnswerKey::For(request, 0));
  }
};

/// Second-miss admission, shared by the SP answer cache, the TE token memo
/// and both client memos: the keys of the last `capacity` distinct requests
/// that missed, without their answers (about 100 B each). A cache inserts an
/// answer only when its request is already here, i.e. on the request's
/// second miss, so traffic that never repeats pins no answer buffer. The
/// keys carry no epoch: a hot request whose entry an epoch bump dropped is
/// re-admitted on its first miss after the bump. When full, the request
/// whose last miss is oldest goes first. Not thread-safe: the owning
/// cache's lock guards it.
class SeenRequests {
 public:
  explicit SeenRequests(size_t capacity) : table_(capacity) {}

  /// Records a miss of `request`; true when it had missed before and is
  /// still remembered.
  bool RecordMiss(const dbms::QueryRequest& request) {
    if (table_.Lookup(request) != nullptr) return true;
    table_.Insert(request, true);
    return false;
  }

 private:
  LruTable<dbms::QueryRequest, bool, RequestHash> table_;  // keys only
};

/// An epoch-keyed LRU cache with second-miss admission: the SP answer cache
/// (V = the served buffer) and the TE token memo (V = the token digest, as
/// an optional so a miss has a value). Its hit test is the epoch in the key.
/// Thread-safe; every call takes the lock once.
template <typename V>
class EpochCache {
 public:
  using Key = AnswerKey;

  explicit EpochCache(const AnswerCacheOptions& options = {})
      : options_(options),
        table_(options.max_entries),
        seen_(options.max_entries) {}

  bool enabled() const { return options_.max_entries > 0; }

  /// V{} on miss (or when disabled). Hits refresh LRU position. On a miss
  /// `*admit` (if given) says whether the request had missed before: only
  /// then should the caller Insert the value it computes.
  V Lookup(const Key& key, bool* admit = nullptr) {
    if (admit != nullptr) *admit = false;
    if (!enabled()) return V{};
    std::lock_guard<std::mutex> lock(mu_);
    if (const V* hit = table_.Lookup(key)) return *hit;
    bool again =
        seen_.RecordMiss(dbms::QueryRequest{key.op, key.lo, key.hi, key.limit});
    if (!again) table_.CountDeclined();
    if (admit != nullptr) *admit = again;
    return V{};
  }

  /// Stores `value`; a later hit returns a copy of it (for the SP, the
  /// shared buffer itself). Unconditional: admission is decided by Lookup.
  /// Concurrent readers may race to fill the same miss; last writer wins
  /// (both computed the same honest bytes).
  void Insert(const Key& key, V value) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    table_.Insert(key, std::move(value));
  }

  /// The epoch-bump hook: drops every resident entry. (Keys are epoch-
  /// stamped so retained entries could never hit again anyway — this
  /// reclaims their memory immediately.) The seen requests stay.
  void InvalidateAll() {
    std::lock_guard<std::mutex> lock(mu_);
    table_.Clear();
  }

  AnswerCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.stats();
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
  }

 private:
  AnswerCacheOptions options_;
  mutable std::mutex mu_;
  LruTable<Key, V, RequestHash> table_;
  SeenRequests seen_;
};

using AnswerCache = EpochCache<std::shared_ptr<const CachedAnswer>>;

}  // namespace sae::core

#endif  // SAE_CORE_ANSWER_CACHE_H_
