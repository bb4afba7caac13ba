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
// bit-for-bit, which is what the cache-parity harness verifies.
//
// The cache is never trusted: the client verifies every answer against the
// live TE token / root signature regardless of where the SP got the bytes.
// See docs/ARCHITECTURE.md §"Caching without trusting the cache".

#ifndef SAE_CORE_ANSWER_CACHE_H_
#define SAE_CORE_ANSWER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dbms/query.h"
#include "storage/record.h"

namespace sae::core {

struct AnswerCacheOptions {
  size_t max_entries = 1024;  ///< 0 disables the cache

  static AnswerCacheOptions Disabled() { return AnswerCacheOptions{0}; }
};

/// Counters of one AnswerCache; snapshot by value, diff to measure a span
/// (same pattern as BufferPool::Stats).
struct AnswerCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Misses whose answer was not kept: a request's first miss, or a memo
  /// answer checked against an expired epoch. For honest traffic
  /// insertions + declined == misses.
  uint64_t declined = 0;
  uint64_t insertions = 0;     ///< every Insert, a racing refill too
  uint64_t evictions = 0;      ///< capacity-driven LRU removals
  uint64_t invalidations = 0;  ///< entries dropped by InvalidateAll

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }

  friend AnswerCacheStats operator-(AnswerCacheStats a,
                                    const AnswerCacheStats& b) {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.declined -= b.declined;
    a.insertions -= b.insertions;
    a.evictions -= b.evictions;
    a.invalidations -= b.invalidations;
    return a;
  }
  AnswerCacheStats& operator+=(const AnswerCacheStats& b) {
    hits += b.hits;
    misses += b.misses;
    declined += b.declined;
    insertions += b.insertions;
    evictions += b.evictions;
    invalidations += b.invalidations;
    return *this;
  }
};

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

struct RequestHash {
  size_t operator()(const dbms::QueryRequest& r) const;
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
  explicit SeenRequests(size_t capacity) : capacity_(capacity) {}

  /// Records a miss of `request`; true when it had missed before and is
  /// still remembered.
  bool RecordMiss(const dbms::QueryRequest& request);

 private:
  using Order = std::list<dbms::QueryRequest>;

  size_t capacity_;
  Order order_;  // front = latest miss
  std::unordered_map<dbms::QueryRequest, Order::iterator, RequestHash> index_;
};

class AnswerCache {
 public:
  /// (range, op, top-k limit, epoch) — everything that determines the
  /// honest response bytes.
  struct Key {
    dbms::QueryOp op = dbms::QueryOp::kScan;
    storage::Key lo = 0;
    storage::Key hi = 0;
    uint32_t limit = 0;
    uint64_t epoch = 0;

    static Key For(const dbms::QueryRequest& request, uint64_t epoch);

    friend bool operator==(const Key& a, const Key& b) {
      return a.op == b.op && a.lo == b.lo && a.hi == b.hi &&
             a.limit == b.limit && a.epoch == b.epoch;
    }
  };

  explicit AnswerCache(const AnswerCacheOptions& options = {});

  bool enabled() const { return options_.max_entries > 0; }

  /// nullptr on miss (or when disabled). Hits refresh LRU position. On a
  /// miss `*admit` (if given) says whether the request had missed before:
  /// only then should the caller Insert the answer it computes.
  std::shared_ptr<const CachedAnswer> Lookup(const Key& key,
                                             bool* admit = nullptr);

  /// Stores the shared buffer itself; a later hit returns this pointer.
  /// Unconditional: admission is decided by Lookup.
  void Insert(const Key& key, std::shared_ptr<const CachedAnswer> value);

  /// The epoch-bump hook: drops every resident entry. (Keys are epoch-
  /// stamped so retained entries could never hit again anyway — this
  /// reclaims their memory immediately.) The seen requests stay.
  void InvalidateAll();

  AnswerCacheStats stats() const;
  size_t size() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const CachedAnswer> value;
    std::list<Key>::iterator lru_pos;
  };

  AnswerCacheOptions options_;
  mutable std::mutex mu_;
  std::list<Key> lru_;  // front = most recent
  std::unordered_map<Key, Entry, KeyHash> map_;
  SeenRequests seen_;
  AnswerCacheStats stats_;
};

}  // namespace sae::core

#endif  // SAE_CORE_ANSWER_CACHE_H_
