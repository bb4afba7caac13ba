// Copyright (c) saedb authors. Licensed under the MIT license.
//
// MB-Tree: the state-of-the-art ADS for disk-based range authentication
// (Li et al., SIGMOD'06), as the paper summarizes it in §I. A B+-tree where
// every leaf entry carries H(record) and every internal entry carries the
// digest of the child page's concatenated digests; the DO signs the root
// digest.
//
// Node format (4096-byte pages):
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64, digest 20B)            -> 32 B/entry
//   internal: (child0 u32, digest0 20B), count x (key u32, child u32,
//              digest 20B)                                      -> 28 B/entry
//
// The digest payload shrinks fanout to 127 (leaf) / 144+1 (internal) versus
// the plain B+-tree's 340 / 509+1 — the root cause of TOM's higher SP cost
// in Fig. 6 and larger index in Fig. 8.

#ifndef SAE_MBTREE_MB_TREE_H_
#define SAE_MBTREE_MB_TREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/digest.h"
#include "mbtree/vo.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::mbtree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::Rid;

/// A leaf posting: key, record location, record digest.
struct MbEntry {
  Key key;
  Rid rid;
  crypto::Digest digest;
};

/// Fanout overrides for tests (0 = derive from page size).
struct MbTreeOptions {
  size_t max_leaf_entries = 0;
  size_t max_internal_keys = 0;
  crypto::HashScheme scheme = crypto::HashScheme::kSha1;
  /// Hot-level digest cache: parsed nodes at depth < hot_cache_levels are
  /// memoized and invalidated precisely along every update path, so
  /// steady-state traversals only parse (and hash over) the leaf frontier.
  /// 0 disables the cache entirely.
  size_t hot_cache_levels = 2;
  size_t hot_cache_entries = 1024;
};

/// Merkle B+-tree. Same structural behaviour as btree::BPlusTree plus digest
/// maintenance on every mutation. Const methods (RangeSearch, BuildVo,
/// Validate) are safe to call from many threads over a thread-safe
/// BufferPool; mutations require exclusive access to the tree.
class MbTree {
 public:
  static Result<std::unique_ptr<MbTree>> Create(
      BufferPool* pool, const MbTreeOptions& options = {});

  /// Inserts a posting, updating digests along the path.
  Status Insert(const MbEntry& entry);

  /// Removes the posting (key, rid); NotFound if absent.
  Status Delete(Key key, Rid rid);

  /// Bottom-up bulk load from key-sorted postings into an empty tree.
  Status BulkLoad(const std::vector<MbEntry>& sorted, double fill = 1.0);

  /// Plain range search (no VO) — what the SP uses to locate result rids.
  Status RangeSearch(Key lo, Key hi, std::vector<MbEntry>* out) const;

  /// Fetches a record's canonical bytes given its rid — supplied by the SP
  /// so boundary records are pulled from the (access-counted) dataset file.
  using RecordFetcher =
      std::function<Result<std::vector<uint8_t>>(Rid)>;

  /// Builds the covering-subtree VO for [lo, hi] (paper §I). The signature
  /// field is left empty; the SP attaches the DO's current root signature.
  Result<VerificationObject> BuildVo(Key lo, Key hi,
                                     const RecordFetcher& fetch) const;

  /// Current root digest (the value the DO signs).
  const crypto::Digest& root_digest() const { return root_digest_; }

  size_t size() const { return entry_count_; }
  size_t node_count() const { return node_count_; }
  size_t height() const { return height_; }
  size_t SizeBytes() const { return node_count_ * storage::kPageSize; }
  size_t max_leaf_entries() const { return max_leaf_; }
  size_t max_internal_keys() const { return max_internal_; }

  /// Hot-level node cache counters (hits/misses/invalidations/evictions);
  /// snapshot by value, diff to measure a span.
  storage::NodeCacheStats digest_cache_stats() const {
    return node_cache_.stats();
  }

  /// Structural + digest-consistency check. Test hook; O(n).
  Status Validate() const;

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    std::vector<Rid> rids;                  // leaf
    std::vector<PageId> children;           // internal: keys.size() + 1
    std::vector<crypto::Digest> digests;    // leaf: per key; internal:
                                            // per child (keys.size() + 1)
    PageId next = storage::kInvalidPageId;
  };

  MbTree(BufferPool* pool, size_t max_leaf, size_t max_internal,
         crypto::HashScheme scheme,
         const storage::NodeCacheOptions& cache_options = {})
      : pool_(pool),
        max_leaf_(max_leaf),
        max_internal_(max_internal),
        scheme_(scheme),
        node_cache_(cache_options) {}

  Result<Node> LoadNode(PageId id) const;
  /// Depth-aware load: serves hot levels (depth < hot_cache_levels, root at
  /// depth 0) from the digest cache, filling it on miss.
  Result<std::shared_ptr<const Node>> LoadNodeCached(PageId id,
                                                     size_t depth) const;
  Status StoreNode(PageId id, const Node& node);
  Result<PageId> NewNode(const Node& node);

  crypto::Digest NodeDigest(const Node& node) const;

  struct SplitResult {
    Key separator;
    PageId right_page;
    crypto::Digest right_digest;
  };

  // Inserts into subtree; `self_digest` returns the node's new digest.
  Status InsertRec(PageId page, const MbEntry& entry,
                   std::optional<SplitResult>* split,
                   crypto::Digest* self_digest);

  Status DeleteRec(PageId page, Key key, Rid rid, bool* underflow,
                   crypto::Digest* self_digest);

  Status FixUnderflow(Node* parent, size_t child_idx);

  size_t MinOccupancy(const Node& node) const;

  Result<std::optional<MbEntry>> Predecessor(Key lo) const;
  Result<std::optional<MbEntry>> Successor(Key hi) const;
  Result<std::optional<MbEntry>> PredecessorRec(PageId page, size_t depth,
                                                Key lo) const;
  Result<std::optional<MbEntry>> SuccessorRec(PageId page, size_t depth,
                                              Key hi) const;

  Status BuildVoRec(PageId page, size_t depth, Key lo, Key hi,
                    const std::optional<MbEntry>& left_boundary,
                    const std::optional<MbEntry>& right_boundary,
                    const RecordFetcher& fetch, VoNode* out) const;

  Status ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                     std::optional<Key> hi, size_t* leaf_depth,
                     size_t* entries, size_t* nodes,
                     crypto::Digest* digest) const;

  BufferPool* pool_;
  size_t max_leaf_;
  size_t max_internal_;
  crypto::HashScheme scheme_;
  PageId root_ = storage::kInvalidPageId;
  crypto::Digest root_digest_;
  size_t entry_count_ = 0;
  size_t node_count_ = 0;
  size_t height_ = 1;
  mutable storage::HotNodeCache<Node> node_cache_;
};

}  // namespace sae::mbtree

#endif  // SAE_MBTREE_MB_TREE_H_
