// Copyright (c) saedb authors. Licensed under the MIT license.
//
// XB-Tree (XOR B-Tree) — the paper's core contribution (§III). The trusted
// entity indexes tuples t = <id, a, h = H(record)> so that the verification
// token VT (the XOR of the digests of all tuples with a in [ql, qu]) is
// computable in O(log n) node accesses, independent of the result size.
//
// Structure: a B-tree over *distinct* search keys. Every node starts with an
// anchor entry e0 = <X, c> (no key, no duplicate list; X = 0 and c = null in
// leaves) followed by keyed entries e = <sk, L, X, c> where
//   * e.L  references a chain of duplicate *chunks* holding the (id, h) of
//     every tuple with a == e.sk,
//   * e.c  points to the subtree with keys strictly between e.sk and the
//     next entry's sk,
//   * e.X  = (XOR of digests in e.L) ^ (XOR of X values in node(e.c)).
//
// The paper describes e.L as "a pointer to a disk page containing the ids
// and digests of the tuples with a values equal to e.sk". A literal page
// per distinct key would cost 4 KB per key (4 GB at n = 1M mostly-unique
// keys), contradicting the paper's Fig. 8 where the TE footprint is minor;
// we therefore store duplicate lists as fixed-size chunks packed into shared
// slab pages — same content and asymptotics, realistic space (see
// docs/ARCHITECTURE.md §5.2).
//
// Page formats (4096-byte pages):
//   node page : [magic u32][is_leaf u8][pad u8][count u16][rsvd u64]
//               [e0: X 20B, c u32] then count x [sk u32, L u32, X 20B, c u32]
//               -> 126 keyed entries max
//   slab page : [magic u32][u16 used][u16 rsvd][rsvd u64] then fixed-size
//               chunks [count u16, pad u16, next u32, id u64, h 20B], one
//               tuple each -> 36 B per tuple, 113 chunks per page

#ifndef SAE_XBTREE_XB_TREE_H_
#define SAE_XBTREE_XB_TREE_H_

#include <memory>
#include <optional>
#include <vector>

#include "crypto/digest.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::xbtree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::RecordId;

/// One tuple held by the TE: record id + record digest, keyed by `key`.
struct XbTuple {
  Key key;
  RecordId id;
  crypto::Digest digest;
};

/// Fanout overrides for tests (0 = use defaults).
struct XbTreeOptions {
  size_t max_entries = 0;  ///< keyed entries per node (default 126)
  /// Hot-level digest cache: parsed nodes at depth < hot_cache_levels are
  /// memoized and invalidated precisely along every update path, so
  /// steady-state VT generation parses only the leaf frontier. 0 disables.
  size_t hot_cache_levels = 2;
};

/// Disk-based XOR B-tree. Const methods (GenerateVT, Validate) are safe to
/// call from many threads over a thread-safe BufferPool; mutations require
/// exclusive access to the tree.
class XbTree {
 public:
  static Result<std::unique_ptr<XbTree>> Create(
      BufferPool* pool, const XbTreeOptions& options = {});

  /// Adds tuple (key, id, h). O(log n) node accesses; duplicate keys append
  /// to the key's duplicate-page chain in O(1) extra accesses.
  Status Insert(Key key, RecordId id, const crypto::Digest& digest);

  /// Removes the tuple with `id` under `key`; deletes the key's entry (and
  /// rebalances) when its duplicate chain empties. NotFound if absent.
  Status Delete(Key key, RecordId id);

  /// Paper Fig. 4: computes VT = XOR of digests of all tuples with
  /// key in [ql, qu]. O(log n) node accesses.
  Result<crypto::Digest> GenerateVT(Key ql, Key qu) const;

  /// Bottom-up bulk load from key-sorted tuples into an empty tree.
  Status BulkLoad(const std::vector<XbTuple>& sorted);

  size_t size() const { return tuple_count_; }
  size_t distinct_keys() const { return key_count_; }
  size_t node_count() const { return node_count_; }
  /// Slab pages backing duplicate chunks (high-water mark; chunks are
  /// recycled but slab pages are not returned to the store).
  size_t dup_page_count() const { return slab_pages_.size(); }
  /// Live duplicate chunks across all keys.
  size_t dup_chunk_count() const { return dup_chunk_count_; }
  size_t height() const { return height_; }
  size_t SizeBytes() const {
    return (node_count_ + dup_page_count()) * storage::kPageSize;
  }
  size_t max_entries() const { return max_entries_; }

  /// Hot-level node cache counters (hits/misses/invalidations/evictions);
  /// snapshot by value, diff to measure a span.
  storage::NodeCacheStats digest_cache_stats() const {
    return node_cache_.stats();
  }

  /// Recomputes every X value and duplicate chain from scratch and compares
  /// against the stored aggregates. Test hook; O(n).
  Status Validate() const;

 private:
  // A chunk reference encodes (slab page id << 8) | slot in 32 bits so it
  // fits the paper's 4-byte e.L field.
  using ChunkRef = uint32_t;
  static constexpr ChunkRef kInvalidChunk = 0xFFFFFFFFu;

  struct Entry {
    Key sk = 0;
    ChunkRef dup_head = kInvalidChunk;
    crypto::Digest x;
    PageId child = storage::kInvalidPageId;
  };

  struct Node {
    bool is_leaf = true;
    crypto::Digest x0;                       // anchor entry X
    PageId child0 = storage::kInvalidPageId; // anchor entry child
    std::vector<Entry> entries;
  };

  XbTree(BufferPool* pool, size_t max_entries,
         const storage::NodeCacheOptions& cache_options = {})
      : pool_(pool), max_entries_(max_entries), node_cache_(cache_options) {}

  Result<Node> LoadNode(PageId id) const;
  /// Depth-aware load: serves hot levels (depth < hot_cache_levels, root at
  /// depth 0) from the digest cache, filling it on miss.
  Result<std::shared_ptr<const Node>> LoadNodeCached(PageId id,
                                                     size_t depth) const;
  Status StoreNode(PageId id, const Node& node);
  Result<PageId> NewNode(const Node& node);

  // XOR of x0 and all entry X values — the total digest mass of a subtree.
  static crypto::Digest SubtreeXor(const Node& node);

  // XOR of the digests in an entry's duplicate chain, derived as
  // X ^ SubtreeXor(child) (one child load for internal entries;
  // `child_depth` is that child's depth for the hot-level cache).
  Result<crypto::Digest> EntryDupXor(const Entry& entry,
                                     size_t child_depth) const;

  // Duplicate-chunk slab helpers.
  Result<ChunkRef> AllocChunk();
  Status FreeChunk(ChunkRef ref);

  // Duplicate-chain operations over chunk refs stored in Entry::dup_head.
  // Prepends a chunk holding (id, digest) to the chain at `head`
  // (kInvalidChunk: a new chain); returns the new head.
  Result<ChunkRef> PushDupChunk(RecordId id, const crypto::Digest& digest,
                                ChunkRef head);
  // Removes `id` from the chain; sets *now_empty when the chain vanishes.
  // NotFound if absent.
  Result<crypto::Digest> DupChainRemove(Entry* entry, RecordId id,
                                        bool* now_empty);
  Status FreeDupChain(ChunkRef head);
  Result<std::vector<std::pair<RecordId, crypto::Digest>>> ReadDupChain(
      ChunkRef head) const;

  struct Split {
    Entry promoted;     // entry to insert into the parent (child = right)
    crypto::Digest removed_mass;  // XOR mass that left the split node
  };

  Status InsertRec(PageId page, Key key, RecordId id,
                   const crypto::Digest& digest, std::optional<Split>* split);

  // Removes tuple; *removed = its digest; *underflow set for rebalance.
  Status DeleteRec(PageId page, Key key, RecordId id, crypto::Digest* removed,
                   bool* underflow);

  // Removes the smallest keyed entry in the subtree (with its dup chain) and
  // returns it through *out; fixes X values along the way.
  Status RemoveMinRec(PageId page, Entry* out, bool* underflow);

  // child_slot: 0 = anchor child, i >= 1 = entries[i-1].child.
  Status FixUnderflow(Node* parent, size_t child_slot);

  Status GenerateVTRec(PageId page, size_t depth, Key ql, Key qu,
                       crypto::Digest* vt) const;

  Status ValidateRec(PageId page, size_t depth,
                     std::optional<Key> lo, std::optional<Key> hi,
                     size_t* leaf_depth, size_t* tuples, size_t* keys,
                     size_t* nodes, size_t* dup_pages,
                     crypto::Digest* subtree_xor) const;

  BufferPool* pool_;
  size_t max_entries_;
  PageId root_ = storage::kInvalidPageId;
  size_t tuple_count_ = 0;
  size_t key_count_ = 0;
  size_t node_count_ = 0;
  size_t dup_chunk_count_ = 0;
  size_t height_ = 1;
  std::vector<PageId> slab_pages_;     // all slab pages, in allocation order
  std::vector<ChunkRef> free_chunks_;  // recycled chunk slots
  mutable storage::HotNodeCache<Node> node_cache_;
};

}  // namespace sae::xbtree

#endif  // SAE_XBTREE_XB_TREE_H_
