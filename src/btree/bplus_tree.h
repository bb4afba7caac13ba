// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Disk-based B+-tree over (Key, Rid) pairs with duplicate-key support and an
// optional per-entry digest column. Plain mode is the *conventional* index
// the SP uses in SAE (paper §II: "query processing is as fast as in
// conventional database systems"). Digest mode is the MB-tree of Li et al.
// (paper §I): mbtree::MbTree is this tree with the digest column switched on,
// plus its VO construction.
//
// Node format (4096-byte pages); w is the digest width, 0 in plain mode and
// 20 in digest mode:
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64, digest wB)        -> 12 / 32 B/entry
//   internal: (child0 u32, digest0 wB),
//             count x (key u32, child u32, digest wB)      ->  8 / 28 B/entry
//
// A leaf digest is H(record); an internal digest is its child's NodeDigest,
// the hash of the child's concatenated digest column. The fanouts are 340
// (leaf) / 509+1 (internal) in plain mode and 127 / 144+1 in digest mode: the
// digest column is what shrinks the MB-tree's fanout, producing the Fig. 6
// SP-cost gap and the Fig. 8 index-size gap.

#ifndef SAE_BTREE_BPLUS_TREE_H_
#define SAE_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/digest.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/node_cache.h"
#include "storage/record.h"
#include "util/status.h"

namespace sae::btree {

using storage::BufferPool;
using storage::Key;
using storage::PageId;
using storage::Rid;

/// A key->rid posting.
struct BTreeEntry {
  Key key;
  Rid rid;

  friend bool operator==(const BTreeEntry& a, const BTreeEntry& b) {
    return a.key == b.key && a.rid == b.rid;
  }
};

/// A posting with its digest-column value (digest mode).
struct DigestEntry {
  Key key;
  Rid rid;
  crypto::Digest digest;
};

/// Tuning knobs; defaults derive from the page size. Tests shrink the
/// fanouts to force deep trees on small datasets.
struct BPlusTreeOptions {
  /// Max entries per leaf (0 = derive from page size).
  size_t max_leaf_entries = 0;
  /// Max keys per internal node (0 = derive from page size).
  size_t max_internal_keys = 0;
};

/// A tree's node fan-outs, level by level from the leaves up: shape[0] holds
/// each leaf's entry count in key order, shape[i] each level-i node's child
/// count, and the last level is the root alone. Together with the postings
/// in key order it pins the tree exactly — the same postings bulk-loaded
/// into the same shape give byte-identical nodes and the same root digest.
using TreeShape = std::vector<std::vector<uint32_t>>;

/// Disk-based B+-tree. Const methods (RangeSearch, Contains, Walk, Validate)
/// are safe to call from many threads over a thread-safe BufferPool;
/// mutations (single-writer model) require exclusive access to the tree.
class BPlusTree {
 public:
  /// Creates an empty plain-mode tree rooted at a fresh leaf page.
  static Result<std::unique_ptr<BPlusTree>> Create(
      BufferPool* pool, const BPlusTreeOptions& options = {});

  virtual ~BPlusTree() = default;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts a posting; duplicates (same key, different rid) are allowed,
  /// and re-inserting an identical (key, rid) pair is an error. The digest
  /// is the posting's digest-column value: required in digest mode, ignored
  /// in plain mode (the (key, rid) form is plain mode's).
  Status Insert(const DigestEntry& entry);
  Status Insert(Key key, Rid rid);

  /// Removes the posting (key, rid); NotFound if absent.
  Status Delete(Key key, Rid rid);

  /// Appends all postings with lo <= key <= hi to `out` in key order (the
  /// DigestEntry form, with their digests, in digest mode only).
  Status RangeSearch(Key lo, Key hi, std::vector<BTreeEntry>* out) const;
  Status RangeSearch(Key lo, Key hi, std::vector<DigestEntry>* out) const;

  /// True iff the exact posting exists.
  Result<bool> Contains(Key key, Rid rid) const;

  /// The shape a fresh bulk load of `entries` postings builds: full nodes,
  /// the remainder spread so that no node underflows.
  TreeShape PlanShape(size_t entries) const;

  /// Bottom-up bulk load into an empty tree: `sorted` in key order, with
  /// the parallel digest column in digest mode (`digests` empty in plain
  /// mode), laid out exactly as `shape`. Every node is written once.
  Status BulkLoad(const std::vector<BTreeEntry>& sorted,
                  const std::vector<crypto::Digest>& digests,
                  const TreeShape& shape);
  /// The same over the planned shape: plain mode takes postings, digest
  /// mode postings with their digests.
  Status BulkLoad(const std::vector<BTreeEntry>& sorted);
  Status BulkLoad(const std::vector<DigestEntry>& sorted);

  /// One level-by-level pass over the tree: its shape and, when `rids` is
  /// given, every posting's rid in key order — what BulkLoad needs to
  /// rebuild this very tree.
  Status Walk(TreeShape* shape, std::vector<Rid>* rids) const;

  bool with_digests() const { return with_digests_; }
  /// The digest column's hash scheme (digest mode).
  crypto::HashScheme scheme() const { return scheme_; }

  size_t size() const { return entry_count_; }
  size_t node_count() const { return node_count_; }
  size_t height() const { return height_; }
  PageId root() const { return root_; }
  size_t SizeBytes() const { return node_count_ * storage::kPageSize; }

  size_t max_leaf_entries() const { return max_leaf_; }
  size_t max_internal_keys() const { return max_internal_; }

  /// Exhaustively checks structural invariants (ordering, occupancy, uniform
  /// leaf depth, leaf-chain consistency) and, in digest mode, that every
  /// stored digest matches its child and the root digest is current. Test
  /// hook; O(n).
  Status Validate() const;

 protected:
  /// Switches the digest column on: entries carry digests hashed under
  /// `scheme`, and parsed nodes at depth < `hot_cache_levels` are memoized.
  struct DigestColumn {
    crypto::HashScheme scheme;
    size_t hot_cache_levels;
  };

  BPlusTree(BufferPool* pool, const BPlusTreeOptions& options,
            std::optional<DigestColumn> digests);

  /// Allocates the empty root leaf; every factory calls it once.
  Status Init();

  // In-memory image of one node; (de)serialized from/to its page.
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    std::vector<Rid> rids;        // leaf: parallel to keys
    std::vector<PageId> children; // internal: keys.size() + 1
    // Digest mode only (empty in plain mode): leaf, one per key; internal,
    // one per child.
    std::vector<crypto::Digest> digests;
    PageId next = storage::kInvalidPageId;  // leaf chain
  };

  /// A read-only node: shared with the hot-level cache, or decoded for this
  /// read alone (every read in plain mode).
  class NodeView {
   public:
    const Node& operator*() const { return cached_ ? *cached_ : owned_; }
    const Node* operator->() const { return &**this; }

   private:
    friend class BPlusTree;
    std::shared_ptr<const Node> cached_;
    Node owned_;
  };

  /// Depth-aware read (root at depth 0): hot levels are served from and
  /// filled into the node cache.
  Result<NodeView> ReadNode(PageId id, size_t depth) const;

  /// Digest mode: the current root digest (the value the DO signs).
  const crypto::Digest& root_digest() const { return root_digest_; }

  storage::NodeCacheStats node_cache_stats() const {
    return node_cache_.stats();
  }

 private:
  Result<Node> LoadNode(PageId id) const;
  Status StoreNode(PageId id, const Node& node);
  /// Takes a fresh page for a node that StoreNode writes later.
  Result<PageId> AllocNode();
  Result<PageId> NewNode(const Node& node);
  Status FreeNode(PageId id);

  /// H(concatenated digest column); the all-zero digest in plain mode,
  /// which hashes nothing.
  crypto::Digest NodeDigest(const Node& node) const;

  /// Descends from the root to the leftmost leaf that may hold `key` and
  /// returns it, with its depth in `depth`.
  Result<NodeView> DescendToLeaf(Key key, size_t* depth) const;

  /// OK iff `shape` lays out `entries` postings within this tree's fanouts.
  Status CheckShape(const TreeShape& shape, size_t entries) const;

  struct SplitResult {
    Key separator;
    PageId right_page;
    crypto::Digest right_digest;
  };

  // Inserts into the subtree at `page` (AlreadyExists, with nothing
  // written, if the posting is present); sets `split` if the node split
  // and `self_digest` to the node's new digest.
  Status InsertRec(PageId page, const DigestEntry& entry,
                   std::optional<SplitResult>* split,
                   crypto::Digest* self_digest);

  // Deletes from the subtree at `page`; sets *underflow when the node fell
  // below its minimum occupancy, and `self_digest` when it was rewritten.
  Status DeleteRec(PageId page, Key key, Rid rid, bool* underflow,
                   crypto::Digest* self_digest);

  // Resolves an underflowing child `child_idx` of internal node `parent`
  // (already loaded/mutable); may free pages and mutate parent.
  Status FixUnderflow(Node* parent, size_t child_idx);
  // Stores the adjacent children `idx` and `idx + 1` of `parent` after a
  // borrow and refreshes their digests in it.
  Status StoreSiblings(Node* parent, size_t idx, PageId left_page,
                       const Node& left, PageId right_page,
                       const Node& right);
  // Absorbs child `idx + 1` of `parent` into child `idx`.
  Status MergeSiblings(Node* parent, size_t idx, PageId left_page, Node* left,
                       PageId right_page, const Node& right);

  size_t MinOccupancy(const Node& node) const;

  template <typename Entry>
  Status RangeSearchImpl(Key lo, Key hi, std::vector<Entry>* out) const;

  struct ValidateWalk {
    size_t leaf_depth = 0;
    size_t entries = 0;
    size_t nodes = 0;
    std::vector<PageId> leaves_in_order;
  };
  Status ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                     std::optional<Key> hi, ValidateWalk* walk,
                     crypto::Digest* digest) const;

  BufferPool* pool_;
  const bool with_digests_;
  const crypto::HashScheme scheme_;
  size_t max_leaf_;
  size_t max_internal_;
  PageId root_ = storage::kInvalidPageId;
  crypto::Digest root_digest_;
  size_t entry_count_ = 0;
  size_t node_count_ = 0;
  size_t height_ = 1;
  mutable storage::HotNodeCache<Node> node_cache_;
};

}  // namespace sae::btree

#endif  // SAE_BTREE_BPLUS_TREE_H_
