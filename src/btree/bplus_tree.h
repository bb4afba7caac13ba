// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Disk-based B+-tree over (Key, Rid) pairs with duplicate-key support —
// the *conventional* index the SP uses in SAE (paper §II: "query processing
// is as fast as in conventional database systems").
//
// Node format (4096-byte pages):
//   header  : [magic u32][is_leaf u8][pad u8][count u16][next u32][rsvd u32]
//   leaf    : count x (key u32, rid u64)                       -> 12 B/entry
//   internal: child0 u32, then count x (key u32, child u32)    ->  8 B/entry
//
// With 4096-byte pages this yields fanouts of 340 (leaf) and 509+1
// (internal); the MB-tree's digest-per-entry layout is what shrinks *its*
// fanout, producing the Fig. 6 SP-cost gap.

#ifndef SAE_BTREE_BPLUS_TREE_H_
#define SAE_BTREE_BPLUS_TREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
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

/// Tuning knobs; defaults derive from the page size. Tests shrink the
/// fanouts to force deep trees on small datasets.
struct BPlusTreeOptions {
  /// Max entries per leaf (0 = derive from page size).
  size_t max_leaf_entries = 0;
  /// Max keys per internal node (0 = derive from page size).
  size_t max_internal_keys = 0;
};

/// Disk-based B+-tree. Const methods (RangeSearch, Contains, Validate) are
/// safe to call from many threads over a thread-safe BufferPool; mutations
/// (single-writer model) require exclusive access to the tree.
class BPlusTree {
 public:
  /// Creates an empty tree rooted at a fresh leaf page.
  static Result<std::unique_ptr<BPlusTree>> Create(
      BufferPool* pool, const BPlusTreeOptions& options = {});

  /// Inserts a posting; duplicates (same key, different rid) are allowed,
  /// and re-inserting an identical (key, rid) pair is an error.
  Status Insert(Key key, Rid rid);

  /// Removes the posting (key, rid); NotFound if absent.
  Status Delete(Key key, Rid rid);

  /// Appends all postings with lo <= key <= hi to `out` in key order.
  Status RangeSearch(Key lo, Key hi, std::vector<BTreeEntry>* out) const;

  /// True iff the exact posting exists.
  Result<bool> Contains(Key key, Rid rid) const;

  /// Bottom-up bulk load from key-sorted postings into an empty tree.
  /// `fill` in (0, 1] controls leaf/internal occupancy.
  Status BulkLoad(const std::vector<BTreeEntry>& sorted, double fill = 1.0);

  size_t size() const { return entry_count_; }
  size_t node_count() const { return node_count_; }
  size_t height() const { return height_; }
  PageId root() const { return root_; }
  size_t SizeBytes() const { return node_count_ * storage::kPageSize; }

  size_t max_leaf_entries() const { return max_leaf_; }
  size_t max_internal_keys() const { return max_internal_; }

  /// Exhaustively checks structural invariants (ordering, occupancy, uniform
  /// leaf depth, leaf-chain consistency). Test hook; O(n).
  Status Validate() const;

 private:
  // In-memory image of one node; (de)serialized from/to its page.
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    std::vector<Rid> rids;        // leaf: parallel to keys
    std::vector<PageId> children; // internal: keys.size() + 1
    PageId next = storage::kInvalidPageId;  // leaf chain
  };

  BPlusTree(BufferPool* pool, size_t max_leaf, size_t max_internal)
      : pool_(pool), max_leaf_(max_leaf), max_internal_(max_internal) {}

  Result<Node> LoadNode(PageId id) const;
  Status StoreNode(PageId id, const Node& node);
  Result<PageId> NewNode(const Node& node);

  struct SplitResult {
    Key separator;
    PageId right_page;
  };

  // Inserts into the subtree at `page`; sets `split` if the node split.
  Status InsertRec(PageId page, Key key, Rid rid,
                   std::optional<SplitResult>* split);

  // Deletes from the subtree at `page`; sets *underflow when the node fell
  // below its minimum occupancy.
  Status DeleteRec(PageId page, Key key, Rid rid, bool* underflow);

  // Resolves an underflowing child `child_idx` of internal node `parent`
  // (already loaded/mutable); may free pages and mutate parent.
  Status FixUnderflow(Node* parent, size_t child_idx);

  size_t MinOccupancy(const Node& node) const;

  Status ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                     std::optional<Key> hi, size_t* leaf_depth,
                     size_t* entries, size_t* nodes,
                     std::vector<PageId>* leaves_in_order) const;

  BufferPool* pool_;
  size_t max_leaf_;
  size_t max_internal_;
  PageId root_ = storage::kInvalidPageId;
  size_t entry_count_ = 0;
  size_t node_count_ = 0;
  size_t height_ = 1;
};

}  // namespace sae::btree

#endif  // SAE_BTREE_BPLUS_TREE_H_
