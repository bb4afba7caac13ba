// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the conventional disk B+-tree (btree/bplus_tree.h): search,
// insert with splits, delete with borrow/merge, bulk load, and range scans
// over (key, rid) pairs with duplicate support.

#include "btree/bplus_tree.h"

#include <algorithm>

#include "util/codec.h"
#include "util/macros.h"

namespace sae::btree {

namespace {

constexpr uint32_t kMagic = 0x4254524Eu;  // "BTRN"
constexpr size_t kHeaderSize = 16;
constexpr size_t kLeafEntrySize = 12;      // key u32 + rid u64
constexpr size_t kInternalEntrySize = 8;   // key u32 + child u32

size_t DefaultMaxLeaf() {
  return (storage::kPageSize - kHeaderSize) / kLeafEntrySize;  // 340
}
size_t DefaultMaxInternal() {
  // child0 consumes 4 bytes before the (key, child) pairs.
  return (storage::kPageSize - kHeaderSize - 4) / kInternalEntrySize;  // 509
}

// Splits `total` items into near-equal chunks aiming at `target` items per
// chunk while honoring the hard occupancy bounds [min_size, hard_cap].
// A single (possibly slim) chunk is returned when total <= min_size — that
// chunk becomes the root. Used by bulk load so no node over- or underflows.
std::vector<size_t> PlanChunks(size_t total, size_t target, size_t hard_cap,
                               size_t min_size) {
  SAE_CHECK(min_size >= 1 && min_size <= hard_cap && target >= 1);
  if (total <= min_size) return {total};
  size_t n = (total + target - 1) / target;
  if (n == 0) n = 1;
  while (n > 1 && total / n < min_size) --n;
  while ((total + n - 1) / n > hard_cap) ++n;
  SAE_CHECK(n >= 1 && total / n >= std::min(min_size, total));
  std::vector<size_t> sizes(n, total / n);
  for (size_t i = 0; i < total % n; ++i) ++sizes[i];
  return sizes;
}

}  // namespace

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(
    BufferPool* pool, const BPlusTreeOptions& options) {
  size_t max_leaf =
      options.max_leaf_entries ? options.max_leaf_entries : DefaultMaxLeaf();
  size_t max_internal = options.max_internal_keys ? options.max_internal_keys
                                                  : DefaultMaxInternal();
  SAE_CHECK(max_leaf >= 2 && max_leaf <= DefaultMaxLeaf());
  SAE_CHECK(max_internal >= 2 && max_internal <= DefaultMaxInternal());

  auto tree = std::unique_ptr<BPlusTree>(
      new BPlusTree(pool, max_leaf, max_internal));
  Node root;
  root.is_leaf = true;
  SAE_ASSIGN_OR_RETURN(tree->root_, tree->NewNode(root));
  return tree;
}

Result<BPlusTree::Node> BPlusTree::LoadNode(PageId id) const {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  const uint8_t* p = ref.Get().bytes();
  if (DecodeU32(p) != kMagic) {
    return Status::Corruption("bad btree node magic");
  }
  Node node;
  node.is_leaf = p[4] != 0;
  uint16_t count = DecodeU16(p + 6);
  node.next = DecodeU32(p + 8);
  const uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    node.keys.reserve(count);
    node.rids.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      node.keys.push_back(DecodeU32(body + i * kLeafEntrySize));
      node.rids.push_back(DecodeU64(body + i * kLeafEntrySize + 4));
    }
  } else {
    node.children.reserve(count + 1);
    node.children.push_back(DecodeU32(body));
    const uint8_t* pairs = body + 4;
    node.keys.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      node.keys.push_back(DecodeU32(pairs + i * kInternalEntrySize));
      node.children.push_back(DecodeU32(pairs + i * kInternalEntrySize + 4));
    }
  }
  return node;
}

Status BPlusTree::StoreNode(PageId id, const Node& node) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(id));
  storage::Page& page = ref.Mutable();
  page.Zero();
  uint8_t* p = page.bytes();
  EncodeU32(p, kMagic);
  p[4] = node.is_leaf ? 1 : 0;
  EncodeU16(p + 6, uint16_t(node.keys.size()));
  EncodeU32(p + 8, node.next);
  uint8_t* body = p + kHeaderSize;
  if (node.is_leaf) {
    SAE_CHECK(node.keys.size() == node.rids.size());
    SAE_CHECK(node.keys.size() <= DefaultMaxLeaf());
    for (size_t i = 0; i < node.keys.size(); ++i) {
      EncodeU32(body + i * kLeafEntrySize, node.keys[i]);
      EncodeU64(body + i * kLeafEntrySize + 4, node.rids[i]);
    }
  } else {
    SAE_CHECK(node.children.size() == node.keys.size() + 1);
    SAE_CHECK(node.keys.size() <= DefaultMaxInternal());
    EncodeU32(body, node.children[0]);
    uint8_t* pairs = body + 4;
    for (size_t i = 0; i < node.keys.size(); ++i) {
      EncodeU32(pairs + i * kInternalEntrySize, node.keys[i]);
      EncodeU32(pairs + i * kInternalEntrySize + 4, node.children[i + 1]);
    }
  }
  return Status::OK();
}

Result<PageId> BPlusTree::NewNode(const Node& node) {
  SAE_ASSIGN_OR_RETURN(auto ref, pool_->New());
  PageId id = ref.id();
  ref.Release();
  SAE_RETURN_NOT_OK(StoreNode(id, node));
  ++node_count_;
  return id;
}

size_t BPlusTree::MinOccupancy(const Node& node) const {
  return node.is_leaf ? max_leaf_ / 2 : max_internal_ / 2;
}

Status BPlusTree::Insert(Key key, Rid rid) {
  SAE_ASSIGN_OR_RETURN(bool exists, Contains(key, rid));
  if (exists) {
    return Status::AlreadyExists("posting already present");
  }
  std::optional<SplitResult> split;
  SAE_RETURN_NOT_OK(InsertRec(root_, key, rid, &split));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->separator);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->right_page);
    SAE_ASSIGN_OR_RETURN(root_, NewNode(new_root));
    ++height_;
  }
  ++entry_count_;
  return Status::OK();
}

Status BPlusTree::InsertRec(PageId page, Key key, Rid rid,
                            std::optional<SplitResult>* split) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  split->reset();

  if (node.is_leaf) {
    size_t pos = std::upper_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
    node.keys.insert(node.keys.begin() + pos, key);
    node.rids.insert(node.rids.begin() + pos, rid);

    if (node.keys.size() > max_leaf_) {
      size_t mid = node.keys.size() / 2;
      Node right;
      right.is_leaf = true;
      right.keys.assign(node.keys.begin() + mid, node.keys.end());
      right.rids.assign(node.rids.begin() + mid, node.rids.end());
      right.next = node.next;
      node.keys.resize(mid);
      node.rids.resize(mid);
      SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
      node.next = right_page;
      *split = SplitResult{right.keys.front(), right_page};
    }
    return StoreNode(page, node);
  }

  size_t idx = std::upper_bound(node.keys.begin(), node.keys.end(), key) -
               node.keys.begin();
  std::optional<SplitResult> child_split;
  SAE_RETURN_NOT_OK(InsertRec(node.children[idx], key, rid, &child_split));
  if (!child_split.has_value()) return Status::OK();

  node.keys.insert(node.keys.begin() + idx, child_split->separator);
  node.children.insert(node.children.begin() + idx + 1,
                       child_split->right_page);

  if (node.keys.size() > max_internal_) {
    size_t mid = node.keys.size() / 2;
    Key separator = node.keys[mid];
    Node right;
    right.is_leaf = false;
    right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.keys.resize(mid);
    node.children.resize(mid + 1);
    SAE_ASSIGN_OR_RETURN(PageId right_page, NewNode(right));
    *split = SplitResult{separator, right_page};
  }
  return StoreNode(page, node);
}

Status BPlusTree::RangeSearch(Key lo, Key hi,
                              std::vector<BTreeEntry>* out) const {
  if (lo > hi) return Status::InvalidArgument("lo > hi");

  // Descend to the leftmost leaf that may contain `lo`. Duplicate keys can
  // straddle a split boundary, so use lower_bound on separators.
  PageId page = root_;
  for (;;) {
    SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
    if (node.is_leaf) break;
    size_t idx = std::lower_bound(node.keys.begin(), node.keys.end(), lo) -
                 node.keys.begin();
    page = node.children[idx];
  }

  while (page != storage::kInvalidPageId) {
    SAE_ASSIGN_OR_RETURN(Node leaf, LoadNode(page));
    size_t pos = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), lo) -
                 leaf.keys.begin();
    for (; pos < leaf.keys.size(); ++pos) {
      if (leaf.keys[pos] > hi) return Status::OK();
      out->push_back(BTreeEntry{leaf.keys[pos], leaf.rids[pos]});
    }
    page = leaf.next;
  }
  return Status::OK();
}

Result<bool> BPlusTree::Contains(Key key, Rid rid) const {
  PageId page = root_;
  for (;;) {
    SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
    if (node.is_leaf) break;
    size_t idx = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
    page = node.children[idx];
  }
  while (page != storage::kInvalidPageId) {
    SAE_ASSIGN_OR_RETURN(Node leaf, LoadNode(page));
    size_t pos = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key) -
                 leaf.keys.begin();
    for (; pos < leaf.keys.size(); ++pos) {
      if (leaf.keys[pos] != key) return false;
      if (leaf.rids[pos] == rid) return true;
    }
    page = leaf.next;  // run of duplicates may continue in the next leaf
    if (page != storage::kInvalidPageId) {
      SAE_ASSIGN_OR_RETURN(Node peek, LoadNode(page));
      if (peek.keys.empty() || peek.keys.front() != key) return false;
    }
  }
  return false;
}

Status BPlusTree::Delete(Key key, Rid rid) {
  bool underflow = false;
  SAE_RETURN_NOT_OK(DeleteRec(root_, key, rid, &underflow));
  if (underflow) {
    SAE_ASSIGN_OR_RETURN(Node root, LoadNode(root_));
    if (!root.is_leaf && root.keys.empty()) {
      PageId old = root_;
      root_ = root.children[0];
      SAE_RETURN_NOT_OK(pool_->Free(old));
      --node_count_;
      --height_;
    }
  }
  --entry_count_;
  return Status::OK();
}

Status BPlusTree::DeleteRec(PageId page, Key key, Rid rid, bool* underflow) {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  *underflow = false;

  if (node.is_leaf) {
    size_t pos = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
    for (; pos < node.keys.size() && node.keys[pos] == key; ++pos) {
      if (node.rids[pos] == rid) {
        node.keys.erase(node.keys.begin() + pos);
        node.rids.erase(node.rids.begin() + pos);
        *underflow = node.keys.size() < MinOccupancy(node);
        return StoreNode(page, node);
      }
    }
    return Status::NotFound("posting not found");
  }

  // Duplicate keys may live in any child whose separator range touches
  // `key`; probe candidates left to right.
  size_t first = std::lower_bound(node.keys.begin(), node.keys.end(), key) -
                 node.keys.begin();
  size_t last = std::upper_bound(node.keys.begin(), node.keys.end(), key) -
                node.keys.begin();
  for (size_t idx = first; idx <= last; ++idx) {
    bool child_underflow = false;
    Status st = DeleteRec(node.children[idx], key, rid, &child_underflow);
    if (st.code() == StatusCode::kNotFound) continue;
    SAE_RETURN_NOT_OK(st);
    if (child_underflow) {
      SAE_RETURN_NOT_OK(FixUnderflow(&node, idx));
      *underflow = node.keys.size() < MinOccupancy(node);
      return StoreNode(page, node);
    }
    return Status::OK();
  }
  return Status::NotFound("posting not found");
}

Status BPlusTree::FixUnderflow(Node* parent, size_t child_idx) {
  PageId child_page = parent->children[child_idx];
  SAE_ASSIGN_OR_RETURN(Node child, LoadNode(child_page));

  // Try borrowing from the left sibling.
  if (child_idx > 0) {
    PageId left_page = parent->children[child_idx - 1];
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    if (left.keys.size() > MinOccupancy(left)) {
      if (child.is_leaf) {
        child.keys.insert(child.keys.begin(), left.keys.back());
        child.rids.insert(child.rids.begin(), left.rids.back());
        left.keys.pop_back();
        left.rids.pop_back();
        parent->keys[child_idx - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[child_idx - 1]);
        child.children.insert(child.children.begin(), left.children.back());
        parent->keys[child_idx - 1] = left.keys.back();
        left.keys.pop_back();
        left.children.pop_back();
      }
      SAE_RETURN_NOT_OK(StoreNode(left_page, left));
      return StoreNode(child_page, child);
    }
  }

  // Try borrowing from the right sibling.
  if (child_idx + 1 < parent->children.size()) {
    PageId right_page = parent->children[child_idx + 1];
    SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
    if (right.keys.size() > MinOccupancy(right)) {
      if (child.is_leaf) {
        child.keys.push_back(right.keys.front());
        child.rids.push_back(right.rids.front());
        right.keys.erase(right.keys.begin());
        right.rids.erase(right.rids.begin());
        parent->keys[child_idx] = right.keys.front();
      } else {
        child.keys.push_back(parent->keys[child_idx]);
        child.children.push_back(right.children.front());
        parent->keys[child_idx] = right.keys.front();
        right.keys.erase(right.keys.begin());
        right.children.erase(right.children.begin());
      }
      SAE_RETURN_NOT_OK(StoreNode(right_page, right));
      return StoreNode(child_page, child);
    }
  }

  // Merge with a sibling. Prefer absorbing `child` into the left sibling.
  if (child_idx > 0) {
    PageId left_page = parent->children[child_idx - 1];
    SAE_ASSIGN_OR_RETURN(Node left, LoadNode(left_page));
    if (child.is_leaf) {
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      left.rids.insert(left.rids.end(), child.rids.begin(), child.rids.end());
      left.next = child.next;
    } else {
      left.keys.push_back(parent->keys[child_idx - 1]);
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      left.children.insert(left.children.end(), child.children.begin(),
                           child.children.end());
    }
    SAE_RETURN_NOT_OK(StoreNode(left_page, left));
    SAE_RETURN_NOT_OK(pool_->Free(child_page));
    --node_count_;
    parent->keys.erase(parent->keys.begin() + child_idx - 1);
    parent->children.erase(parent->children.begin() + child_idx);
    return Status::OK();
  }

  SAE_CHECK(child_idx + 1 < parent->children.size());
  PageId right_page = parent->children[child_idx + 1];
  SAE_ASSIGN_OR_RETURN(Node right, LoadNode(right_page));
  if (child.is_leaf) {
    child.keys.insert(child.keys.end(), right.keys.begin(), right.keys.end());
    child.rids.insert(child.rids.end(), right.rids.begin(), right.rids.end());
    child.next = right.next;
  } else {
    child.keys.push_back(parent->keys[child_idx]);
    child.keys.insert(child.keys.end(), right.keys.begin(), right.keys.end());
    child.children.insert(child.children.end(), right.children.begin(),
                          right.children.end());
  }
  SAE_RETURN_NOT_OK(StoreNode(child_page, child));
  SAE_RETURN_NOT_OK(pool_->Free(right_page));
  --node_count_;
  parent->keys.erase(parent->keys.begin() + child_idx);
  parent->children.erase(parent->children.begin() + child_idx + 1);
  return Status::OK();
}

Status BPlusTree::BulkLoad(const std::vector<BTreeEntry>& sorted,
                           double fill) {
  if (entry_count_ != 0 || node_count_ != 1) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0, 1]");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].key > sorted[i].key) {
      return Status::InvalidArgument("entries not sorted by key");
    }
  }
  if (sorted.empty()) return Status::OK();

  // Reuse the pre-allocated empty root page as the first leaf.
  size_t min_leaf = std::max<size_t>(1, max_leaf_ / 2);
  size_t leaf_target = std::max<size_t>(
      min_leaf, static_cast<size_t>(double(max_leaf_) * fill));
  std::vector<size_t> leaf_sizes =
      PlanChunks(sorted.size(), leaf_target, max_leaf_, min_leaf);

  struct LevelEntry {
    Key first_key;
    PageId page;
  };
  std::vector<LevelEntry> level;
  level.reserve(leaf_sizes.size());

  size_t offset = 0;
  PageId prev_leaf = storage::kInvalidPageId;
  for (size_t li = 0; li < leaf_sizes.size(); ++li) {
    Node leaf;
    leaf.is_leaf = true;
    for (size_t i = 0; i < leaf_sizes[li]; ++i) {
      leaf.keys.push_back(sorted[offset + i].key);
      leaf.rids.push_back(sorted[offset + i].rid);
    }
    offset += leaf_sizes[li];

    PageId page;
    if (li == 0) {
      page = root_;  // recycle the initial empty root page
      SAE_RETURN_NOT_OK(StoreNode(page, leaf));
    } else {
      SAE_ASSIGN_OR_RETURN(page, NewNode(leaf));
    }
    if (prev_leaf != storage::kInvalidPageId) {
      SAE_ASSIGN_OR_RETURN(Node prev, LoadNode(prev_leaf));
      prev.next = page;
      SAE_RETURN_NOT_OK(StoreNode(prev_leaf, prev));
    }
    prev_leaf = page;
    level.push_back(LevelEntry{leaf.keys.front(), page});
  }

  height_ = 1;
  size_t min_children = max_internal_ / 2 + 1;
  size_t target_children = std::max<size_t>(
      min_children,
      static_cast<size_t>(double(max_internal_ + 1) * fill));
  while (level.size() > 1) {
    std::vector<size_t> group_sizes = PlanChunks(
        level.size(), target_children, max_internal_ + 1, min_children);
    std::vector<LevelEntry> next_level;
    next_level.reserve(group_sizes.size());
    size_t pos = 0;
    for (size_t gs : group_sizes) {
      Node internal;
      internal.is_leaf = false;
      internal.children.push_back(level[pos].page);
      for (size_t i = 1; i < gs; ++i) {
        internal.keys.push_back(level[pos + i].first_key);
        internal.children.push_back(level[pos + i].page);
      }
      SAE_ASSIGN_OR_RETURN(PageId page, NewNode(internal));
      next_level.push_back(LevelEntry{level[pos].first_key, page});
      pos += gs;
    }
    level = std::move(next_level);
    ++height_;
  }

  root_ = level.front().page;
  entry_count_ = sorted.size();
  return Status::OK();
}

Status BPlusTree::ValidateRec(PageId page, size_t depth, std::optional<Key> lo,
                              std::optional<Key> hi, size_t* leaf_depth,
                              size_t* entries, size_t* nodes,
                              std::vector<PageId>* leaves_in_order) const {
  SAE_ASSIGN_OR_RETURN(Node node, LoadNode(page));
  ++*nodes;

  for (size_t i = 1; i < node.keys.size(); ++i) {
    if (node.keys[i - 1] > node.keys[i]) {
      return Status::Corruption("keys out of order");
    }
  }
  for (Key k : node.keys) {
    if ((lo && k < *lo) || (hi && k > *hi)) {
      return Status::Corruption("key outside separator bounds");
    }
  }

  if (node.is_leaf) {
    if (node.keys.size() > max_leaf_) {
      return Status::Corruption("leaf overflow");
    }
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    *entries += node.keys.size();
    leaves_in_order->push_back(page);
    return Status::OK();
  }

  if (node.keys.size() > max_internal_) {
    return Status::Corruption("internal overflow");
  }
  if (node.children.size() != node.keys.size() + 1) {
    return Status::Corruption("child/key count mismatch");
  }
  if (page != root_ && node.keys.size() < max_internal_ / 2) {
    return Status::Corruption("internal underflow");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::optional<Key> child_lo = (i == 0) ? lo : std::optional(node.keys[i - 1]);
    std::optional<Key> child_hi =
        (i == node.keys.size()) ? hi : std::optional(node.keys[i]);
    SAE_RETURN_NOT_OK(ValidateRec(node.children[i], depth + 1, child_lo,
                                  child_hi, leaf_depth, entries, nodes,
                                  leaves_in_order));
  }
  return Status::OK();
}

Status BPlusTree::Validate() const {
  size_t leaf_depth = 0, entries = 0, nodes = 0;
  std::vector<PageId> leaves;
  SAE_RETURN_NOT_OK(ValidateRec(root_, 1, std::nullopt, std::nullopt,
                                &leaf_depth, &entries, &nodes, &leaves));
  if (entries != entry_count_) {
    return Status::Corruption("entry count mismatch");
  }
  if (nodes != node_count_) {
    return Status::Corruption("node count mismatch");
  }
  if (leaf_depth != height_) {
    return Status::Corruption("height mismatch");
  }
  // The left-to-right leaf order must match the next-pointer chain.
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    SAE_ASSIGN_OR_RETURN(Node leaf, LoadNode(leaves[i]));
    if (leaf.next != leaves[i + 1]) {
      return Status::Corruption("broken leaf chain");
    }
  }
  if (!leaves.empty()) {
    SAE_ASSIGN_OR_RETURN(Node last, LoadNode(leaves.back()));
    if (last.next != storage::kInvalidPageId) {
      return Status::Corruption("dangling leaf chain tail");
    }
  }
  return Status::OK();
}

}  // namespace sae::btree
